"""The sorting discipline for scripts, declarations, and rule terms.

Checking a rule term happens under one of two judgments, the members of
``TermContext``, which the checker reads from these module names:

* ``IN_PAT`` -- a pattern, the left side of a rule (``SMP-*``);
* ``CON``    -- a contraction, a rule's right side or a subject (``SMC-*``).

A pattern's root (``SMP-Fun``) and a substitution argument, an immediate
child of a contraction's meta-application (``SMS-*``), are checked by
``check_pattern`` and ``_check_substitute``, called where they occur.

Every ``Diagnostic`` carries the tag of the violated rule or side condition
(``SMP-Meta``, ``SA-Map``, ...) so callers can pin the exact failure.
"""

from __future__ import annotations

from enum import Enum

from .env import (
    GlobalEnv,
    MetaForm,
    RuleEnv,
    build_global_env,
    decl_sorts,
    infer_rule_env,
    instantiated_forms,
)
from .terms import (
    AssocForm,
    Association,
    CatchAll,
    Construction,
    DataDecl,
    Diagnostic,
    Form,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    Piece,
    RuleDecl,
    SchemeDecl,
    ScopeForm,
    ScopePiece,
    Script,
    Sort,
    SortCons,
    SortVar,
    Term,
    Var,
    VariableDecl,
    _Record,
    _err,
    all_idents,
    non_assoc_vars,
    render,
)

__all__ = [
    "ScriptCheck",
    "check_ground_subject",
    "check_script",
]


class TermContext(Enum):
    IN_PAT = "InPat"
    CON = "Con"


IN_PAT, CON = TermContext


class CheckState(_Record):
    """Context threaded through term checking.

    ``v`` is the set of names usable as association keys: on a rule side,
    its free variables outside association lists (KeyNotElsewhere, which
    keeps pattern keys resolvable); on a ground subject, every name of it.
    ``bound`` maps each binder in scope to its sort, an inner binder
    replacing an outer one of the same name; ``delta.var`` gives the sort
    of every other name: inferred beforehand on a rule side, and filled by
    the check on a ground subject, where a name takes the sort of the first
    position the check meets it at.
    """

    __slots__ = _fields = ("gamma", "delta", "v", "tc", "bound")

    def __init__(self, gamma: GlobalEnv, delta: RuleEnv, v: frozenset[Ident], tc: TermContext,
                 bound: dict[Ident, Sort]):
        self.gamma = gamma
        self.delta = delta
        self.v = v
        self.tc = tc
        self.bound = bound


class ScriptCheck(_Record):
    """Result of checking a whole script."""

    __slots__ = _fields = ("gamma", "rule_envs", "errors")
    __hash__ = None

    def __init__(self, gamma: GlobalEnv, rule_envs: list[RuleEnv], errors: list[Diagnostic]):
        self.gamma = gamma
        self.rule_envs = rule_envs
        self.errors = errors

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# Sorts


def check_sort(gamma: GlobalEnv, s: Sort) -> list[Diagnostic]:
    """Sorts are well-formed when every constructor is used at its rank."""
    if s.__class__ is SortVar:
        return []
    errors: list[Diagnostic] = []
    rank = gamma.rank.get(s.name)
    if rank is None or rank != len(s.args):
        have = "unknown" if rank is None else str(rank)
        errors.append(_err("SS-Cons", s, f"sort {s.name} applied to {len(s.args)} argument(s) but "
                           f"has rank {have}"))
    for a in s.args:
        errors.extend(check_sort(gamma, a))
    return errors


# ---------------------------------------------------------------------------
# Terms


def _check_construction(st: CheckState, t: Construction, expected: Sort, tag: str
                        ) -> list[Diagnostic]:
    sig = st.gamma.con.get(t.head)
    if sig is None:
        return [_err(tag, t, f"constructor {t.head} is not declared")]
    forms = instantiated_forms(sig, expected)
    if forms is None:
        return [_err(tag, t, f"construction {t.head} has sort {render(sig.result)}, which does "
                     f"not match the expected sort {render(expected)}")]
    if len(t.args) != len(forms):
        return [_err(tag, t, f"constructor {t.head} expects {len(forms)} argument(s), got "
                     f"{len(t.args)}")]
    errors: list[Diagnostic] = []
    for p, f in zip(t.args, forms):
        errors.extend(check_piece(st, p, f))
    return errors


def check_pattern(st: CheckState, t: Term, expected: Sort) -> list[Diagnostic]:
    """SMP-Fun: a rule's pattern is a scheme construction; ``st`` is ``IN_PAT``."""
    if t.__class__ is not Construction:
        return [_err("SMP-Fun", t, "a rule pattern must be a scheme construction")]
    if t.head not in st.gamma.fun:
        return [_err("SMP-Fun", t, f"pattern head {t.head} is not a scheme")]
    return _check_construction(st, t, expected, "SMP-Fun")


def check_term(st: CheckState, t: Term, expected: Sort) -> list[Diagnostic]:
    """Check a term at the expected sort in the state's term context."""
    if st.tc is IN_PAT:
        if t.__class__ is Construction:
            # SMP-Data: inside a pattern only data constructors are allowed.
            # Exception: at a sort with no data constructors at all (a pure
            # scheme signature) a scheme head is tolerated, since no data
            # pattern could exist there.
            if t.head in st.gamma.fun:
                sort_name = expected.name if expected.__class__ is SortCons else None
                if sort_name in st.gamma.sorts_with_data:
                    return [_err("SMP-Data", t, f"scheme {t.head} cannot appear inside a pattern "
                                 f"at sort {render(expected)}")]
            return _check_construction(st, t, expected, "SMP-Data")
        if t.__class__ is MetaApp:
            return _check_term_meta(st, t, expected, "SMP-Meta")
        return _check_variable(st, t, expected, "SMP-Var", need_hasvar=True)

    if t.__class__ is Construction:
        return _check_construction(st, t, expected, "SMC-Cons")
    if t.__class__ is MetaApp:
        return _check_term_meta(st, t, expected, "SMC-Meta")
    return _check_variable(st, t, expected, "SMC-Var", need_hasvar=True)


def _check_substitute(st: CheckState, t: Term, expected: Sort) -> list[Diagnostic]:
    """SMS-*: a substitution argument of a meta-application; ``st`` is ``CON``."""
    if t.__class__ is Var:
        # SMS-Var places no syntactic-variable requirement on the sort.
        return _check_variable(st, t, expected, "SMS-Var", need_hasvar=False)
    tag = "SMS-Cons" if t.__class__ is Construction else "SMS-Meta"
    if expected.__class__ is not SortCons:
        return [_err(tag, t, f"cannot substitute a non-variable at sort {render(expected)}")]
    if expected.name in st.gamma.hasvar:
        return [_err(tag, t, f"cannot substitute a non-variable at sort {render(expected)}, which "
                     "admits syntactic variables")]
    return check_term(st, t, expected)


def _check_term_meta(st: CheckState, t: MetaApp, expected: Sort, tag: str
                     ) -> list[Diagnostic]:
    """A meta-application used as a term, in a pattern or a contraction."""
    mf = st.delta.meta.get(t.meta)
    if mf is None:
        return [_err(tag, t, f"meta-variable {t.meta} has no meta-form")]
    if mf.result.__class__ is AssocForm:
        return [_err(tag, t, f"catch-all meta-variable {t.meta} cannot be used as a term")]
    if mf.result is not expected and mf.result != expected:
        return [_err(tag, t, f"meta-variable {t.meta} produces {render(mf.result)}, expected "
                     f"{render(expected)}")]
    return _check_meta_args(st, t, mf, tag)


def _check_meta_args(st: CheckState, m: MetaApp | CatchAll, mf: MetaForm, tag: str
                     ) -> list[Diagnostic]:
    """Arguments of a meta-variable with meta-form ``mf``.

    In a pattern they are bound variables of the declared sorts, pairwise
    distinct except for a catch-all's; in a contraction they are
    substitution arguments.
    """
    if len(m.args) != len(mf.arg_sorts):
        return [_err(tag, m, f"meta-variable {m.meta} takes {len(mf.arg_sorts)} argument(s), got "
                     f"{len(m.args)}")]
    if not m.args:
        return []
    if st.tc is CON:
        errors: list[Diagnostic] = []
        for a, s in zip(m.args, mf.arg_sorts):
            errors.extend(_check_substitute(st, a, s))
        return errors
    seen: set[Ident] = set()
    for a, s in zip(m.args, mf.arg_sorts):
        if a.__class__ is not Var:
            return [_err(tag, m, f"pattern arguments of {m.meta} must be bound variables, got "
                         f"{render(a)}")]
        if a.name not in st.bound:
            return [_err(tag, a, f"{a.name} is not bound in the enclosing pattern")]
        have = st.bound[a.name]
        if have is not s and have != s:
            return [_err(tag, a, f"argument {a.name} of {m.meta} has {render(have)}, expected "
                         f"{render(s)}")]
        if m.__class__ is MetaApp and a.name in seen:
            return [_err(tag, a, f"arguments of {m.meta} must be pairwise distinct variables")]
        seen.add(a.name)
    return []


def _check_variable(st: CheckState, t: Term, expected: Sort, tag: str,
                    need_hasvar: bool, key: bool = False) -> list[Diagnostic]:
    if t.__class__ is not Var:
        return [_err(tag, t, f"expected a variable, got {render(t)}")]
    have = st.bound.get(t.name) or st.delta.var.setdefault(t.name, expected)
    if have is not expected and have != expected:
        return [_err(tag, t, f"variable {t.name} has sort {render(have)}, expected "
                     f"{render(expected)}")]
    if need_hasvar:
        # A bound variable of the rule itself is tolerated without a
        # 'variable' declaration at a pure scheme sort (one with no data
        # constructors), the same proviso that admits scheme heads in
        # patterns there.  Free occurrences always need the declaration,
        # and so do keys: substituting for a key's binder or for a
        # catch-all's parameter renames the key, and only at a 'variable'
        # sort do SMS-Cons and SMS-Meta keep that substitute a variable.
        waived = (
            not key
            and t.name in st.bound
            and expected.__class__ is SortCons
            and expected.name not in st.gamma.sorts_with_data
        )
        if not waived and not (
            expected.__class__ is SortCons and expected.name in st.gamma.hasvar
        ):
            return [_err(tag, t, f"variable {t.name} occurs at sort {render(expected)}, which has "
                         "no 'variable' declaration")]
    return []


# ---------------------------------------------------------------------------
# Pieces and associations


def check_piece(st: CheckState, p: Piece, f: Form) -> list[Diagnostic]:
    """Check a construction argument against its declared form."""
    if p.__class__ is ScopePiece:
        if f.__class__ is not ScopeForm:
            return [_err("SP-Bind", p, "scope argument where an association form is declared")]
        if len(p.binders) != len(f.binder_sorts):
            return [_err("SP-Bind", p, f"scope binds {len(p.binders)} variable(s) but the form "
                         f"declares {len(f.binder_sorts)} (BinderArityMismatch)")]
        if p.binders:
            st = CheckState(st.gamma, st.delta, st.v, st.tc,
                            st.bound | dict(zip(p.binders, f.binder_sorts)))
        return check_term(st, p.body, f.body_sort)

    if f.__class__ is not AssocForm:
        return [_err("SP-Assoc", p, "association argument where a scope form is declared")]
    errors: list[Diagnostic] = []
    for e in p.entries:
        errors.extend(check_association(st, e, f))
    if st.tc is IN_PAT:
        # Which entries each catch-all would take is not determined.
        catchalls = [e for e in p.entries if e.__class__ is CatchAll]
        if len(catchalls) > 1:
            errors.append(_err("SAP-All", catchalls[1], "a pattern association list has "
                               f"{len(catchalls)} catch-alls, but matching takes at most one "
                               "(MultipleCatchAll)"))
    return errors


def check_association(st: CheckState, a: Association, f: AssocForm) -> list[Diagnostic]:
    """Check one association entry against its list's form."""
    if a.__class__ is MapEntry:
        errors: list[Diagnostic] = []
        if a.key not in st.v and a.key not in st.bound:
            errors.append(_err("SA-Map", a, f"association key {a.key} does not occur outside an "
                               "association (KeyNotElsewhere)"))
        errors.extend(_check_key(st, a, f.key_sort))
        names = non_assoc_vars(a.value)
        if not names <= st.v:
            st = CheckState(st.gamma, st.delta, st.v | names, st.tc, st.bound)
        errors.extend(check_term(st, a.value, f.value_sort))
        return errors

    if a.__class__ is NotKey:
        if st.tc is not IN_PAT:
            return [_err("SAP-Not", a, "absence entries are only allowed in patterns "
                         "(NotKeyInContraction)")]
        if a.key in st.bound or a.key in st.delta.pattern_vars:
            return _check_key(st, a, f.key_sort)
        # KeyNotElsewhere: the matcher resolves an absence key through a
        # variable bound anywhere in the pattern, after every list is matched.
        return [_err("SAP-Not", a, f"absence key {a.key} is not a variable of the pattern "
                     "(KeyNotElsewhere)"), *_check_key(st, a, f.key_sort)]

    # Catch-all meta-variable.
    mf = st.delta.meta.get(a.meta)
    tag = "SAP-All" if st.tc is IN_PAT else "SAC-All"
    if mf is None:
        return [_err(tag, a, f"meta-variable {a.meta} has no meta-form")]
    if mf.result.__class__ is not AssocForm:
        return [_err(tag, a, f"meta-variable {a.meta} is not a catch-all")]
    if mf.result is not f and mf.result != f:
        return [_err(tag, a, f"catch-all {a.meta} covers {render(mf.result)}, expected {render(f)}")]
    return _check_meta_args(st, a, mf, tag)


def _check_key(st: CheckState, a: MapEntry | NotKey, key_sort: Sort) -> list[Diagnostic]:
    """A key is a variable of the key sort that always needs the 'variable'
    declaration (see ``_check_variable``)."""
    tag = "SMP-Var" if st.tc is IN_PAT else "SMC-Var"
    return _check_variable(st, Var(a.key, a.span, a.source), key_sort, tag, need_hasvar=True,
                           key=True)


# ---------------------------------------------------------------------------
# Declarations and scripts


def check_declaration(gamma: GlobalEnv, d: DataDecl | SchemeDecl | VariableDecl) -> list[Diagnostic]:
    """Check a data, scheme or variable declaration of ``gamma``'s script;
    ``check_script`` checks rules.  ``build_global_env`` reports a conflicting
    signature, and its sorts need checking only if it met a sort at two ranks.
    SD-Fun (a scheme is in ``gamma.fun``) and SD-Var's premise that a named
    sort is in ``gamma.hasvar`` hold by construction of ``gamma``: it records
    every scheme and every named 'variable' sort of the script."""
    errors: list[Diagnostic] = []
    if gamma.misranked:
        for s in decl_sorts(d):
            errors.extend(check_sort(gamma, s))
    if d.__class__ is DataDecl:
        if d.name in gamma.fun:
            errors.append(_err("SD-Data", d, f"constructor {d.name} is declared as data "
                               "but is a scheme"))
    elif d.__class__ is VariableDecl and d.sort.__class__ is not SortCons:
        errors.append(_err("SD-Var", d, "a 'variable' declaration needs a named sort"))
    return errors


def _check_rule(gamma: GlobalEnv, d: RuleDecl, delta: RuleEnv,
                env_errors: list[Diagnostic]) -> list[Diagnostic]:
    """Check a rule against its inferred environment and inference diagnostics."""
    errors = check_sort(gamma, d.sort) if gamma.misranked else []
    if env_errors:
        return errors + env_errors
    errors.extend(check_pattern(CheckState(gamma, delta, delta.lhs_keys, IN_PAT, {}), d.lhs, d.sort))
    errors.extend(check_term(CheckState(gamma, delta, delta.rhs_keys, CON, {}), d.rhs, d.sort))
    return errors


def check_script(script: Script) -> ScriptCheck:
    """Build the global environment and check every declaration.

    All diagnostics are collected; the per-rule environments come back in
    declaration order regardless of success.
    """
    gamma, errors = build_global_env(script)
    rule_envs: list[RuleEnv] = []
    for d in script.declarations:
        if d.__class__ is RuleDecl:
            delta, env_errors = infer_rule_env(gamma, d)
            rule_envs.append(delta)
            errors.extend(_check_rule(gamma, d, delta, env_errors))
        else:
            errors.extend(check_declaration(gamma, d))
    return ScriptCheck(gamma, rule_envs, errors)


# ---------------------------------------------------------------------------
# Ground subjects (inputs to normalization)


def check_ground_subject(gamma: GlobalEnv, t: Term) -> tuple[Sort | None, RuleEnv, list[Diagnostic]]:
    """Determine a ground term's sort and check it in contraction context.

    The sort is read off the head constructor's declaration.  The check
    sorts each free name itself, at the first position it meets the name
    at; a name first seen past a diagnostic that stops the check (an arity
    or binder-count mismatch, an absence entry) is sorted further on.
    KeyNotElsewhere is a formation condition on rule sides only: rewriting
    can drop a key's last other occurrence, so every name of the subject
    may stand as a key.  That ``all_idents(t)`` call also keeps the name
    sets that ``substitute``'s sharing guard reads.
    """
    if t.__class__ is not Construction:
        return None, RuleEnv(), [_err("SMC-Cons", t, "a subject term must be a declared "
                                      "construction")]
    sig = gamma.con.get(t.head)
    if sig is None:
        return None, RuleEnv(), [_err("SMC-Cons", t, f"constructor {t.head} is not declared")]
    sort = sig.result
    if _has_sort_vars(sort):
        return None, RuleEnv(), [_err("SMC-Cons", t, "cannot determine a ground sort for "
                                      f"{t.head}: its declared sort {render(sort)} is "
                                      "polymorphic")]
    st = CheckState(gamma, RuleEnv(), all_idents(t), CON, {})
    return sort, st.delta, check_term(st, t, sort)


def _has_sort_vars(s: Sort) -> bool:
    if s.__class__ is SortVar:
        return True
    return any(map(_has_sort_vars, s.args))
