"""The sorting discipline for scripts, declarations, and rule terms.

Checking a rule term happens in one of four contexts:

* ``PAT``    -- the outermost pattern position (left side of a rule);
* ``IN_PAT`` -- inside a piece of the pattern;
* ``CON``    -- a contraction position (right side of a rule);
* ``SUB``    -- a substitution argument, i.e. an immediate child of a
  meta-application in a contraction.

Every ``Diagnostic`` carries the tag of the violated rule or side condition
(``SMP-Meta``, ``SA-Map``, ...) so callers can pin the exact failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .env import (
    ConSig,
    GlobalEnv,
    MetaForm,
    RuleEnv,
    build_global_env,
    decl_sorts,
    infer_rule_env,
    instantiated_forms,
    walk_sorts,
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
    VAR,
    Var,
    VariableDecl,
    _names,
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
    PAT = "Pat"
    IN_PAT = "InPat"
    CON = "Con"
    SUB = "Sub"


@dataclass(unsafe_hash=True, slots=True)
class CheckState:
    """Context threaded through term checking.

    ``v`` is the set of names usable as association keys: on a rule side,
    its free variables outside association lists (KeyNotElsewhere, which
    keeps pattern keys resolvable); on a ground subject, every name of it.
    ``bound`` maps each binder in scope to its sort, an inner binder
    replacing an outer one of the same name; ``delta.var`` gives the sort
    of every other name.  ``absent`` collects a pattern's absence entries
    whose key is no binder in scope, for the rule's check to look up among
    the pattern's variables once the whole pattern is known.
    """

    gamma: GlobalEnv
    delta: RuleEnv
    v: frozenset[Ident]
    tc: TermContext
    bound: dict[Ident, Sort]
    absent: list[NotKey]


@dataclass
class ScriptCheck:
    """Result of checking a whole script."""

    gamma: GlobalEnv
    rule_envs: list[RuleEnv]
    errors: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.errors


def _err(rule: str, node, message: str) -> Diagnostic:
    return Diagnostic(rule, getattr(node, "span", None), message)


# ---------------------------------------------------------------------------
# Sorts


def check_sort(gamma: GlobalEnv, s: Sort) -> list[Diagnostic]:
    """Sorts are well-formed when every constructor is used at its rank."""
    if isinstance(s, SortVar):
        return []
    errors: list[Diagnostic] = []
    rank = gamma.rank.get(s.name)
    if rank is None or rank != len(s.args):
        have = "unknown" if rank is None else str(rank)
        errors.append(_err(
            "SS-Cons", s,
            f"sort {s.name} applied to {len(s.args)} argument(s) but has rank {have}",
        ))
    for a in s.args:
        errors.extend(check_sort(gamma, a))
    return errors


# ---------------------------------------------------------------------------
# Terms


def _is_sort(x) -> bool:
    return isinstance(x, (SortCons, SortVar))


def _check_construction(st: CheckState, t: Construction, expected: Sort, tag: str,
                        piece_tc: TermContext) -> list[Diagnostic]:
    sig = st.gamma.con.get(t.head)
    if sig is None:
        return [_err(tag, t, f"constructor {t.head} is not declared")]
    forms = instantiated_forms(sig, expected)
    if forms is None:
        return [_err(
            tag, t,
            f"construction {t.head} has sort {render(sig.result)}, which does not "
            f"match the expected sort {render(expected)}",
        )]
    if len(t.args) != len(forms):
        return [_err(
            tag, t,
            f"constructor {t.head} expects {len(forms)} argument(s), got {len(t.args)}",
        )]
    errors: list[Diagnostic] = []
    inner = st if st.tc is piece_tc else CheckState(st.gamma, st.delta, st.v, piece_tc, st.bound,
                                                    st.absent)
    for p, f in zip(t.args, forms):
        errors.extend(check_piece(inner, p, f))
    return errors


def check_term(st: CheckState, t: Term, expected: Sort) -> list[Diagnostic]:
    """Check a term at the expected sort in the state's term context."""
    tc = st.tc

    if tc is TermContext.PAT:
        # SMP-Fun: the pattern top must be a scheme construction.
        if not isinstance(t, Construction):
            return [_err("SMP-Fun", t, "a rule pattern must be a scheme construction")]
        if t.head not in st.gamma.fun:
            return [_err("SMP-Fun", t, f"pattern head {t.head} is not a scheme")]
        return _check_construction(st, t, expected, "SMP-Fun", TermContext.IN_PAT)

    if tc is TermContext.IN_PAT:
        if isinstance(t, Construction):
            # SMP-Data: inside a pattern only data constructors are allowed.
            # Exception: at a sort with no data constructors at all (a pure
            # scheme signature) a scheme head is tolerated, since no data
            # pattern could exist there.
            if t.head in st.gamma.fun:
                sort_name = expected.name if isinstance(expected, SortCons) else None
                if sort_name in st.gamma.sorts_with_data:
                    return [_err(
                        "SMP-Data", t,
                        f"scheme {t.head} cannot appear inside a pattern at sort "
                        f"{render(expected)}",
                    )]
            return _check_construction(st, t, expected, "SMP-Data", TermContext.IN_PAT)
        if isinstance(t, MetaApp):
            return _check_term_meta(st, t, expected, "SMP-Meta")
        return _check_variable(st, t, expected, "SMP-Var", need_hasvar=True)

    if tc is TermContext.CON:
        if isinstance(t, Construction):
            return _check_construction(st, t, expected, "SMC-Cons", TermContext.CON)
        if isinstance(t, MetaApp):
            return _check_term_meta(st, t, expected, "SMC-Meta")
        return _check_variable(st, t, expected, "SMC-Var", need_hasvar=True)

    # SUB: substitution arguments of a contraction meta-application.
    if isinstance(t, Var):
        # SMS-Var places no syntactic-variable requirement on the sort.
        return _check_variable(st, t, expected, "SMS-Var", need_hasvar=False)
    tag = "SMS-Cons" if isinstance(t, Construction) else "SMS-Meta"
    if not isinstance(expected, SortCons):
        return [_err(
            tag, t,
            f"cannot substitute a non-variable at sort {render(expected)}",
        )]
    if expected.name in st.gamma.hasvar:
        return [_err(
            tag, t,
            f"cannot substitute a non-variable at sort {render(expected)}, which "
            "admits syntactic variables",
        )]
    return check_term(CheckState(st.gamma, st.delta, st.v, TermContext.CON, st.bound, st.absent),
                      t, expected)


def _check_term_meta(st: CheckState, t: MetaApp, expected: Sort, tag: str
                     ) -> list[Diagnostic]:
    """A meta-application used as a term, in a pattern or a contraction."""
    mf = st.delta.meta.get(t.meta)
    if mf is None:
        return [_err(tag, t, f"meta-variable {t.meta} has no meta-form")]
    if not _is_sort(mf.result):
        return [_err(tag, t, f"catch-all meta-variable {t.meta} cannot be used as a term")]
    if mf.result != expected:
        return [_err(
            tag, t,
            f"meta-variable {t.meta} produces {render(mf.result)}, expected "
            f"{render(expected)}",
        )]
    return _check_meta_args(st, t, mf, tag)


def _check_meta_args(st: CheckState, m: MetaApp | CatchAll, mf: MetaForm, tag: str
                     ) -> list[Diagnostic]:
    """Arguments of a meta-variable with meta-form ``mf``.

    In a pattern they are bound variables of the declared sorts, pairwise
    distinct except for a catch-all's; in a contraction they are
    substitution arguments.
    """
    if len(m.args) != len(mf.arg_sorts):
        return [_err(
            tag, m,
            f"meta-variable {m.meta} takes {len(mf.arg_sorts)} argument(s), got {len(m.args)}",
        )]
    if st.tc is not TermContext.IN_PAT:
        sub = CheckState(st.gamma, st.delta, st.v, TermContext.SUB, st.bound, st.absent)
        errors: list[Diagnostic] = []
        for a, s in zip(m.args, mf.arg_sorts):
            errors.extend(check_term(sub, a, s))
        return errors
    seen: set[Ident] = set()
    for a, s in zip(m.args, mf.arg_sorts):
        if not isinstance(a, Var):
            return [_err(
                tag, m,
                f"pattern arguments of {m.meta} must be bound variables, got {render(a)}",
            )]
        if a.name not in st.bound:
            return [_err(tag, a, f"{a.name} is not bound in the enclosing pattern")]
        have = st.bound[a.name]
        if have != s:
            return [_err(
                tag, a, f"argument {a.name} of {m.meta} has {render(have)}, expected {render(s)}",
            )]
        if isinstance(m, MetaApp) and a.name in seen:
            return [_err(tag, a, f"arguments of {m.meta} must be pairwise distinct variables")]
        seen.add(a.name)
    return []


def _check_variable(st: CheckState, t: Term, expected: Sort, tag: str,
                    need_hasvar: bool, key: bool = False) -> list[Diagnostic]:
    if not isinstance(t, Var):
        return [_err(tag, t, f"expected a variable, got {render(t)}")]
    have = st.bound.get(t.name) or st.delta.var.get(t.name)
    if have is None:
        return [_err(tag, t, f"variable {t.name} has no sort in this rule")]
    if have != expected:
        return [_err(
            tag, t,
            f"variable {t.name} has sort {render(have)}, expected {render(expected)}",
        )]
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
            and isinstance(expected, SortCons)
            and expected.name not in st.gamma.sorts_with_data
        )
        if not waived and not (
            isinstance(expected, SortCons) and expected.name in st.gamma.hasvar
        ):
            return [_err(
                tag, t,
                f"variable {t.name} occurs at sort {render(expected)}, which has no "
                "'variable' declaration",
            )]
    return []


# ---------------------------------------------------------------------------
# Pieces and associations


def check_piece(st: CheckState, p: Piece, f: Form) -> list[Diagnostic]:
    """Check a construction argument against its declared form."""
    if isinstance(p, ScopePiece):
        if not isinstance(f, ScopeForm):
            return [_err("SP-Bind", p, "scope argument where an association form is declared")]
        if len(p.binders) != len(f.binder_sorts):
            return [_err(
                "SP-Bind", p,
                f"scope binds {len(p.binders)} variable(s) but the form declares "
                f"{len(f.binder_sorts)} (BinderArityMismatch)",
            )]
        inner = CheckState(st.gamma, st.delta, st.v, st.tc,
                           st.bound | dict(zip(p.binders, f.binder_sorts)), st.absent)
        return check_term(inner, p.body, f.body_sort)

    if not isinstance(f, AssocForm):
        return [_err("SP-Assoc", p, "association argument where a scope form is declared")]
    errors: list[Diagnostic] = []
    for e in p.entries:
        errors.extend(check_association(st, e, f.key_sort, f.value_sort))
    if st.tc is TermContext.IN_PAT:
        # Which entries each catch-all would take is not determined.
        catchalls = [e for e in p.entries if isinstance(e, CatchAll)]
        if len(catchalls) > 1:
            errors.append(_err(
                "SAP-All", catchalls[1],
                f"a pattern association list has {len(catchalls)} catch-alls, but "
                "matching takes at most one (MultipleCatchAll)",
            ))
    return errors


def check_association(st: CheckState, a: Association, key_sort: Sort,
                      val_sort: Sort) -> list[Diagnostic]:
    """Check one association entry at the given key and value sorts."""
    if isinstance(a, MapEntry):
        errors: list[Diagnostic] = []
        if a.key not in st.v and a.key not in st.bound:
            errors.append(_err(
                "SA-Map", a,
                f"association key {a.key} does not occur outside an association "
                "(KeyNotElsewhere)",
            ))
        errors.extend(_check_key(st, a, key_sort))
        extended = CheckState(st.gamma, st.delta, st.v | non_assoc_vars(a.value), st.tc, st.bound,
                              st.absent)
        errors.extend(check_term(extended, a.value, val_sort))
        return errors

    if isinstance(a, NotKey):
        if st.tc is not TermContext.IN_PAT:
            return [_err(
                "SAP-Not", a,
                "absence entries are only allowed in patterns (NotKeyInContraction)",
            )]
        if a.key not in st.bound:
            st.absent.append(a)
        return _check_key(st, a, key_sort)

    # Catch-all meta-variable.
    mf = st.delta.meta.get(a.meta)
    tag = "SAP-All" if st.tc is TermContext.IN_PAT else "SAC-All"
    if mf is None:
        return [_err(tag, a, f"meta-variable {a.meta} has no meta-form")]
    if not isinstance(mf.result, AssocForm):
        return [_err(tag, a, f"meta-variable {a.meta} is not a catch-all")]
    if mf.result != AssocForm(key_sort, val_sort):
        return [_err(
            tag, a,
            f"catch-all {a.meta} covers {render(mf.result)}, expected "
            f"{{{render(key_sort)}:{render(val_sort)}}}",
        )]
    return _check_meta_args(st, a, mf, tag)


def _check_key(st: CheckState, a: MapEntry | NotKey, key_sort: Sort) -> list[Diagnostic]:
    """A key is a variable of the key sort that always needs the 'variable'
    declaration (see ``_check_variable``)."""
    tag = "SMP-Var" if st.tc is TermContext.IN_PAT else "SMC-Var"
    return _check_variable(st, Var(a.key, span=a.span), key_sort, tag, need_hasvar=True,
                           key=True)


# ---------------------------------------------------------------------------
# Declarations and scripts


def check_declaration(gamma: GlobalEnv, d: DataDecl | SchemeDecl | VariableDecl) -> list[Diagnostic]:
    """Check a data, scheme or variable declaration; ``check_script`` checks rules."""
    errors: list[Diagnostic] = []
    for s in decl_sorts(d):
        errors.extend(check_sort(gamma, s))

    if isinstance(d, DataDecl):
        sig = gamma.con.get(d.name)
        if sig is None or sig != ConSig(d.sort, d.forms):
            errors.append(_err(
                "SD-Data", d, f"data constructor {d.name} is not recorded with this signature"
            ))
        if d.name in gamma.fun:
            errors.append(_err(
                "SD-Data", d, f"constructor {d.name} is declared as data but is a scheme"
            ))
        return errors

    if isinstance(d, SchemeDecl):
        sig = gamma.con.get(d.name)
        if sig is None or sig != ConSig(d.sort, d.forms):
            errors.append(_err(
                "SD-Fun", d, f"scheme {d.name} is not recorded with this signature"
            ))
        elif d.name not in gamma.fun:
            errors.append(_err("SD-Fun", d, f"scheme {d.name} is not in the scheme set"))
        return errors

    if not isinstance(d.sort, SortCons):
        errors.append(_err(
            "SD-Var", d, "a 'variable' declaration needs a named sort"
        ))
    elif d.sort.name not in gamma.hasvar:
        errors.append(_err(
            "SD-Var", d, f"sort {d.sort.name} is not recorded as having variables"
        ))
    return errors


def _check_rule(gamma: GlobalEnv, d: RuleDecl, delta: RuleEnv,
                env_errors: list[Diagnostic]) -> list[Diagnostic]:
    """Check a rule against its inferred environment and inference diagnostics."""
    errors = check_sort(gamma, d.sort)
    if env_errors:
        return errors + env_errors
    lhs_state = CheckState(gamma, delta, frozenset(non_assoc_vars(d.lhs)), TermContext.PAT, {}, [])
    errors.extend(check_term(lhs_state, d.lhs, d.sort))
    if lhs_state.absent:
        # KeyNotElsewhere for absence keys: the matcher resolves one through a
        # variable bound anywhere in the pattern, after every list is matched.
        pvars = _names(d.lhs, VAR, True, True, frozenset(), set())
        for a in lhs_state.absent:
            if a.key not in pvars:
                errors.append(_err("SAP-Not", a, f"absence key {a.key} is not a variable of "
                                   "the pattern (KeyNotElsewhere)"))
    rhs_state = CheckState(gamma, delta, frozenset(non_assoc_vars(d.rhs)), TermContext.CON, {}, [])
    errors.extend(check_term(rhs_state, d.rhs, d.sort))
    return errors


def check_script(script: Script) -> ScriptCheck:
    """Build the global environment and check every declaration.

    All diagnostics are collected; the per-rule environments come back in
    declaration order regardless of success.
    """
    gamma, errors = build_global_env(script)
    rule_envs: list[RuleEnv] = []
    for d in script.declarations:
        if isinstance(d, RuleDecl):
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

    The sort is read off the head constructor's declaration; free variables
    receive the sorts their positions demand, by the walk that infers rule
    environments, run as on a right-hand side with no meta-forms.
    KeyNotElsewhere is a formation condition on rule sides only: rewriting
    can drop a key's last other occurrence, so every name of the subject
    may stand as a key.
    """
    if not isinstance(t, Construction):
        return None, RuleEnv(), [_err(
            "SMC-Cons", t, "a subject term must be a declared construction"
        )]
    sig = gamma.con.get(t.head)
    if sig is None:
        return None, RuleEnv(), [_err("SMC-Cons", t, f"constructor {t.head} is not declared")]
    sort = sig.result
    if _has_sort_vars(sort):
        return None, RuleEnv(), [_err(
            "SMC-Cons", t,
            f"cannot determine a ground sort for {t.head}: its declared sort "
            f"{render(sort)} is polymorphic",
        )]
    delta = RuleEnv()
    walk_sorts(gamma, t, sort, delta, {}, in_lhs=False)
    st = CheckState(gamma, delta, all_idents(t), TermContext.CON, {}, [])
    return sort, delta, check_term(st, t, sort)


def _has_sort_vars(s: Sort) -> bool:
    if isinstance(s, SortVar):
        return True
    return any(map(_has_sort_vars, s.args))
