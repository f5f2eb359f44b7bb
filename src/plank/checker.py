"""The sorting discipline for scripts, declarations, and rule terms.

Checking a rule term happens under one of two judgments, each a ``_Check``
walker that holds Γ, Δ and the judgment fixed over a whole rule side:

* a pattern, the left side of a rule (``SMP-*``, ``SAP-*``);
* a contraction, a rule's right side or a subject (``SMC-*``, ``SAC-*``).

Each walker names its constructions, meta-applications, variables and
catch-alls from its judgment's table, ``_PATTERN_TAGS`` or
``_CONTRACTION_TAGS``.  A pattern's root (``SMP-Fun``) and a substitution
argument, an immediate child of a contraction's meta-application
(``SMS-*``), are checked by ``_Check.pattern`` and ``_Check.substitute``,
called where they occur.

Every ``Diagnostic`` carries the tag of the violated rule or side condition
(``SMP-Meta``, ``SA-Map``, ...) so callers can pin the exact failure.  Each
check appends its diagnostics, in the order it meets them, to the one list
its caller passes in; a script's is the list ``build_global_env`` returned.
"""

from __future__ import annotations

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
    Node,
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


def check_sort(gamma: GlobalEnv, s: Sort, errors: list[Diagnostic]) -> None:
    """Sorts are well-formed when every constructor is used at its rank;
    ``build_global_env`` ranks every sort name of every declaration."""
    if s.__class__ is SortVar:
        return
    rank = gamma.rank[s.name]
    if rank != len(s.args):
        errors.append(_err("SS-Cons", s, f"sort {s.name} applied to {len(s.args)} argument(s) but "
                           f"has rank {rank}"))
    for a in s.args:
        check_sort(gamma, a, errors)


# ---------------------------------------------------------------------------
# Rule terms

# The construction, meta-application, variable and catch-all tags of each
# judgment.
_PATTERN_TAGS = ("SMP-Data", "SMP-Meta", "SMP-Var", "SAP-All")
_CONTRACTION_TAGS = ("SMC-Cons", "SMC-Meta", "SMC-Var", "SAC-All")


class _Check:
    """One judgment, a pattern's if ``in_pat`` and a contraction's
    otherwise, over one rule side or ground subject.  Each diagnostic is
    appended to ``errors``, the caller's list, in the order the walk meets
    it; a diagnostic stops the check of its node.

    Its methods take what changes during the walk.  ``v`` is the set of
    names usable as association keys: on a rule side, its free variables
    outside association lists (KeyNotElsewhere, which keeps pattern keys
    resolvable); on a ground subject, every name of it.  ``bound`` maps each
    binder in scope to its sort, an inner binder replacing an outer one of
    the same name; ``delta.var`` gives the sort of every other name:
    inferred beforehand on a rule side, and filled by the check on a ground
    subject, where a name takes the sort of the first position the check
    meets it at.
    """

    def __init__(self, gamma: GlobalEnv, delta: RuleEnv, in_pat: bool, errors: list[Diagnostic]):
        self.gamma, self.delta, self.in_pat, self.errors = gamma, delta, in_pat, errors
        self.cons_tag, self.meta_tag, self.var_tag, self.all_tag = (
            _PATTERN_TAGS if in_pat else _CONTRACTION_TAGS)

    def fail(self, tag: str, at: Node, message: str) -> None:
        self.errors.append(_err(tag, at, message))

    def pattern(self, t: Term, expected: Sort, v: frozenset[Ident]) -> None:
        """SMP-Fun: a rule's pattern is a scheme construction."""
        if t.__class__ is not Construction:
            return self.fail("SMP-Fun", t, "a rule pattern must be a scheme construction")
        if t.head not in self.gamma.fun:
            return self.fail("SMP-Fun", t, f"pattern head {t.head} is not a scheme")
        self.construction(t, expected, v, {}, "SMP-Fun")

    def term(self, t: Term, expected: Sort, v: frozenset[Ident], bound: dict[Ident, Sort]) -> None:
        """Check a term at the expected sort."""
        if t.__class__ is Construction:
            # SMP-Data: inside a pattern only data constructors are allowed.
            # Exception: at a sort with no data constructors at all (a pure
            # scheme signature) a scheme head is tolerated, since no data
            # pattern could exist there.
            if self.in_pat and t.head in self.gamma.fun:
                sort_name = expected.name if expected.__class__ is SortCons else None
                if sort_name in self.gamma.sorts_with_data:
                    return self.fail("SMP-Data", t, f"scheme {t.head} cannot appear inside a "
                                     f"pattern at sort {render(expected)}")
            return self.construction(t, expected, v, bound, self.cons_tag)
        if t.__class__ is MetaApp:
            return self.meta(t, expected, v, bound)
        if t.__class__ is not Var:
            return self.fail(self.var_tag, t, f"expected a variable, got {render(t)}")
        self.variable(t.name, t, expected, bound, self.var_tag)

    def construction(self, t: Construction, expected: Sort, v: frozenset[Ident],
                     bound: dict[Ident, Sort], tag: str) -> None:
        sig = self.gamma.con.get(t.head)
        if sig is None:
            return self.fail(tag, t, f"constructor {t.head} is not declared")
        forms = instantiated_forms(sig, expected)
        if forms is None:
            return self.fail(tag, t, f"construction {t.head} has sort {render(sig.result)}, which "
                             f"does not match the expected sort {render(expected)}")
        if len(t.args) != len(forms):
            return self.fail(tag, t, f"constructor {t.head} expects {len(forms)} argument(s), got "
                             f"{len(t.args)}")
        for p, f in zip(t.args, forms):
            self.piece(p, f, v, bound)

    def substitute(self, t: Term, expected: Sort, v: frozenset[Ident], bound: dict[Ident, Sort]
                   ) -> None:
        """SMS-*: a substitution argument of a contraction's meta-application."""
        if t.__class__ is Var:
            # SMS-Var places no syntactic-variable requirement on the sort.
            return self.variable(t.name, t, expected, bound, "SMS-Var", need_hasvar=False)
        tag = "SMS-Cons" if t.__class__ is Construction else "SMS-Meta"
        if expected.__class__ is not SortCons:
            return self.fail(tag, t, f"cannot substitute a non-variable at sort "
                             f"{render(expected)}")
        if expected.name in self.gamma.hasvar:
            return self.fail(tag, t, f"cannot substitute a non-variable at sort "
                             f"{render(expected)}, which admits syntactic variables")
        self.term(t, expected, v, bound)

    def meta(self, t: MetaApp, expected: Sort, v: frozenset[Ident], bound: dict[Ident, Sort]
             ) -> None:
        """A meta-application used as a term."""
        mf = self.delta.meta.get(t.meta)
        if mf is None:
            return self.fail(self.meta_tag, t, f"meta-variable {t.meta} has no meta-form")
        if mf.result.__class__ is AssocForm:
            return self.fail(self.meta_tag, t, f"catch-all meta-variable {t.meta} cannot be used "
                             "as a term")
        if mf.result is not expected and mf.result != expected:
            return self.fail(self.meta_tag, t, f"meta-variable {t.meta} produces "
                             f"{render(mf.result)}, expected {render(expected)}")
        self.meta_args(t, mf, v, bound, self.meta_tag)

    def meta_args(self, m: MetaApp | CatchAll, mf: MetaForm, v: frozenset[Ident],
                  bound: dict[Ident, Sort], tag: str) -> None:
        """Arguments of a meta-variable with meta-form ``mf``.

        In a pattern they are bound variables of the declared sorts, pairwise
        distinct except for a catch-all's; in a contraction they are
        substitution arguments.
        """
        if len(m.args) != len(mf.arg_sorts):
            return self.fail(tag, m, f"meta-variable {m.meta} takes {len(mf.arg_sorts)} "
                             f"argument(s), got {len(m.args)}")
        if not m.args:
            return
        if not self.in_pat:
            for a, s in zip(m.args, mf.arg_sorts):
                self.substitute(a, s, v, bound)
            return
        seen: set[Ident] = set()
        for a, s in zip(m.args, mf.arg_sorts):
            if a.__class__ is not Var:
                return self.fail(tag, m, f"pattern arguments of {m.meta} must be bound "
                                 f"variables, got {render(a)}")
            if a.name not in bound:
                return self.fail(tag, a, f"{a.name} is not bound in the enclosing pattern")
            have = bound[a.name]
            if have is not s and have != s:
                return self.fail(tag, a, f"argument {a.name} of {m.meta} has {render(have)}, "
                                 f"expected {render(s)}")
            if m.__class__ is MetaApp and a.name in seen:
                return self.fail(tag, a, f"arguments of {m.meta} must be pairwise distinct "
                                 "variables")
            seen.add(a.name)

    def variable(self, name: Ident, at: Node, expected: Sort, bound: dict[Ident, Sort], tag: str,
                 need_hasvar: bool = True, key: bool = False) -> None:
        """Check ``name`` at the expected sort; ``at`` is its variable or its entry."""
        have = bound.get(name) or self.delta.var.setdefault(name, expected)
        if have is not expected and have != expected:
            return self.fail(tag, at, f"variable {name} has sort {render(have)}, expected "
                             f"{render(expected)}")
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
                and name in bound
                and expected.__class__ is SortCons
                and expected.name not in self.gamma.sorts_with_data
            )
            if not waived and not (
                expected.__class__ is SortCons and expected.name in self.gamma.hasvar
            ):
                self.fail(tag, at, f"variable {name} occurs at sort {render(expected)}, which "
                          "has no 'variable' declaration")

    def piece(self, p: Piece, f: Form, v: frozenset[Ident], bound: dict[Ident, Sort]) -> None:
        """Check a construction argument against its declared form."""
        if p.__class__ is ScopePiece:
            if f.__class__ is not ScopeForm:
                return self.fail("SP-Bind", p, "scope argument where an association form is "
                                 "declared")
            if len(p.binders) != len(f.binder_sorts):
                return self.fail("SP-Bind", p, f"scope binds {len(p.binders)} variable(s) but the "
                                 f"form declares {len(f.binder_sorts)} (BinderArityMismatch)")
            if p.binders:
                bound = dict(bound)  # not ``bound | ...``: see the ``terms`` docstring
                bound.update(zip(p.binders, f.binder_sorts))
            return self.term(p.body, f.body_sort, v, bound)

        if f.__class__ is not AssocForm:
            return self.fail("SP-Assoc", p, "association argument where a scope form is declared")
        for e in p.entries:
            self.association(e, f, v, bound)
        if self.in_pat:
            # Which entries each catch-all would take is not determined.
            catchalls = [e for e in p.entries if e.__class__ is CatchAll]
            if len(catchalls) > 1:
                self.fail("SAP-All", catchalls[1], "a pattern association list has "
                          f"{len(catchalls)} catch-alls, but matching takes at most one "
                          "(MultipleCatchAll)")

    def association(self, a: Association, f: AssocForm, v: frozenset[Ident],
                    bound: dict[Ident, Sort]) -> None:
        """Check one association entry against its list's form.  A key is a
        variable of the key sort that always needs the 'variable'
        declaration (see ``variable``)."""
        if a.__class__ is MapEntry:
            if a.key not in v and a.key not in bound:
                self.fail("SA-Map", a, f"association key {a.key} does not occur outside an "
                          "association (KeyNotElsewhere)")
            self.variable(a.key, a, f.key_sort, bound, self.var_tag, key=True)
            return self.term(a.value, f.value_sort, v | non_assoc_vars(a.value), bound)

        if a.__class__ is NotKey:
            if not self.in_pat:
                return self.fail("SAP-Not", a, "absence entries are only allowed in patterns "
                                 "(NotKeyInContraction)")
            if a.key not in bound and a.key not in self.delta.pattern_vars:
                # KeyNotElsewhere: the matcher resolves an absence key through a
                # variable bound anywhere in the pattern, after every list is matched.
                self.fail("SAP-Not", a, f"absence key {a.key} is not a variable of the pattern "
                          "(KeyNotElsewhere)")
            return self.variable(a.key, a, f.key_sort, bound, self.var_tag, key=True)

        # Catch-all meta-variable.
        mf = self.delta.meta.get(a.meta)
        if mf is None:
            return self.fail(self.all_tag, a, f"meta-variable {a.meta} has no meta-form")
        if mf.result.__class__ is not AssocForm:
            return self.fail(self.all_tag, a, f"meta-variable {a.meta} is not a catch-all")
        if mf.result is not f and mf.result != f:
            return self.fail(self.all_tag, a, f"catch-all {a.meta} covers {render(mf.result)}, "
                             f"expected {render(f)}")
        self.meta_args(a, mf, v, bound, self.all_tag)


# ---------------------------------------------------------------------------
# Declarations and scripts


def check_declaration(gamma: GlobalEnv, d: DataDecl | SchemeDecl | VariableDecl,
                      errors: list[Diagnostic]) -> None:
    """Check a data, scheme or variable declaration of ``gamma``'s script,
    appending each diagnostic to ``errors``; ``check_script`` checks rules.
    ``build_global_env`` reports a conflicting signature, and its sorts need
    checking only if it met a sort at two ranks.  SD-Fun (a scheme is in
    ``gamma.fun``) and SD-Var's premise that a named sort is in
    ``gamma.hasvar`` hold by construction of ``gamma``: it records every
    scheme and every named 'variable' sort of the script."""
    if gamma.misranked:
        for s in decl_sorts(d):
            check_sort(gamma, s, errors)
    if d.__class__ is DataDecl:
        if d.name in gamma.fun:
            errors.append(_err("SD-Data", d, f"constructor {d.name} is declared as data "
                               "but is a scheme"))
    elif d.__class__ is VariableDecl and d.sort.__class__ is not SortCons:
        errors.append(_err("SD-Var", d, "a 'variable' declaration needs a named sort"))


def _check_rule(gamma: GlobalEnv, d: RuleDecl, delta: RuleEnv, env_errors: list[Diagnostic],
                errors: list[Diagnostic]) -> None:
    """Check a rule against its inferred environment and inference
    diagnostics, appending to ``errors`` its sort's diagnostics, then either
    ``env_errors`` or those of its pattern and then its contraction."""
    if gamma.misranked:
        check_sort(gamma, d.sort, errors)
    if env_errors:
        return errors.extend(env_errors)
    _Check(gamma, delta, True, errors).pattern(d.lhs, d.sort, delta.lhs_keys)
    _Check(gamma, delta, False, errors).term(d.rhs, d.sort, delta.rhs_keys, {})


def check_script(script: Script) -> ScriptCheck:
    """Build the global environment and check every declaration.

    All diagnostics are collected, in declaration order, in the list
    ``build_global_env`` returns; the per-rule environments come back in
    declaration order regardless of success.
    """
    gamma, errors = build_global_env(script)
    rule_envs: list[RuleEnv] = []
    for d in script.declarations:
        if d.__class__ is RuleDecl:
            delta, env_errors = infer_rule_env(gamma, d)
            rule_envs.append(delta)
            _check_rule(gamma, d, delta, env_errors, errors)
        else:
            check_declaration(gamma, d, errors)
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
    check = _Check(gamma, RuleEnv(), False, [])
    check.term(t, sort, all_idents(t), {})
    return sort, check.delta, check.errors


def _has_sort_vars(s: Sort) -> bool:
    if s.__class__ is SortVar:
        return True
    return any(map(_has_sort_vars, s.args))
