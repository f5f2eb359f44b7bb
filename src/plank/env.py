"""Global and per-rule sort environments.

The global environment records, for a whole script, the rank of every sort
constructor, the sorts that admit syntactic variables, each term
constructor's signature, and which constructors are schemes.  The rule
environment assigns a sort to every variable of a rule and a meta-form to
every meta-variable; it is inferred from the rule text in a single pass
directed by first occurrences, which also collects the names of each side
that the rule's check reads.

The sort walks take their state as arguments, or as one ``_SortWalk``
object whose methods recurse, so no call builds a reference cycle.
"""

from __future__ import annotations

from itertools import repeat

from .terms import (
    AssocForm,
    AssocPiece,
    CatchAll,
    DataDecl,
    Declaration,
    Diagnostic,
    Form,
    Ident,
    META,
    MapEntry,
    MetaApp,
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
    _Record,
    _err,
    _names,
    render,
)

__all__ = [
    "ConSig",
    "GlobalEnv",
    "MetaForm",
    "RuleEnv",
    "build_global_env",
    "infer_rule_env",
]


class ConSig(_Record):
    """Declared signature of a term constructor: result sort and argument forms."""

    __slots__ = _fields = ("result", "forms")

    def __init__(self, result: Sort, forms: tuple[Form, ...]):
        self.result = result
        self.forms = forms


class GlobalEnv(_Record):
    """Sort information assembled from a script's declarations.

    rank maps each sort constructor to its arity (fixed at the first
    occurrence in declaration order), and misranked holds those used at
    another arity too; hasvar holds the sort names declared ``variable``; con
    maps term constructors to signatures; fun is the set of scheme
    constructors; sorts_with_data holds the result sort names of the
    constructors in con that are not schemes.
    """

    __slots__ = _fields = ("rank", "misranked", "hasvar", "con", "fun", "sorts_with_data")
    __hash__ = None

    def __init__(self):
        self.rank: dict[Ident, int] = {}
        self.misranked: set[Ident] = set()
        self.hasvar: set[Ident] = set()
        self.con: dict[Ident, ConSig] = {}
        self.fun: set[Ident] = set()
        self.sorts_with_data: set[Ident] = set()


class MetaForm(_Record):
    """A meta-variable's signature: argument sorts and a result.

    The result is a plain sort for ordinary meta-variables or an AssocForm
    for catch-all meta-variables that stand for a whole association list.
    """

    __slots__ = _fields = ("arg_sorts", "result")

    def __init__(self, arg_sorts: tuple[Sort, ...], result: Sort | AssocForm):
        self.arg_sorts = arg_sorts
        self.result = result

    def __str__(self) -> str:
        args = ", ".join(render(s) for s in self.arg_sorts)
        return f"({args}) => {render(self.result)}"


# The one empty name set that rule environments share, as each set kept
# for the run costs some 200 bytes.
_NO_NAMES: frozenset[Ident] = frozenset()


class RuleEnv(_Record):
    """Per-rule environment: variable sorts and meta-variable meta-forms; for
    the rule's check, also each side's free variables outside association
    lists (``lhs_keys``, ``rhs_keys``) and the pattern's anywhere."""

    __slots__ = _fields = ("var", "meta", "lhs_keys", "rhs_keys", "pattern_vars")
    __hash__ = None

    def __init__(self, var: dict[Ident, Sort] | None = None,
                 meta: dict[Ident, MetaForm] | None = None):
        self.var = {} if var is None else var
        self.meta = {} if meta is None else meta
        self.lhs_keys: frozenset[Ident] = _NO_NAMES
        self.rhs_keys: frozenset[Ident] = _NO_NAMES
        self.pattern_vars: frozenset[Ident] = _NO_NAMES


# ---------------------------------------------------------------------------
# Sort instantiation


def match_sort(declared: Sort, expected: Sort) -> dict[Ident, Sort] | None:
    """Match a declared sort against an expected sort.

    Sort variables on the declared side are assignable parameters; everything
    in the expected sort is rigid.  Returns the assignment or None.
    """
    out: dict[Ident, Sort] = {}
    return out if _match_sort(declared, expected, out) else None


def _match_sort(d: Sort, e: Sort, out: dict[Ident, Sort]) -> bool:
    if d.__class__ is SortVar:
        seen = out.get(d.name)
        if seen is None:
            out[d.name] = e
            return True
        return seen == e
    if e.__class__ is SortCons and d.name == e.name and len(d.args) == len(e.args):
        return all(map(_match_sort, d.args, e.args, repeat(out)))
    return False


def apply_sort_subst(s: Sort, subst: dict[Ident, Sort]) -> Sort:
    if s.__class__ is SortVar:
        return subst.get(s.name, s)
    return SortCons(s.name, tuple(map(apply_sort_subst, s.args, repeat(subst))), s.span,
                    s.source)


def apply_form_subst(f: Form, subst: dict[Ident, Sort]) -> Form:
    if f.__class__ is AssocForm:
        return AssocForm(
            apply_sort_subst(f.key_sort, subst), apply_sort_subst(f.value_sort, subst)
        )
    return ScopeForm(
        tuple(apply_sort_subst(b, subst) for b in f.binder_sorts),
        apply_sort_subst(f.body_sort, subst),
    )


def instantiated_forms(sig: ConSig, expected: Sort) -> tuple[Form, ...] | None:
    """A constructor's argument forms at an expected result sort, or None
    when its declared result sort does not match."""
    # The identity substitution: the declared forms as they are.
    if sig.result is expected or sig.result == expected:
        return sig.forms
    subst = match_sort(sig.result, expected)
    if subst is None:
        return None
    return tuple(apply_form_subst(f, subst) for f in sig.forms)


# ---------------------------------------------------------------------------
# Global environment assembly


def decl_sorts(d: Declaration) -> list[Sort]:
    """Every sort written in a declaration: its own and its forms'."""
    sorts = [d.sort]
    if d.__class__ in (DataDecl, SchemeDecl):
        for f in d.forms:
            if f.__class__ is ScopeForm:
                sorts.extend(f.binder_sorts)
                sorts.append(f.body_sort)
            else:
                sorts.extend([f.key_sort, f.value_sort])
    return sorts


def _record_ranks(gamma: GlobalEnv, s: Sort) -> None:
    # First occurrence fixes the rank; a later use at another arity is noted
    # in ``misranked`` and reported by the sort checker, not here.
    if s.__class__ is SortCons:
        n = len(s.args)
        if gamma.rank.setdefault(s.name, n) != n:
            gamma.misranked.add(s.name)
        for a in s.args:
            _record_ranks(gamma, a)


def build_global_env(script: Script) -> tuple[GlobalEnv, list[Diagnostic]]:
    """Assemble the global environment from a script.

    Identical re-declarations are idempotent; conflicting ones produce
    DuplicateConstructor.  Data declarations whose result sort parameters are
    not distinct sort variables produce NonVariableSortParameter.  Rank
    consistency of sort uses is left to the sort checker.
    """
    gamma = GlobalEnv()
    errors: list[Diagnostic] = []

    for d in script.declarations:
        for s in decl_sorts(d):
            _record_ranks(gamma, s)

        if d.__class__ in (DataDecl, SchemeDecl):
            sig = ConSig(d.sort, d.forms)
            if d.__class__ is DataDecl:
                if d.sort.__class__ is not SortCons:
                    errors.append(_err("NonVariableSortParameter", d,
                                       f"data constructor {d.name} needs a named result sort"))
                elif (len({a.name for a in d.sort.args if a.__class__ is SortVar})
                      != len(d.sort.args)):
                    errors.append(_err("NonVariableSortParameter", d,
                                       f"result sort parameters of data constructor {d.name} "
                                       "must be distinct sort variables"))
            prev = gamma.con.get(d.name)
            if prev is None:
                gamma.con[d.name] = sig
            elif prev != sig:
                errors.append(_err("DuplicateConstructor", d, f"constructor {d.name} already "
                                   "declared with a different signature"))
            if d.__class__ is SchemeDecl:
                gamma.fun.add(d.name)
        elif d.__class__ is VariableDecl:
            if d.sort.__class__ is SortCons:
                gamma.hasvar.add(d.sort.name)
            # a sort-variable subject is rejected by the checker (SD-Var)

    gamma.sorts_with_data = {
        sig.result.name for name, sig in gamma.con.items()
        if name not in gamma.fun and sig.result.__class__ is SortCons
    }
    return gamma, errors


# ---------------------------------------------------------------------------
# Rule environment inference


def infer_rule_env(gamma: GlobalEnv, rule: RuleDecl) -> tuple[RuleEnv, list[Diagnostic]]:
    """Infer the rule environment by one traversal of each side.

    Free pattern variables take the sort demanded by their first position;
    binder variables take their sorts from the enclosing constructor's
    declared form, within their scope only.  A name bound somewhere but
    never free gets its first binder's sort; where a name is both, the free
    variable's sort wins.  A meta-variable's meta-form is read off its first
    left-hand occurrence.  Later occurrences (either side) must demand a
    consistent meta-form or MetaFormConflict results; meta-variables used
    only on the right-hand side yield UnboundMetaOnRhs.  The traversal also
    collects each side's meta-variables and free variables (``_SortWalk``).
    """
    delta = RuleEnv()
    binders: dict[Ident, Sort] = {}
    errors: list[Diagnostic] = []
    lhs = _SortWalk(gamma, delta, binders, errors, rule.lhs, rule.sort, True)
    rhs = _SortWalk(gamma, delta, binders, errors, rule.rhs, rule.sort, False)
    for b, s in binders.items():
        delta.var.setdefault(b, s)
    for m in sorted(rhs.metas - lhs.metas):
        errors.append(_err("UnboundMetaOnRhs", rule, f"meta-variable {m} occurs in the "
                           "contraction but not in the pattern"))
    delta.lhs_keys = frozenset(lhs.outside) or _NO_NAMES
    delta.rhs_keys = frozenset(rhs.outside) or _NO_NAMES
    delta.pattern_vars = frozenset(lhs.outside | lhs.inside) or _NO_NAMES
    return delta, errors


class _SortWalk:
    """One sort-directed walk of a rule side ``t`` at ``expected``, run when
    made; tests also run it on ground subjects as a reference.  ``scope``
    maps the binders in scope to their sorts and is passed down the descent.

    A free variable or key gets the sort its first position demands, in
    ``delta.var``.  A binder's sort holds inside its scope, where an inner
    binder shadows an outer one and hides free variables of its name; the
    first sort seen for each binder name also goes to ``binders``.  On the
    left-hand side a meta-application records its meta-form in
    ``delta.meta``; elsewhere it must agree with the recorded one, or an
    error is appended to ``errors``, the list both walks of a rule share, in
    the order the walks meet them.  The walk also collects names as ``_names``
    would: meta-variables in ``metas``, free variables in ``out``, which is
    ``outside`` or ``inside`` association lists, or a set thrown away under a
    scope whose extra binders ``scope`` lacks.  Where the walk does not
    descend, ``skip`` runs ``_names`` instead.
    """

    def __init__(self, gamma: GlobalEnv, delta: RuleEnv, binders: dict[Ident, Sort],
                 errors: list[Diagnostic], t: Term, expected: Sort, in_lhs: bool):
        self.gamma, self.delta, self.binders, self.in_lhs = gamma, delta, binders, in_lhs
        self.errors = errors
        self.metas, self.outside, self.inside = set(), set(), set()
        self.walk(t, expected, {}, self.outside)

    def skip(self, parts: tuple, scope: dict[Ident, Sort], out: set[Ident]) -> None:
        # A variable, such as a pattern meta-variable's argument, needs no walk.
        for p in parts:
            if p.__class__ is Var:
                if p.name not in scope:
                    out.add(p.name)
                continue
            bound = frozenset(scope)
            _names(p, META, True, bound, self.metas)
            _names(p, VAR, True, bound, self.inside if out is self.outside else out)
            if out is self.outside:
                _names(p, VAR, False, bound, out)

    def readable_form(self, m: MetaApp | CatchAll, result: Sort | AssocForm,
                      scope: dict[Ident, Sort]) -> MetaForm | None:
        # The meta-form an lhs occurrence forces, or None when some argument
        # is not a variable with a known sort (left to the checker).
        arg_sorts: list[Sort] = []
        for a in m.args:
            s = None
            if a.__class__ is Var:
                s = scope.get(a.name) or self.delta.var.get(a.name)
            if s is None:
                return None
            arg_sorts.append(s)
        return MetaForm(tuple(arg_sorts), result)

    def walk_meta(self, m: MetaApp | CatchAll, result: Sort | AssocForm,
                  scope: dict[Ident, Sort], out: set[Ident]) -> None:
        # On the lhs the full meta-form is forced; on the rhs only the arity
        # and result are demanded (argument sorts flow from the meta-form).
        self.metas.add(m.meta)
        seen = self.delta.meta.get(m.meta)
        if m.args and (self.in_lhs or seen is None or len(m.args) != len(seen.arg_sorts)):
            self.skip(m.args, scope, out)
        if self.in_lhs:
            form = self.readable_form(m, result, scope)
            if seen is None:
                if form is not None:
                    self.delta.meta[m.meta] = form
            elif form is not None and form != seen:
                # Only readable occurrences feed conflict detection.
                self.errors.append(_err("MetaFormConflict", m, f"meta-variable {m.meta} "
                                        f"used as {form} but earlier as {seen}"))
            return
        if seen is None:
            return
        have = seen.result
        if len(m.args) != len(seen.arg_sorts) or (result is not have and result != have):
            self.errors.append(_err("MetaFormConflict", m, f"meta-variable {m.meta} used with "
                                    f"{len(m.args)} argument(s) at {render(result)} but its "
                                    f"meta-form is {seen}"))
        if len(m.args) == len(seen.arg_sorts):
            for a, s in zip(m.args, seen.arg_sorts):
                self.walk(a, s, scope, out)

    def walk(self, x: Term, expected: Sort, scope: dict[Ident, Sort], out: set[Ident]) -> None:
        if x.__class__ is Var:
            if x.name not in scope:
                self.delta.var.setdefault(x.name, expected)
                out.add(x.name)
            return
        if x.__class__ is MetaApp:
            self.walk_meta(x, expected, scope, out)
            return
        sig = self.gamma.con.get(x.head)
        forms = instantiated_forms(sig, expected) if sig is not None else None
        if forms is None:
            self.skip(x.args, scope, out)
            return
        if len(x.args) > len(forms):
            self.skip(x.args[len(forms):], scope, out)
        for piece, form in zip(x.args, forms):
            if piece.__class__ is ScopePiece and form.__class__ is ScopeForm:
                inner, into = scope, out
                if piece.binders:
                    inner = dict(scope)
                    for b, s in zip(piece.binders, form.binder_sorts):
                        inner[b] = s
                        self.binders.setdefault(b, s)
                    if len(piece.binders) > len(form.binder_sorts):
                        self.skip((piece,), scope, out)
                        into = set()
                self.walk(piece.body, form.body_sort, inner, into)
            elif piece.__class__ is AssocPiece and form.__class__ is AssocForm:
                into = self.inside if out is self.outside else out
                for e in piece.entries:
                    if e.__class__ is CatchAll:
                        self.walk_meta(e, form, scope, into)
                        continue
                    if e.key not in scope:
                        self.delta.var.setdefault(e.key, form.key_sort)
                    if e.__class__ is MapEntry:
                        self.walk(e.value, form.value_sort, scope, into)
            else:
                self.skip((piece,), scope, out)
