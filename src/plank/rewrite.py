"""Higher-order matching, valuations, contraction, and normalization.

Matching follows the classic pattern discipline: a pattern meta-application
``#m(w1, ..., wn)`` matches a subject fragment only when every binder of the
enclosing scope chain that occurs in the fragment is among the ``wi``
(absence of a binder argument rules out fragments using that binder), and it
binds ``#m`` to the abstraction of the fragment over those binders.  A
catch-all ``#e(w1, ..., wn)`` is bound the same way, to the abstraction of
the association list of the entries it captured, as a meta-variable of a
combinatory reduction system stands for one abstraction.
Contraction then instantiates a rule's right side: a meta-application or
catch-all substitutes its (contracted) arguments for the abstraction
parameters, variables pass through the valuation, and a catch-all's
entries are spliced into the list it stands in.

Substitution (``_subst``) and contraction (``_inst``) are each one function
that dispatches once on a node's class, and a node's children go through
``map``, so a node costs one Python frame.  Substitution returns a
construction itself, not a copy, when the name set the construction keeps
shares no name with the substituted names or with any replacement's
names: then nothing in it is replaced and none of its binders is renamed,
so the copy would be ``==`` to it, binder names included, and every
output renders byte for byte alike whichever sets happen to be kept.
This is the maximal sharing of term-graph rewriting (Barendregt et al.,
PARLE 1987).  The matcher names a subject binder by its own name unless
the attempt has used that name already, so it walks no name set and copies
a fragment only where a binder took a reserved name: a β step copies its
body once, in contraction, and only the paths to the names it replaces.

Normalization is leftmost-outermost, one step at a time, and each search
after the first resumes at the last redex p instead of at the root.  The
nodes left of p are the objects the last search found to hold no redex,
so they are skipped.  An ancestor at distance d above p is retried only
with the rules whose pattern reaches d levels down (a scope body and an
association value each one level): below its reach a pattern has only
meta-variables and catch-alls used once and applied to every binder in
scope, which match any fragment.  Two kinds of rule see a whole fragment
and are retried at every ancestor with their head: one whose
meta-variable or catch-all stands under a pattern binder it does not
take, as η's ``#M()`` does, and one that uses a meta-variable or
catch-all twice.  The search then goes on through p's new subtree and the
right siblings along the path, deepest first: the rest of pre-order.
This is the classic bound on redex creation in left-linear systems (Huet
and Lévy 1991; Terese 2003, ch. 4), with the binder and non-linear
exceptions above.  The redex and rule chosen are those of a search from
the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .env import GlobalEnv, RuleEnv, infer_rule_env
from .terms import (
    AssocPiece,
    CatchAll,
    Construction,
    Ident,
    MapEntry,
    MetaApp,
    Node,
    NotKey,
    Piece,
    RuleDecl,
    ScopePiece,
    Term,
    Var,
    all_idents,
    alpha_equal,
    free_vars,
    fresh_var,
    render,
)

__all__ = [
    "Abstraction",
    "EngineError",
    "NormalizeResult",
    "NormalStatus",
    "RewriteRule",
    "RewriteStep",
    "Valuation",
    "contract",
    "format_step",
    "match_term",
    "normalize",
    "prepare_rules",
    "rewrite_step",
    "substitute",
]


class EngineError(Exception):
    """An engine precondition failed.

    Each raise site names the checker or environment diagnostic that rules
    it out for a checked script and a well-sorted subject, so on such input
    this is an engine bug.
    """


@dataclass(unsafe_hash=True, slots=True)
class Abstraction:
    """A fragment abstracted over the binders a pattern meta was applied to.

    A meta-application's fragment is a term; a catch-all's is the
    ``AssocPiece`` of the entries it captured.
    """

    params: tuple[Ident, ...]
    body: Term | AssocPiece


@dataclass
class Valuation:
    """The result of matching a pattern against a subject: one abstraction
    per meta-variable, catch-alls included, and one subject variable per
    free pattern variable."""

    meta_bind: dict[Ident, Abstraction] = field(default_factory=dict)
    var_bind: dict[Ident, Ident] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Substitution


def substitute(body: Term | AssocPiece, binding: Mapping[Ident, Term]) -> Term | AssocPiece:
    """Simultaneous capture-avoiding substitution of terms for variables.

    Binders colliding with free variables of the replacements are renamed.
    A key position can only receive a variable; anything else raises
    EngineError.  The checker rules that out: a key's sort is declared
    'variable', where only a variable may be substituted.
    The walk is ``_subst``; its memo of the replacements' free variables
    lives for this call only.

    A construction is returned as it is, not copied, when the name set it
    keeps (``all_idents``) holds no substituted name and no name of any
    replacement.  Then no variable or key in it is replaced and none of its
    binders clashes with a replacement, so the copy would be ``==`` to it,
    with the same binder names, and the result renders byte for byte as the
    full copy would.  Only sets already kept are read: the construction's,
    each replacement's and a variable's own name.  No set is built here, and
    when some replacement keeps none, nothing is shared in that call.
    """
    if not binding:
        return body
    # ``guard``: the names a shared construction must not hold, or None when
    # some replacement keeps no name set.
    guard: set[Ident] | None = set(binding)
    for r in binding.values():
        if isinstance(r, Var):
            guard.add(r.name)
        elif r._idents is None:
            guard = None
            break
        else:
            guard |= r._idents
    return _subst(body, dict(binding), guard, {})


# ``fv_memo`` maps ``id(r)`` to ``(r, free_vars(r))`` for each replacement
# ``r`` met at a scope piece; each entry keeps its term alive, so no id is
# reused while it stands.
_FvMemo = dict[int, tuple[Term, set[Ident]]]


def _subst(t: Node, sub: dict[Ident, Term], guard: set[Ident] | None, fv_memo: _FvMemo
           ) -> Node:
    if isinstance(t, Var):
        return sub.get(t.name, t)
    if isinstance(t, Construction):
        if guard is not None and t._idents is not None and t._idents.isdisjoint(guard):
            return t
        return Construction(t.head, tuple(map(_subst, t.args, repeat(sub), repeat(guard),
                                              repeat(fv_memo))))
    if isinstance(t, ScopePiece):
        if not t.binders:
            return ScopePiece((), _subst(t.body, sub, guard, fv_memo))
        inner = {w: r for w, r in sub.items() if w not in t.binders}
        if not inner:
            return t
        clash = set()
        for r in inner.values():
            hit = fv_memo.get(id(r))
            if hit is None:
                hit = fv_memo[id(r)] = (r, free_vars(r))
            clash |= hit[1]
        binders, body = list(t.binders), t.body
        if clash & set(binders):
            avoid = clash | all_idents(body) | set(binders) | set(inner)
            for i, b in enumerate(binders):
                if b in clash:
                    b2 = fresh_var(b, avoid)
                    avoid.add(b2)
                    body = _subst(body, {b: Var(b2)}, {b, b2}, fv_memo)
                    binders[i] = b2
        # ``guard`` may name a substituted name these binders shadow: it
        # only shares less than it could.
        return ScopePiece(tuple(binders), _subst(body, inner, guard, fv_memo))
    if isinstance(t, (MetaApp, CatchAll)):
        return type(t)(t.meta, tuple(map(_subst, t.args, repeat(sub), repeat(guard),
                                         repeat(fv_memo))))
    if isinstance(t, AssocPiece):
        return AssocPiece(tuple(map(_subst, t.entries, repeat(sub), repeat(guard),
                                    repeat(fv_memo))))
    if isinstance(t, MapEntry):
        return MapEntry(_key_through(sub, t.key), _subst(t.value, sub, guard, fv_memo))
    return NotKey(_key_through(sub, t.key))


# ---------------------------------------------------------------------------
# Matching


class _NoMatch(Exception):
    pass


class _Matcher:
    """One matching attempt; collects bindings and defers association pieces
    until their pattern keys are resolvable.

    Each subject binder the descent enters gets a canonical name: its own
    name, or a reserved one if this attempt has used that name before, even
    for a binder now out of scope.  So ``senv`` (subject binder in scope to
    canonical name) and ``penv`` (pattern binder to its partner's) stay
    injective, ``_rename`` copies a fragment only where a binder took a
    reserved name, and subject keys are filed through ``senv`` too.  Inside
    a binder's scope a free occurrence of its name is that binder, so a
    renamed fragment's free name is a canonical name in ``senv`` or one that
    no enclosing subject binder has, and the binders a fragment may not use
    are those in ``senv`` other than the meta's parameters.  A name free in
    the subject may still name a binder elsewhere: a pattern key that
    resolves through ``var_bind`` to a name bound here names no key of the
    list, and the two abstractions of a non-linear meta compare up to alpha.
    """

    def __init__(self):
        self.meta_bind: dict[Ident, Abstraction] = {}
        self.var_bind: dict[Ident, Ident] = {}
        self.used: set[Ident] = set()
        # (pattern entries, subject dict, penv, senv)
        self.pending: list[tuple] = []

    def canonical(self, u: Ident) -> Ident:
        # The one place a reserved name is made: ``%`` is no identifier's.
        c = str.__new__(Ident, f"{u}%{len(self.used)}") if u in self.used else u
        self.used.add(c)
        return c

    # -- structural descent ------------------------------------------------

    def term(self, p: Term, s: Term, penv: dict, senv: dict) -> None:
        if isinstance(p, MetaApp):
            self.bind_meta(p, s, penv, senv)
            return
        if isinstance(p, Var):
            if not isinstance(s, Var):
                raise _NoMatch
            if p.name in penv:
                if senv.get(s.name) != penv[p.name]:
                    raise _NoMatch
                return
            if s.name in senv:
                # A free pattern variable may not capture a subject binder.
                raise _NoMatch
            seen = self.var_bind.get(p.name)
            if seen is None:
                self.var_bind[p.name] = s.name
            elif seen != s.name:
                raise _NoMatch
            return
        if not isinstance(s, Construction) or p.head != s.head or len(p.args) != len(s.args):
            raise _NoMatch
        for pp, sp in zip(p.args, s.args):
            self.piece(pp, sp, penv, senv)

    def piece(self, pp: Piece, sp: Piece, penv: dict, senv: dict) -> None:
        if isinstance(pp, ScopePiece):
            if not isinstance(sp, ScopePiece) or len(pp.binders) != len(sp.binders):
                raise _NoMatch
            if not pp.binders:
                self.term(pp.body, sp.body, penv, senv)
                return
            penv2, senv2 = dict(penv), dict(senv)
            for w, u in zip(pp.binders, sp.binders):
                penv2[w] = senv2[u] = self.canonical(u)
            self.term(pp.body, sp.body, penv2, senv2)
            return
        if not isinstance(sp, AssocPiece):
            raise _NoMatch
        # Each entry is filed under its key seen through ``senv``; later keys
        # override earlier ones.  Nothing mutates an environment once built,
        # so the queued list keeps the ones it was given.
        subject: dict[Ident, MapEntry] = {}
        for e in sp.entries:
            if not isinstance(e, MapEntry):
                # SAP-Not, SAC-All: checked subjects and contracta hold plain entries.
                raise EngineError(
                    f"subject association lists must contain only plain entries, got {render(e)}"
                )
            subject[senv.get(e.key, e.key)] = e
        self.pending.append((pp.entries, subject, penv, senv))

    def bind_meta(self, p: MetaApp | CatchAll, s: Term | AssocPiece, penv: dict,
                  senv: dict) -> None:
        params = self._meta_params(p.meta, p.args, penv)
        fragment = self._rename(s, senv)
        forbidden = set(senv.values()) - set(params)
        if forbidden and free_vars(fragment) & forbidden:
            raise _NoMatch  # a forbidden binder occurs in the fragment
        self._record_meta(p.meta, Abstraction(params, fragment))

    def _meta_params(self, meta: Ident, args, penv: dict) -> tuple[Ident, ...]:
        params = []
        for a in args:
            if not isinstance(a, Var) or a.name not in penv:
                # SMP-Meta, SAP-All: pattern arguments are bound variables.
                raise EngineError(
                    f"pattern argument of {meta} must be a bound variable; "
                    "was the rule checked?"
                )
            params.append(penv[a.name])
        return tuple(params)

    def _rename(self, s: Term | AssocPiece, senv: dict) -> Term | AssocPiece:
        reserved = {u: Var(c) for u, c in senv.items() if u != c}
        return substitute(s, reserved) if reserved else s

    def _record_meta(self, meta: Ident, ab: Abstraction) -> None:
        seen = self.meta_bind.get(meta)
        if seen is None:
            self.meta_bind[meta] = ab
        elif not alpha_equal(ScopePiece(seen.params, seen.body), ScopePiece(ab.params, ab.body)):
            raise _NoMatch

    # -- association pieces --------------------------------------------------

    def resolve_key(self, w: Ident, penv: dict, senv: dict) -> Ident | None:
        """The subject key that pattern key ``w`` names here, or None when
        it resolves to a free name that a subject binder in scope shadows."""
        if w in penv:
            return penv[w]
        k = self.var_bind[w]  # ``resolvable``: bound by now
        return None if k in senv else k

    def resolvable(self, item) -> bool:
        p_entries, _, penv, _ = item
        return all(
            e.key in penv or e.key in self.var_bind
            for e in p_entries
            if isinstance(e, (MapEntry, NotKey))
        )

    def match_assoc_entries(self, item) -> None:
        p_entries, subject, penv, senv = item
        catchalls = [e for e in p_entries if isinstance(e, CatchAll)]
        if len(catchalls) > 1:
            # SAP-All (MultipleCatchAll); kept for callers that skip the checker.
            raise EngineError(
                "a pattern association list has more than one catch-all meta-variable"
            )
        named: set[Ident] = set()
        for e in p_entries:
            if isinstance(e, MapEntry):
                k = self.resolve_key(e.key, penv, senv)
                if k not in subject:
                    raise _NoMatch
                named.add(k)
                self.term(e.value, subject[k].value, penv, senv)
            elif isinstance(e, NotKey):
                k = self.resolve_key(e.key, penv, senv)
                if k in subject:
                    raise _NoMatch
        remainder = [e for k, e in subject.items() if k not in named]
        if catchalls:
            # The subject's own entries: ``bind_meta`` renames keys and values.
            self.bind_meta(catchalls[0], AssocPiece(tuple(remainder)), penv, senv)
        elif remainder:
            raise _NoMatch

    def drain_pending(self) -> None:
        while self.pending:
            for i, item in enumerate(self.pending):
                if self.resolvable(item):
                    del self.pending[i]
                    self.match_assoc_entries(item)
                    break
            else:
                # Keys that never become resolvable: no deterministic match.
                raise _NoMatch


def match_term(pattern: Term, subject: Term) -> Valuation | None:
    """Match a checked rule pattern against a ground subject fragment.

    Returns the valuation, or None when the subject does not match.  The
    abstractions' parameters are the subject's own binder names, but for a
    name the attempt meets again, which gets a reserved spelling that no
    parsed identifier has and that contraction substitutes away.  Replaying
    the valuation into the pattern rebuilds the subject up to
    alpha-equivalence; association lists, read as maps, may come back in
    another entry order.  A non-linear meta-variable or catch-all matches
    only abstractions that are alpha-equal.  The pattern must pass the
    checker; one that does not may raise EngineError, for instance a
    pattern association list with more than one catch-all (SAP-All).
    """
    m = _Matcher()
    try:
        m.term(pattern, subject, {}, {})
        m.drain_pending()
    except _NoMatch:
        return None
    return Valuation(m.meta_bind, m.var_bind)


# ---------------------------------------------------------------------------
# Contraction


def contract(rhs: Term, val: Valuation, avoid: Iterable[Ident] = (), *,
             _rhs_vars: Sequence[Ident] | None = None) -> Term:
    """Instantiate a rule's right side with a valuation.

    Variables pass through the valuation's variable bindings; right-side
    variables bound by neither the valuation nor an enclosing scope are
    replaced by one consistent fresh variable each, chosen against ``avoid``,
    every name in the valuation, and all names generated so far.  Binders on
    the right side are freshened the same way, so spliced association entries
    can never collide with introduced keys.

    ``avoid`` and the valuation's names are read only when a fresh name is
    drawn: a right side with no binder and no unbound variable never
    iterates ``avoid``.  The valuation's names are the parameters and the
    ``all_idents`` of its fragments, kept on each fragment once built, so a
    fragment that was queried before, or that shares its subterms with one,
    costs little; a catch-all's captured list names its keys and the names
    of its values.  A catch-all splices the entries of its abstraction's
    body, with the contracted arguments substituted for the parameters.
    The engine passes ``_rhs_vars``, the rule's ``sorted(free_vars(rhs))``
    computed once by ``prepare_rules``.
    """
    taken: set[Ident] | None = None

    def fresh(hint: Ident) -> Ident:
        nonlocal taken
        if taken is None:
            taken = set(avoid)
            for ab in val.meta_bind.values():
                taken.update(ab.params)
                if isinstance(ab.body, AssocPiece):
                    for e in ab.body.entries:
                        taken.add(e.key)
                        taken |= all_idents(e.value)
                else:
                    taken |= all_idents(ab.body)
            taken |= set(val.var_bind.values())
        name = fresh_var(hint, taken)
        taken.add(name)
        return name

    rho: dict[Ident, Ident] = dict(val.var_bind)
    if _rhs_vars is None:
        _rhs_vars = sorted(free_vars(rhs))
    for w in _rhs_vars:
        if w not in rho:
            rho[w] = fresh(w)

    return _inst(rhs, rho, val, fresh)


def _inst(t: Term | Piece, rho: dict[Ident, Ident], val: Valuation,
          fresh: Callable[[Ident], Ident]) -> Term | Piece:
    if isinstance(t, Var):
        return Var(rho[t.name])  # rho maps every free name and binder of the right side
    if isinstance(t, Construction):
        return Construction(t.head, tuple(map(_inst, t.args, repeat(rho), repeat(val),
                                              repeat(fresh))))
    if isinstance(t, ScopePiece):
        binders = tuple(map(fresh, t.binders))
        return ScopePiece(binders, _inst(t.body, rho | dict(zip(t.binders, binders)), val, fresh))
    if isinstance(t, (MetaApp, CatchAll)):
        ab = val.meta_bind.get(t.meta)
        if ab is None:
            # UnboundMetaOnRhs: a successful match binds every pattern meta-variable.
            raise EngineError(f"no binding for meta-variable {t.meta} (MissingBinding)")
        if len(ab.params) != len(t.args):
            # SMC-Meta, SMP-Meta, SAC-All, SAP-All: both sides use the meta-form's arity.
            raise EngineError(f"arity mismatch instantiating {t.meta}")
        args = map(_inst, t.args, repeat(rho), repeat(val), repeat(fresh))
        return substitute(ab.body, dict(zip(ab.params, args)))
    # An association list: a later key overrides an earlier one and keeps its
    # first position.  A catch-all's substituted entries are spliced in as they
    # are; a lone catch-all without arguments gives its whole list, whose keys
    # the matcher filed in a dict and so never repeat.
    if len(t.entries) == 1 and isinstance(t.entries[0], CatchAll) and not t.entries[0].args:
        return _inst(t.entries[0], rho, val, fresh)
    merged: dict[Ident, MapEntry] = {}
    for e in t.entries:
        if isinstance(e, MapEntry):
            k = rho[e.key]
            merged[k] = MapEntry(k, _inst(e.value, rho, val, fresh))
        elif isinstance(e, NotKey):
            # SAP-Not: absence entries stand only in patterns.
            raise EngineError("an absence entry cannot be contracted")
        else:
            for c in _inst(e, rho, val, fresh).entries:
                merged[c.key] = c
    return AssocPiece(tuple(merged.values()))


def _key_through(sub: Mapping[Ident, Term], k: Ident) -> Ident:
    """The key ``k`` after substitution: only a variable can stand there."""
    r = sub.get(k)
    if r is None:
        return k
    if isinstance(r, Var):
        return r.name
    # A key's sort is declared 'variable' (SMP-Var, SMC-Var), and there
    # nothing but a variable is substituted (SMS-Cons, SMS-Meta).
    raise EngineError(f"cannot substitute non-variable {render(r)} for key {k}")


# ---------------------------------------------------------------------------
# Rewriting strategy


@dataclass(unsafe_hash=True, slots=True)
class RewriteRule:
    """A rule ready for the engine, paired with its inferred environment,
    the sorted free variables of its right side, and the reach of its
    pattern: how many levels below a node the pattern looks, ``math.inf``
    when it sees a whole fragment (see ``_reach``)."""

    decl: RuleDecl
    env: RuleEnv
    index: int
    rhs_vars: tuple[Ident, ...]
    reach: float


@dataclass(unsafe_hash=True, slots=True)
class RewriteStep:
    """One reduction: where, and by which rule.

    The position path alternates construction argument indices with, for
    association arguments, the entry index within the list.
    """

    position: tuple[int, ...]
    rule_index: int


class NormalStatus(Enum):
    NORMAL_FORM = "NormalForm"
    FUEL_EXHAUSTED = "FuelExhausted"


@dataclass
class NormalizeResult:
    term: Term
    steps: list[RewriteStep]
    status: NormalStatus


def prepare_rules(gamma: GlobalEnv, rules: Sequence[RuleDecl],
                  envs: Sequence[RuleEnv] | None = None) -> list[RewriteRule]:
    """Pair checked rules with environments, their right sides' free
    variables and their patterns' reach.

    The rules must pass ``check_script``.  The engine relies on the checker
    for every formation condition; it tests only that a pattern is a
    construction, which the index by head needs.
    """
    out: list[RewriteRule] = []
    for i, decl in enumerate(rules):
        if not isinstance(decl.lhs, Construction):
            # SMP-Fun: a pattern is a scheme construction.
            raise EngineError(f"rule {i} pattern is not a construction")
        env = envs[i] if envs is not None else infer_rule_env(gamma, decl)[0]
        out.append(RewriteRule(decl, env, i, tuple(sorted(free_vars(decl.rhs))),
                               _reach(decl.lhs, 0, (), set())))
    return out


def _reach(p: Term | CatchAll, depth: int, scope: tuple[Ident, ...], seen: set[Ident]
           ) -> float:
    """The depth of the deepest construction or variable of pattern ``p``,
    which stands ``depth`` levels below the root under the binders ``scope``,
    or ``math.inf`` if ``p`` holds a meta-variable or catch-all that can
    reject a fragment: one used twice (``seen`` holds those met so far), or
    one that stands under a binder it does not take, shadowed ones included.
    A scope body and an association value are each one level down.
    """
    if isinstance(p, Var):
        return depth
    if isinstance(p, (MetaApp, CatchAll)):
        # Pattern arguments are bound variables (SMP-Meta, SAP-All).
        taken = {a.name for a in p.args}
        if p.meta in seen or len(set(scope)) < len(scope) or not taken.issuperset(scope):
            return math.inf
        seen.add(p.meta)
        return 0
    reach = depth
    for piece in p.args:
        if isinstance(piece, ScopePiece):
            reach = max(reach, _reach(piece.body, depth + 1, scope + piece.binders, seen))
            continue
        for e in piece.entries:
            if isinstance(e, MapEntry):
                reach = max(reach, _reach(e.value, depth + 1, scope, seen))
            elif isinstance(e, CatchAll):
                reach = max(reach, _reach(e, depth + 1, scope, seen))
    return reach


def _term_names(t: Term) -> Iterator[Ident]:
    """Every name of ``t``, asked of ``all_idents`` only when first iterated."""
    yield from all_idents(t)


def _index_by_head(gamma: GlobalEnv, rules: Sequence[RewriteRule]
                   ) -> dict[Ident, list[RewriteRule]]:
    """The rules whose pattern has a scheme head, by that head, in
    declaration order."""
    by_head: dict[Ident, list[RewriteRule]] = {}
    for rule in rules:
        if rule.decl.lhs.head in gamma.fun:
            by_head.setdefault(rule.decl.lhs.head, []).append(rule)
    return by_head


def rewrite_step(gamma: GlobalEnv, rules: Sequence[RewriteRule], t: Term, *,
                 after: tuple[int, ...] | None = None,
                 _by_head: dict[Ident, list[RewriteRule]] | None = None
                 ) -> tuple[Term, RewriteStep] | None:
    """Contract the leftmost-outermost matching redex, or return None.

    Rules are tried by head: at a scheme-headed construction only the rules
    whose pattern has that head, in declaration order.  A rule with another
    head could not match there, so the redex and rule chosen are those of
    trying every rule.  The search, ``_visit``, descends under binders and
    into association values.  Fresh names avoid every name of ``t``, which
    are asked for only when a contraction draws a fresh name.  Each term
    object keeps its names once built, and a step rebuilds only the path
    from the root to the redex, so that query walks the nodes built since
    the last one, not the whole tree.

    Without ``after`` the search starts at the root.  With ``after``, ``t``
    must be what this function returned for the step at position ``after``,
    and the search resumes there, as the module docstring describes: it
    walks down that path once and rebuilds it from the ancestors walked.
    ``normalize`` passes ``_by_head``, the index of ``rules`` by head that
    it builds once.
    """
    by_head = _index_by_head(gamma, rules) if _by_head is None else _by_head
    names = _term_names(t)
    if not after:  # from the root, or resumed at it
        return _visit(t, (), by_head, names)
    # Per ancestor, root first: the node, the argument and entry index the
    # path takes (entry 0 for a scope argument), and the node's position
    # length.
    chain: list[tuple[Construction, int, int, int]] = []
    sub, k = t, 0
    while k < len(after):
        i, p = after[k], sub.args[after[k]]
        if isinstance(p, ScopePiece):
            chain.append((sub, i, 0, k))
            sub, k = p.body, k + 1
        else:
            chain.append((sub, i, after[k + 1], k))
            sub, k = p.entries[after[k + 1]].value, k + 2
    for n, (a, _, _, k) in enumerate(chain):
        d = len(chain) - n
        for rule in by_head.get(a.head, ()):
            if rule.reach >= d:
                val = match_term(rule.decl.lhs, a)
                if val is not None:
                    new = contract(rule.decl.rhs, val, names, _rhs_vars=rule.rhs_vars)
                    return _rebuild(chain, n, new), RewriteStep(after[:k], rule.index)
    n = len(chain)
    hit = _visit(sub, after, by_head, names)
    while hit is None and n:
        n -= 1
        a, i, j, k = chain[n]
        if isinstance(a.args[i], ScopePiece):
            hit = _visit(a, after[:k], by_head, names, i + 1, 0)
        else:
            hit = _visit(a, after[:k], by_head, names, i, j + 1)
    if hit is None:
        return None
    return _rebuild(chain, n, hit[0]), hit[1]


def _visit(sub: Term, path: tuple[int, ...], by_head: dict[Ident, list[RewriteRule]],
           names: Iterable[Ident], i0: int = 0, j0: int = 0
           ) -> tuple[Term, RewriteStep] | None:
    # With (i0, j0) past (0, 0) the search resumes after one of ``sub``'s
    # pieces: ``sub``'s own rules are not tried, and the search starts at
    # argument i0, at entry j0 of it if it is an association list.
    if not isinstance(sub, Construction):
        return None
    if not (i0 or j0):
        for rule in by_head.get(sub.head, ()):
            val = match_term(rule.decl.lhs, sub)
            if val is not None:
                new = contract(rule.decl.rhs, val, names, _rhs_vars=rule.rhs_vars)
                return new, RewriteStep(path, rule.index)
    for i, p in enumerate(sub.args[i0:], i0):
        if isinstance(p, ScopePiece):
            hit = _visit(p.body, path + (i,), by_head, names)
            if hit is not None:
                return _replace(sub, i, 0, hit[0]), hit[1]
            continue
        for j, e in enumerate(p.entries[j0:], j0):
            if isinstance(e, MapEntry):
                hit = _visit(e.value, path + (i, j), by_head, names)
                if hit is not None:
                    return _replace(sub, i, j, hit[0]), hit[1]
        j0 = 0
    return None


def _replace(sub: Construction, i: int, j: int, new: Term) -> Construction:
    """``sub`` with ``new`` for the body of argument ``i``, or for the value
    of its entry ``j`` when that argument is an association list."""
    p = sub.args[i]
    if isinstance(p, ScopePiece):
        p = ScopePiece(p.binders, new)
    else:
        p = AssocPiece(p.entries[:j] + (MapEntry(p.entries[j].key, new),) + p.entries[j + 1:])
    return Construction(sub.head, sub.args[:i] + (p,) + sub.args[i + 1:])


def _rebuild(chain: list[tuple[Construction, int, int, int]], n: int, new: Term) -> Term:
    """The root, rebuilt from ``new`` in place of ``chain[n]``'s ancestor
    (the subject at the path's end when ``n`` is the chain's length)."""
    for a, i, j, _ in reversed(chain[:n]):
        new = _replace(a, i, j, new)
    return new


def normalize(gamma: GlobalEnv, rules: Sequence[RewriteRule], t: Term,
              fuel: int = 10000,
              on_step: Callable[[Term, RewriteStep], None] | None = None
              ) -> NormalizeResult:
    """Rewrite until no rule matches anywhere, or until fuel runs out.

    Each step is one ``rewrite_step``; every search after the first resumes
    at the previous step's position, with ``after``, and chooses the redex
    and rule that a search from the root would.  The rules are indexed by
    head once, for every step.  Scheme-headed subterms with no matching
    rule stay in place; they are simply part of the normal form.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps: list[RewriteStep] = []
    current = t
    after = None
    by_head = _index_by_head(gamma, rules)
    for _ in range(fuel):
        hit = rewrite_step(gamma, rules, current, after=after, _by_head=by_head)
        if hit is None:
            return NormalizeResult(current, steps, NormalStatus.NORMAL_FORM)
        current, step = hit
        after = step.position
        steps.append(step)
        if on_step is not None:
            on_step(current, step)
    if rewrite_step(gamma, rules, current, after=after, _by_head=by_head) is None:
        return NormalizeResult(current, steps, NormalStatus.NORMAL_FORM)
    return NormalizeResult(current, steps, NormalStatus.FUEL_EXHAUSTED)


def format_step(number: int, step: RewriteStep, rule: RewriteRule, term: Term,
                *, unicode: bool = False) -> str:
    """One trace record: the step header line plus the rendered term."""
    pos = "[" + ",".join(str(i) for i in step.position) + "]"
    decl = render(rule.decl, unicode=unicode).removesuffix(";")
    header = f"step {number} at {pos} by rule {rule.index} ({decl})"
    return header + "\n" + render(term, unicode=unicode)
