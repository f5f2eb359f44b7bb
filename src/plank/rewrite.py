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
entries are spliced into the list it stands in.  Substitution renames a
binder only where a substituted name is free below it.  Substitution
(``_subst``) and contraction (``_inst``) are each one function that
dispatches once on a node's exact class (node classes are final), so a
node costs one Python frame, and a plain argument none: a construction's
loop, and the matcher's, recurses on its body (substitution's looks a
variable up).  An argument-free meta-variable or catch-all outside every
binder needs no abstraction: the matcher records its fragment as it is,
with no ``bind_meta`` call, and contraction spends one ``_inst`` frame on
it, which returns that fragment and substitutes nothing.

The matcher tells binders apart by number, so each fragment a valuation
holds is the subject's own, and a parameter is its binder's own name, or
None where an inner binder of that name hides it, which the fragment then
cannot name.  So contraction draws its fresh names, for a right side's
binders and its unbound variables, from one supply, the subject's names and
the names drawn so far.

Normalization is leftmost-outermost, one step at a time, on a zipper of
the term (Huet, "The Zipper", JFP 1997): the focus, which a step makes the
contractum, and one frame per ancestor, its construction with a hole on
the focus's branch.  Each search after the first resumes there, and it
picks the redex and rule a pre-order search from the root would pick,
where each construction tries its head's rules in declaration order.  A
rule of another head cannot match there.  The argument has three parts.

* Left of the path.  The nodes left of the focus's path are the objects
  the last search found to hold no redex, and the step left them as they
  were, so they are skipped.
* Ancestors.  Every ancestor was tried with every rule of its head, and
  each failed.  Distance counts tree levels: a scope body is one level
  down, and so is an association value, though its position holds two
  indices.  A rule's reach is the depth of its pattern's deepest
  construction or variable, and a pattern fails structurally only on what
  the subject holds within its reach; below it the pattern has only
  meta-variables and catch-alls.  So a step d levels below an ancestor can
  make a redex there by a structural change only for a rule that reaches d
  down: the classic bound on redex creation in left-linear systems (Huet
  and Lévy 1991; Terese 2003, ch. 4).  A meta-variable or catch-all can
  still reject its fragment, for a binder it does not take, as η's
  ``#M()`` does not take x, or for a second occurrence that differs, and
  a step below can undo that.  The matcher reports such a failure as
  undoable only once the rest of the pattern matched, and the rule then
  joins the frame's set in the zipper's retry map until it fires or
  fails structurally.  So retrying each ancestor top-down, with the rules
  that reach it and its retry set, finds the outermost redex on the path.
* The argument-head guard.  A rule is not tried where a scope argument's
  body lacks the head, or is not the variable, that its pattern has
  there: it would fail structurally one level down.

When no ancestor matches, the walk searches the focus's subtree and moves
right, else up, rebuilding an ancestor only when it climbs past one whose
child changed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from enum import Enum
from itertools import repeat
from operator import is_

from .env import GlobalEnv, RuleEnv
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
    _Record,
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


class Abstraction(_Record):
    """A fragment abstracted over the binders a pattern meta was applied to.

    A meta-application's fragment is a term; a catch-all's is the
    ``AssocPiece`` of the entries it captured.  A parameter is None where
    an inner binder hides its binder, which the fragment then cannot name.
    """

    __slots__ = _fields = ("params", "body")

    def __init__(self, params: tuple[Ident | None, ...], body: Term | AssocPiece):
        self.params = params
        self.body = body


class Valuation(_Record):
    """The result of matching a pattern against a subject: one abstraction
    per meta-variable, catch-alls included, and one subject variable per
    free pattern variable."""

    __slots__ = _fields = ("meta_bind", "var_bind")
    __hash__ = None

    def __init__(self, meta_bind: dict[Ident, Abstraction] | None = None,
                 var_bind: dict[Ident, Ident] | None = None):
        self.meta_bind = {} if meta_bind is None else meta_bind
        self.var_bind = {} if var_bind is None else var_bind


# ---------------------------------------------------------------------------
# Substitution


def substitute(body: Term | AssocPiece, binding: Mapping[Ident, Term]) -> Term | AssocPiece:
    """Simultaneous capture-avoiding substitution of terms for variables.

    By the textbook rule (Curry and Feys 1958; Barendregt 1984, 2.1), a
    scope's binder is renamed only where it is free in the replacement of
    a name free in the scope's body.  A key position can only receive a
    variable; anything else raises EngineError, which the checker rules
    out by declaring a key's sort 'variable'.  The walk is ``_subst``; its
    memo of the replacements' free variables lives for this call only.

    A subtree that the substitution leaves unchanged is returned as it is,
    not copied: the maximal sharing of term-graph rewriting (Barendregt et
    al., PARLE 1987).  A construction is not walked when the name set it
    keeps (``all_idents``) holds no substituted name: nothing in it is
    replaced and, by the rule above, no binder renamed.  The guard reads
    only sets already kept, as ``check_ground_subject`` and fresh draws
    keep them.  A walked construction or scope is returned itself when
    each of its children comes back as the same object.
    """
    if not binding:
        return body
    return _subst(body, binding, {})


# ``fv_memo`` maps a substituted name ``w`` to ``free_vars(sub[w])``.  Names
# key it because one memo serves one ``sub``: under every binder ``w`` still
# maps to the same term.  A binder rename is another ``sub``, with its own memo.
def _subst(t: Node, sub: Mapping[Ident, Term], fv_memo: dict[Ident, set[Ident]]) -> Node:
    cls = t.__class__
    if cls is Var:
        return sub.get(t.name, t)
    if cls is Construction:
        if t._idents is not None and t._idents.isdisjoint(sub):
            return t
        args = []
        for p in t.args:
            if p.__class__ is ScopePiece and not p.binders:
                body = p.body
                new = (sub.get(body.name, body) if body.__class__ is Var
                       else _subst(body, sub, fv_memo))
                args.append(p if new is body else ScopePiece((), new))
            else:
                args.append(_subst(p, sub, fv_memo))
        return t if all(map(is_, args, t.args)) else Construction(t.head, tuple(args))
    if cls is ScopePiece:
        inner = {w: r for w, r in sub.items() if w not in t.binders}
        if not inner:
            return t
        clash = set()
        for w, r in inner.items():
            fv = fv_memo.get(w)
            if fv is None:
                fv = fv_memo[w] = free_vars(r)
            clash |= fv
        binders, body = t.binders, t.body
        if clash & set(binders):
            # Substitute, and so rename, only the names free in the body.
            fv = free_vars(body)
            inner = {w: r for w, r in inner.items() if w in fv}
            if not inner:
                return t
            clash = set().union(*map(fv_memo.__getitem__, inner))
            binders, avoid = list(binders), clash | all_idents(body) | set(binders) | set(inner)
            for i, b in enumerate(binders):
                if b in clash:
                    b2 = fresh_var(b, avoid)
                    avoid.add(b2)
                    body = _subst(body, {b: Var(b2)}, {})
                    binders[i] = b2
            binders = tuple(binders)
        body = _subst(body, inner, fv_memo)
        return t if body is t.body and binders is t.binders else ScopePiece(binders, body)
    if cls is MetaApp or cls is CatchAll:
        return cls(t.meta, tuple(map(_subst, t.args, repeat(sub), repeat(fv_memo))))
    if cls is AssocPiece:
        return AssocPiece(tuple(map(_subst, t.entries, repeat(sub), repeat(fv_memo))))
    if cls is MapEntry:
        return MapEntry(_key_through(sub, t.key), _subst(t.value, sub, fv_memo))
    return NotKey(_key_through(sub, t.key))


# ---------------------------------------------------------------------------
# Matching


class _NoMatch(Exception):
    pass


class _Matcher:
    """One matching attempt; collects bindings, and queues association
    pieces to match them in order once the descent that queued them is done.

    A fragment that holds a binder its meta may not take, or that differs
    from the meta's other occurrence, sets ``undone`` and lets the attempt
    go on; every other mismatch raises ``_NoMatch``.

    A map entry's key is a binder in scope, a variable outside every list,
    or one of an enclosing entry's value, matched before the inner list is
    drained (KeyNotElsewhere, ``SA-Map``); so each list's keys are bound
    when its turn comes.  An absence key may be bound by any value of the
    pattern (``SAP-Not``), so absence entries are checked after every list.

    Each pair of binders the descent enters gets the attempt's next number,
    its index in ``binders``, the subject binders in the order entered:
    ``senv`` maps a subject name in scope to its binder's, ``penv`` a
    pattern binder to its partner's, and subject keys are filed through
    ``senv`` too.  Inside a binder's scope a free occurrence of its name is
    that binder, so a fragment is recorded as it stands: a parameter is its
    binder's name where ``senv`` maps that name to the binder's number, or
    None where an inner binder hides it, and the names a fragment may not
    use are the other names in ``senv``.  A name free in the subject may
    still name a binder elsewhere: a pattern key that resolves through
    ``var_bind`` to a name bound here names no key of the list, and the two
    abstractions of a non-linear meta compare up to alpha.
    """

    def __init__(self):
        self.meta_bind: dict[Ident, Abstraction] = {}
        self.var_bind: dict[Ident, Ident] = {}
        self.binders: list[Ident] = []
        # (pattern entries, subject dict, penv, senv, subject list)
        self.pending: list[tuple] = []
        self.undone = False

    # -- structural descent ------------------------------------------------

    def term(self, p: Term, s: Term, penv: dict, senv: dict) -> None:
        cls = p.__class__
        if cls is MetaApp:
            if p.args or senv:
                self.bind_meta(p, s, penv, senv)
            else:  # no binder to forbid or abstract over
                self._record_meta(p.meta, Abstraction((), s))
            return
        if cls is Var:
            if s.__class__ is not Var:
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
        if s.__class__ is not Construction or p.head != s.head or len(p.args) != len(s.args):
            raise _NoMatch
        for pp, sp in zip(p.args, s.args):
            if pp.__class__ is sp.__class__ is ScopePiece and not (pp.binders or sp.binders):
                self.term(pp.body, sp.body, penv, senv)
            else:
                self.piece(pp, sp, penv, senv)

    def piece(self, pp: Piece, sp: Piece, penv: dict, senv: dict) -> None:
        if pp.__class__ is ScopePiece:
            if sp.__class__ is not ScopePiece or len(pp.binders) != len(sp.binders):
                raise _NoMatch
            penv2, senv2 = dict(penv), dict(senv)
            for w, u in zip(pp.binders, sp.binders):
                penv2[w] = senv2[u] = len(self.binders)
                self.binders.append(u)
            self.term(pp.body, sp.body, penv2, senv2)
            return
        if sp.__class__ is not AssocPiece:
            raise _NoMatch
        # Each entry is filed under its key seen through ``senv``; later keys
        # override earlier ones.  Nothing mutates an environment once built,
        # so the queued list keeps the ones it was given.
        subject: dict[Ident | int, MapEntry] = {}
        for e in sp.entries:
            if e.__class__ is not MapEntry:
                # SAP-Not, SAC-All: checked subjects and contracta hold plain entries.
                raise EngineError(
                    f"subject association lists must contain only plain entries, got {render(e)}"
                )
            subject[senv.get(e.key, e.key)] = e
        self.pending.append((pp.entries, subject, penv, senv, sp))

    def bind_meta(self, p: MetaApp | CatchAll, s: Term | AssocPiece, penv: dict,
                  senv: dict) -> None:
        # Only under a binder: ``term`` and ``drain_pending`` record the rest.
        params = []
        for a in p.args:
            if a.__class__ is not Var or a.name not in penv:
                # SMP-Meta, SAP-All: pattern arguments are bound variables.
                raise EngineError(
                    f"pattern argument of {p.meta} must be a bound variable; "
                    "was the rule checked?"
                )
            n = penv[a.name]
            u = self.binders[n]
            params.append(u if senv.get(u) == n else None)
        forbidden = senv.keys() - params
        if forbidden and free_vars(s) & forbidden:
            self.undone = True  # a forbidden binder occurs in the fragment
            return
        self._record_meta(p.meta, Abstraction(tuple(params), s))

    def _record_meta(self, meta: Ident, ab: Abstraction) -> None:
        seen = self.meta_bind.get(meta)
        if seen is None:
            self.meta_bind[meta] = ab
        elif not alpha_equal(ScopePiece(seen.params, seen.body), ScopePiece(ab.params, ab.body)):
            self.undone = True

    # -- association pieces --------------------------------------------------

    def resolve_key(self, w: Ident, penv: dict) -> Ident | int:
        """What pattern key ``w`` names here: a binder's number, or a free
        name, under which no key that a subject binder in scope binds is filed."""
        if w in penv:
            return penv[w]
        k = self.var_bind.get(w)
        if k is None:
            # A key is a binder in scope or a variable the pattern binds before
            # its list drains, or at all for an absence key: SA-Map, SAP-Not.
            raise EngineError(f"pattern key {w} is bound nowhere (KeyNotElsewhere)")
        return k

    def drain_pending(self) -> None:
        """Match the queued association lists in order, the lists queued
        meanwhile included, and then every absence entry."""
        absent: list[tuple[Ident, dict, dict]] = []
        for p_entries, subject, penv, senv, sp in self.pending:
            catchall = None
            named: set[Ident | int] = set()
            for e in p_entries:
                if e.__class__ is MapEntry:
                    k = self.resolve_key(e.key, penv)
                    if k not in subject:
                        raise _NoMatch
                    named.add(k)
                    self.term(e.value, subject[k].value, penv, senv)
                elif e.__class__ is NotKey:
                    absent.append((e.key, subject, penv))
                elif catchall is None:
                    catchall = e
                else:
                    # SAP-All (MultipleCatchAll); kept for callers that skip the checker.
                    raise EngineError(
                        "a pattern association list has more than one catch-all meta-variable"
                    )
            if catchall is not None:
                # The subject's own entries, as they stand.
                # With no key named and no key repeated, they are all of ``sp``.
                if named or len(subject) != len(sp.entries):
                    sp = AssocPiece(tuple(e for k, e in subject.items() if k not in named))
                if catchall.args or senv:
                    self.bind_meta(catchall, sp, penv, senv)
                else:
                    self._record_meta(catchall.meta, Abstraction((), sp))
            elif len(named) != len(subject):  # an entry is left over
                raise _NoMatch
        for w, subject, penv in absent:
            if self.resolve_key(w, penv) in subject:
                raise _NoMatch


def match_term(pattern: Term, subject: Term, *, _undone: list | None = None
               ) -> Valuation | None:
    """Match a checked rule pattern against a ground subject fragment.

    Returns the valuation, or None when the subject does not match.  Each
    abstraction holds its fragment as the subject does, and its parameters
    are their binders' own names, but None for a binder an inner one of its
    name hides, which the fragment cannot hold.  Replaying the valuation
    into the pattern rebuilds the subject up to alpha-equivalence;
    association lists, read as maps, may come back in another entry order.
    A catch-all that takes all of a subject list with no repeated key binds
    that list itself.  A non-linear meta-variable or catch-all matches only
    abstractions that are alpha-equal.  The pattern must pass the checker;
    one that does not may raise EngineError, for instance a pattern
    association list with more than one catch-all (SAP-All) or a pattern key
    bound nowhere (SA-Map, SAP-Not).

    A failure is undoable when everything matched but a meta-variable's or
    catch-all's fragment: it holds a binder the meta does not take, or a
    non-linear meta's two fragments differ.  The engine passes ``_undone``,
    a list that such a failure appends True to.
    """
    m = _Matcher()
    try:
        m.term(pattern, subject, {}, {})
        m.drain_pending()
    except _NoMatch:
        return None
    if m.undone:
        if _undone is not None:
            _undone.append(True)
        return None
    return Valuation(m.meta_bind, m.var_bind)


# ---------------------------------------------------------------------------
# Contraction


def contract(rhs: Term, val: Valuation, avoid: Iterable[Ident], *,
             _rhs_vars: Sequence[Ident] | None = None) -> Term:
    """Instantiate a rule's right side with a valuation.

    ``avoid`` is every name of the subject ``val`` was matched against; the
    engine passes every name of the whole term.  Variables pass through the
    valuation's variable bindings, which are read as they stand, not
    copied.  Each right-side variable bound by neither the valuation nor an
    enclosing scope becomes one consistent fresh variable (only then is a
    new map built, the drawn names first), and each right-side binder a
    fresh binder, drawn against ``avoid`` and the names drawn so far.
    ``avoid`` is read once, when the first fresh name is drawn.  A
    catch-all splices the entries of its abstraction's body, with the
    contracted arguments substituted for the parameters; a None parameter
    names no variable, so nothing is put for it.  The engine passes
    ``_rhs_vars``, the rule's ``sorted(free_vars(rhs))``, from
    ``prepare_rules``.
    """
    taken: set[Ident] | None = None

    def fresh(hint: Ident) -> Ident:
        nonlocal taken
        if taken is None:
            taken = set(avoid)
        name = fresh_var(hint, taken)
        taken.add(name)
        return name

    rho = val.var_bind
    if _rhs_vars is None:
        _rhs_vars = sorted(free_vars(rhs))
    drawn = {w: fresh(w) for w in _rhs_vars if w not in rho}
    if drawn:
        drawn.update(rho)
        rho = drawn

    return _inst(rhs, rho, val, fresh)


def _inst(t: Term | Piece, rho: dict[Ident, Ident], val: Valuation,
          fresh: Callable[[Ident], Ident]) -> Term | Piece:
    cls = t.__class__
    if cls is Var:
        return Var(rho[t.name])  # rho maps every free name and binder of the right side
    if cls is Construction:
        args = []
        for p in t.args:
            if p.__class__ is ScopePiece and not p.binders:
                args.append(ScopePiece((), _inst(p.body, rho, val, fresh)))
            else:
                args.append(_inst(p, rho, val, fresh))
        return Construction(t.head, tuple(args))
    if cls is ScopePiece:
        binders = tuple(map(fresh, t.binders))
        inner = dict(rho)  # not ``rho | ...``: see the ``terms`` docstring
        inner.update(zip(t.binders, binders))
        return ScopePiece(binders, _inst(t.body, inner, val, fresh))
    if cls is MetaApp or cls is CatchAll:
        ab = val.meta_bind.get(t.meta)
        if ab is None:
            # UnboundMetaOnRhs: a successful match binds every pattern meta-variable.
            raise EngineError(f"no binding for meta-variable {t.meta} (MissingBinding)")
        if not (t.args or ab.params):
            return ab.body  # the matched fragment itself: nothing to substitute
        if len(ab.params) != len(t.args):
            # SMC-Meta, SMP-Meta, SAC-All, SAP-All: both sides use the meta-form's arity.
            raise EngineError(f"arity mismatch instantiating {t.meta}")
        args = map(_inst, t.args, repeat(rho), repeat(val), repeat(fresh))
        return substitute(ab.body, dict(zip(ab.params, args)))
    # An association list: a later key overrides an earlier one and keeps its
    # first position.  A catch-all's substituted entries are spliced in as they
    # are; a lone catch-all without arguments gives its whole list, whose keys
    # the matcher filed in a dict and so never repeat.
    if len(t.entries) == 1 and t.entries[0].__class__ is CatchAll and not t.entries[0].args:
        return _inst(t.entries[0], rho, val, fresh)
    merged: dict[Ident, MapEntry] = {}
    for e in t.entries:
        if e.__class__ is MapEntry:
            k = rho[e.key]
            merged[k] = MapEntry(k, _inst(e.value, rho, val, fresh))
        elif e.__class__ is NotKey:
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
    if r.__class__ is Var:
        return r.name
    # A key's sort is declared 'variable' (SMP-Var, SMC-Var), and there
    # nothing but a variable is substituted (SMS-Cons, SMS-Meta).
    raise EngineError(f"cannot substitute non-variable {render(r)} for key {k}")


# ---------------------------------------------------------------------------
# Rewriting strategy


class RewriteRule(_Record):
    """A rule ready for the engine, paired with its inferred environment,
    the sorted free variables of its right side, and its pattern's
    ``reach`` (``_reach``) and argument-head ``guard`` (``_guard``)."""

    __slots__ = _fields = ("decl", "env", "index", "rhs_vars", "reach", "guard")

    def __init__(self, decl: RuleDecl, env: RuleEnv, index: int, rhs_vars: tuple[Ident, ...],
                 reach: int, guard: tuple[tuple[int, Ident | None], ...]):
        self.decl = decl
        self.env = env
        self.index = index
        self.rhs_vars = rhs_vars
        self.reach = reach
        self.guard = guard


class RewriteStep(_Record):
    """One reduction: where, and by which rule.

    The position path alternates construction argument indices with, for
    association arguments, the entry index within the list.
    """

    __slots__ = _fields = ("position", "rule_index")

    def __init__(self, position: tuple[int, ...], rule_index: int):
        self.position = position
        self.rule_index = rule_index


class NormalStatus(Enum):
    NORMAL_FORM = "NormalForm"
    FUEL_EXHAUSTED = "FuelExhausted"


class NormalizeResult(_Record):
    __slots__ = _fields = ("term", "steps", "status")
    __hash__ = None

    def __init__(self, term: Term, steps: list[RewriteStep], status: NormalStatus):
        self.term = term
        self.steps = steps
        self.status = status


def prepare_rules(gamma: GlobalEnv, rules: Sequence[RuleDecl],
                  envs: Sequence[RuleEnv]) -> list[RewriteRule]:
    """Pair checked rules with their environments, ``check_script``'s
    ``rule_envs``, their right sides' free variables, and their patterns'
    reach and guard.

    The rules must pass ``check_script``.  The engine relies on the checker
    for every formation condition; it tests only that a pattern is a
    construction, which the index by head needs.
    """
    out: list[RewriteRule] = []
    for i, decl in enumerate(rules):
        if decl.lhs.__class__ is not Construction:
            # SMP-Fun: a pattern is a scheme construction.
            raise EngineError(f"rule {i} pattern is not a construction")
        out.append(RewriteRule(decl, envs[i], i, tuple(sorted(free_vars(decl.rhs))),
                               _reach(decl.lhs, 0), _guard(decl.lhs)))
    return out


def _reach(p: Term, depth: int) -> int:
    """The depth of the deepest construction or variable of pattern ``p``,
    which stands ``depth`` levels below the root, counted in tree levels: a
    scope body is one level down, and so is an association value."""
    if p.__class__ is Var:
        return depth
    if p.__class__ is MetaApp:
        return 0
    reach = depth
    for piece in p.args:
        if piece.__class__ is ScopePiece:
            reach = max(reach, _reach(piece.body, depth + 1))
            continue
        for e in piece.entries:
            if e.__class__ is MapEntry:
                reach = max(reach, _reach(e.value, depth + 1))
    return reach


def _guard(p: Construction) -> tuple[tuple[int, Ident | None], ...]:
    """``(index, head)`` for each scope argument of pattern ``p`` whose body
    is a construction with that head, or a variable (head None)."""
    guard = []
    for i, piece in enumerate(p.args):
        if piece.__class__ is ScopePiece:
            if piece.body.__class__ is Construction:
                guard.append((i, piece.body.head))
            elif piece.body.__class__ is Var:
                guard.append((i, None))
    return tuple(guard)


def _first_match(rules: Sequence[RewriteRule], t: Construction, undone: list
                 ) -> tuple[RewriteRule | None, Valuation | None, set[int] | None]:
    """``(rule, valuation, None)`` for the first of ``rules`` whose pattern
    matches ``t``, tried in order through ``match_term`` with ``undone``;
    a rule whose guard ``t`` fails is not tried.  Else ``(None, None,
    failed)``, where ``failed`` is the set of the indices of the rules that
    failed undoably, or None."""
    args, failed = t.args, None
    for rule in rules:
        for i, head in rule.guard:
            try:
                body = args[i].body
            except (AttributeError, IndexError):
                continue  # an ill-sorted subject, which ``match_term`` rejects
            if not (body.head == head if body.__class__ is Construction
                    else head is None and body.__class__ is Var):
                break
        else:
            val = match_term(rule.decl.lhs, t, _undone=undone)
            if val is not None:
                return rule, val, None
            if undone:
                undone.clear()
                failed = {rule.index} if failed is None else failed | {rule.index}
    return None, None, failed


def _index_by_head(gamma: GlobalEnv, rules: Sequence[RewriteRule]
                   ) -> dict[Ident, list[RewriteRule]]:
    """The rules whose pattern has a scheme head, by that head, in
    declaration order."""
    by_head: dict[Ident, list[RewriteRule]] = {}
    for rule in rules:
        if rule.decl.lhs.head in gamma.fun:
            by_head.setdefault(rule.decl.lhs.head, []).append(rule)
    return by_head


# A frame of the zipper is one ancestor of the focus, a list
# ``[node, i, j, at]``.  The ancestor is ``node`` with its child on the
# focus's branch, the body of argument ``i`` (``j`` None) or the value of
# entry ``j`` of list ``i``, as the hole; ``node`` may hold an older child
# there until the hole is plugged.  ``at`` is the length of the ancestor's
# position.
_NODE, _I, _J, _AT = range(4)


def _plugged(f: list, t: Term) -> Construction:
    """Frame ``f``'s node with ``t`` in the hole, rebuilt only if ``t`` is
    not the child there; the frame keeps the result."""
    node, i, j = f[_NODE], f[_I], f[_J]
    p = node.args[i]
    if j is None:
        if p.body is t:
            return node
        p = ScopePiece(p.binders, t)
    else:
        entries = p.entries
        if entries[j].value is t:
            return node
        p = AssocPiece(entries[:j] + (MapEntry(entries[j].key, t),) + entries[j + 1:])
    args = node.args
    node = f[_NODE] = Construction(node.head, args[:i] + (p,) + args[i + 1:])
    return node


def _next(args: tuple[Piece, ...], i: int, j: int | None) -> tuple[int, int | None, Term] | None:
    """The child after the one at ``i``, ``j`` in pre-order, as ``(i, j,
    child)``, or None; ``i = -1`` asks for the first child."""
    if j is not None:
        entries = args[i].entries
        for j in range(j + 1, len(entries)):
            if entries[j].__class__ is MapEntry:
                return i, j, entries[j].value
    for i in range(i + 1, len(args)):
        p = args[i]
        if p.__class__ is ScopePiece:
            return i, None, p.body
        for j, e in enumerate(p.entries):
            if e.__class__ is MapEntry:
                return i, j, e.value
    return None


class _Zipper:
    """A term being normalized, held as a focus and the frames of its
    ancestors, root first (Huet, "The Zipper", JFP 1997).

    ``path`` is the focus's position, and ``retry`` maps each frame whose
    retry set is not empty, by index, to that set.  ``undone`` is the list
    every attempt passes ``match_term``.  After a step the focus is the
    contractum, and every frame's node was tried with every rule of its
    head and failed, undoably for the rules in its retry set.  A frame d
    levels up is tried again with its head's rules of reach d or more and
    its retry set, so with the set alone above ``reach``, the largest reach.
    """

    def __init__(self, t: Term, by_head: dict[Ident, list[RewriteRule]]):
        self.focus = t
        self.by_head = by_head
        self.frames: list[list] = []
        self.path: list[int] = []
        self.retry: dict[int, set[int]] = {}
        self.undone: list = []
        self.reach = max((r.reach for rules in by_head.values() for r in rules), default=0)

    def root(self) -> Term:
        return self._up(len(self.frames), self.focus)

    def _up(self, k: int, t: Term, top: int = 0) -> Term:
        """Plug ``t`` into frame ``k - 1``, that frame's node into frame
        ``k - 2``, and so on up to frame ``top``, whose node is returned."""
        for f in reversed(self.frames[top:k]):
            t = _plugged(f, t)
        return t

    def _names(self, k: int, redex: Term) -> Iterator[Ident]:
        """Every name of the current term, with ``redex`` under frame
        ``k - 1``, built only when first iterated."""
        yield from all_idents(self._up(k, redex))

    def step(self) -> RewriteStep | None:
        """Contract the leftmost-outermost redex and focus on its
        contractum, or focus on the root and return None."""
        if self.frames:
            hit = self._retry()
            if hit is not None:
                return hit
        frames, path, retry, by_head = self.frames, self.path, self.retry, self.by_head
        t = self.focus
        while True:
            if t.__class__ is Construction:
                rules = by_head.get(t.head)
                failed = None
                if rules:
                    rule, val, failed = _first_match(rules, t, self.undone)
                    if rule is not None:
                        return self._contract(len(frames), t, rule, val)
                down = _next(t.args, -1, None)
                if down is not None:
                    i, j, child = down
                    if failed:
                        retry[len(frames)] = failed
                    frames.append([t, i, j, len(path)])
                    path.append(i)
                    if j is not None:
                        path.append(j)
                    t = child
                    continue
            # Right, else up: one level rebuilt per move, where it changed.
            while frames:
                f = frames[-1]
                t = _plugged(f, t)
                del path[f[_AT]:]
                right = _next(t.args, f[_I], f[_J])
                if right is not None:
                    i, j, t = right
                    f[_I], f[_J] = i, j
                    path.append(i)
                    if j is not None:
                        path.append(j)
                    break
                frames.pop()
                if retry:
                    retry.pop(len(frames), None)
            else:
                self.focus = t
                return None

    def _retry(self) -> RewriteStep | None:
        """Retry the ancestors top-down, each with the rules that reach it
        and its retry set.  Only the levels up to the topmost one tried are
        rebuilt."""
        frames, by_head, retry = self.frames, self.by_head, self.retry
        n = len(frames)
        top = max(0, n - self.reach)
        tries, ks = [], range(top, n)
        if retry:
            ks = [*sorted(k for k in retry if k < top), *ks]
        for k in ks:
            f = frames[k]
            rules = by_head.get(f[_NODE].head)
            if rules:
                d, again = n - k, retry.get(k, ()) if retry else ()
                rules = [r for r in rules if r.reach >= d or r.index in again]
                if rules:
                    tries.append((k, rules))
        if tries:
            self._up(n, self.focus, tries[0][0])
        for k, rules in tries:
            rule, val, failed = _first_match(rules, frames[k][_NODE], self.undone)
            if rule is not None:
                return self._contract(k, frames[k][_NODE], rule, val)
            if failed:
                retry[k] = failed
            elif retry:
                retry.pop(k, None)
        return None

    def _contract(self, k: int, redex: Construction, rule: RewriteRule, val: Valuation
                  ) -> RewriteStep:
        """Contract ``redex``, the node under frame ``k - 1``, and focus on
        the contractum."""
        self.focus = contract(rule.decl.rhs, val, self._names(k, redex),
                              _rhs_vars=rule.rhs_vars)
        frames = self.frames
        if k < len(frames):
            del self.path[frames[k][_AT]:]
            del frames[k:]
            if self.retry:
                for i in [i for i in self.retry if i >= k]:
                    del self.retry[i]
        return RewriteStep(tuple(self.path), rule.index)


def rewrite_step(gamma: GlobalEnv, rules: Sequence[RewriteRule], t: Term, *,
                 _zipper: _Zipper | None = None) -> tuple[Term, RewriteStep] | None:
    """Contract the leftmost-outermost matching redex, or return None.

    The search descends under binders and into association values, and
    fresh names avoid every name of the term.  ``normalize`` passes
    ``_zipper``, the zipper it made of ``t``, and the step resumes at the
    last one; the result then holds the contractum, not the whole term,
    which the caller rebuilds from the zipper when it needs it.
    """
    zipper = _Zipper(t, _index_by_head(gamma, rules)) if _zipper is None else _zipper
    step = zipper.step()
    if step is None:
        return None
    return (zipper.root() if _zipper is None else zipper.focus), step


def normalize(gamma: GlobalEnv, rules: Sequence[RewriteRule], t: Term,
              fuel: int = 10000,
              on_step: Callable[[Term, RewriteStep], None] | None = None
              ) -> NormalizeResult:
    """Rewrite until no rule matches anywhere, or until fuel runs out.

    Each step is one ``rewrite_step`` on one zipper of the term, whose
    rules are indexed by head once.  The whole term is rebuilt only for
    ``on_step``, when a contraction draws a fresh name, and at the end.
    Scheme-headed subterms with no matching rule are part of the normal
    form.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps: list[RewriteStep] = []
    zipper = _Zipper(t, _index_by_head(gamma, rules))
    for _ in range(fuel):
        hit = rewrite_step(gamma, rules, t, _zipper=zipper)
        if hit is None:
            return NormalizeResult(zipper.root(), steps, NormalStatus.NORMAL_FORM)
        steps.append(hit[1])
        if on_step is not None:
            on_step(zipper.root(), hit[1])
    current = zipper.root()
    if rewrite_step(gamma, rules, t, _zipper=zipper) is None:
        return NormalizeResult(current, steps, NormalStatus.NORMAL_FORM)
    return NormalizeResult(current, steps, NormalStatus.FUEL_EXHAUSTED)


def format_step(number: int, step: RewriteStep, rule: RewriteRule, term: Term,
                *, unicode: bool = False) -> str:
    """One trace record: the step header line plus the rendered term."""
    pos = "[" + ",".join(str(i) for i in step.position) + "]"
    decl = render(rule.decl, unicode=unicode).removesuffix(";")
    header = f"step {number} at {pos} by rule {rule.index} ({decl})"
    return header + "\n" + render(term, unicode=unicode)
