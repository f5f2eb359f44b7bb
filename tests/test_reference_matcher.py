"""``match_term`` against a reference matcher written for clarity, not speed.

The reference pairs binders explicitly, one fresh object per pair, and
tries every injective assignment of a pattern list's entries to a subject
list's, with at most four entries per list; a catch-all takes the rest.
It checks absence entries and the binders a meta-variable may not use
directly, compares the two occurrences of a non-linear meta-variable with
``alpha_equal``, and abstracts each fragment over fresh parameters ``p0``,
``p1``, ... with ``substitute``.  It backtracks and may take exponential
time, and it finds every valuation, so it shows that a checked pattern has
at most one.
"""

from __future__ import annotations

import random
from itertools import islice, permutations

from plank import (
    alpha_equal,
    check_script,
    contract,
    match_term,
    parse_script,
    render,
    substitute,
)
from plank.rewrite import Abstraction, EngineError, Valuation
from plank.terms import (
    AssocForm,
    AssocPiece,
    CatchAll,
    Construction,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    ScopePiece,
    Var,
    all_idents,
    free_vars,
)

from conftest import (
    BETA_ETA,
    CBV_EVAL,
    CLASHING_NAMES,
    IN_VALUE,
    NONLINEAR,
    REACH_TWO,
    UNTAKEN,
)
from test_parser import _nodes
from test_rewrite import strip_not_keys

SCRIPTS = [parse_script(text) for text in (BETA_ETA, CBV_EVAL, NONLINEAR, REACH_TWO, IN_VALUE,
                                            UNTAKEN, CLASHING_NAMES)]
RULES = [(rule.lhs, rule.rhs) for script in SCRIPTS for rule in script.rules]
# Each rule with its script's global environment.
SIGNED = [(rule.lhs, rule.rhs, check_script(script).gamma)
          for script in SCRIPTS for rule in script.rules]

# Names of the drawn subjects: free names, keys and binders, which the
# mutations respell into one another.  None is a reference parameter.
_NAMES = [Ident(n) for n in ("a", "b", "u", "x", "k")]


def reference_match(pattern, subject) -> Valuation | None:
    """The valuation of the first way ``pattern`` matches ``subject``, or None."""
    for metas, var_bind in _valuations(pattern, subject):
        return Valuation({m: Abstraction(ab.binders, ab.body) for m, ab in metas.items()},
                         var_bind)
    return None


def _valuations(pattern, subject):
    """Every way ``pattern`` matches ``subject``, as ``(metas, var_bind)``."""
    return _solve([(pattern, subject, {}, {})], {}, {}, [])


def _solve(goals, metas, var_bind, absent):
    """Every ``(metas, var_bind)`` that matches each ``(pattern, subject,
    pattern pairs, subject pairs)`` goal and leaves each absence entry
    ``(key, pattern pairs, subject keys)`` absent.  The pairs map a binder
    name in scope to the object its binder shares with its partner."""
    if not goals:
        if all((pb[w] if w in pb else var_bind[w]) not in keys for w, pb, keys in absent):
            yield metas, var_bind
        return
    (p, s, pb, sb), goals = goals[0], goals[1:]
    if isinstance(p, Var):
        if not isinstance(s, Var):
            return
        if p.name in pb:
            if sb.get(s.name) is pb[p.name]:
                yield from _solve(goals, metas, var_bind, absent)
        elif s.name not in sb and var_bind.get(p.name, s.name) == s.name:
            yield from _solve(goals, metas, var_bind | {p.name: s.name}, absent)
    elif isinstance(p, (MetaApp, CatchAll)):
        ab = _abstract(p.args, s, pb, sb)
        seen = metas.get(p.meta)
        if ab is not None and (seen is None or alpha_equal(seen, ab)):
            yield from _solve(goals, metas | {p.meta: seen or ab}, var_bind, absent)
    elif isinstance(p, Construction):
        if isinstance(s, Construction) and (s.head, len(s.args)) == (p.head, len(p.args)):
            yield from _solve([*((pp, sp, pb, sb) for pp, sp in zip(p.args, s.args)), *goals],
                              metas, var_bind, absent)
    elif isinstance(p, ScopePiece):
        if isinstance(s, ScopePiece) and len(s.binders) == len(p.binders):
            pairs = [object() for _ in p.binders]
            inner = (p.body, s.body, pb | dict(zip(p.binders, pairs)),
                     sb | dict(zip(s.binders, pairs)))
            yield from _solve([inner, *goals], metas, var_bind, absent)
    elif isinstance(s, AssocPiece):
        yield from _solve_list(p, s, pb, sb, goals, metas, var_bind, absent)


def _solve_list(p, s, pb, sb, goals, metas, var_bind, absent):
    # A subject list is a map: a later key overrides an earlier one.
    entries = {sb.get(e.key, e.key): e for e in s.entries}
    assert len(entries) <= 4
    named = [e for e in p.entries if isinstance(e, MapEntry)]
    rest_meta = [e for e in p.entries if isinstance(e, CatchAll)]
    absent = absent + [(e.key, pb, set(entries)) for e in p.entries if isinstance(e, NotKey)]
    for chosen in permutations(entries, len(named)):
        vb = var_bind
        for e, k in zip(named, chosen):
            if e.key in pb or e.key in vb:
                if (pb[e.key] if e.key in pb else vb[e.key]) != k:
                    break
            elif isinstance(k, str):
                vb = vb | {e.key: k}
            else:
                break  # a free pattern key cannot name a subject binder
        else:
            more = [(e.value, entries[k].value, pb, sb) for e, k in zip(named, chosen)]
            rest = AssocPiece(tuple(e for k, e in entries.items() if k not in chosen))
            if rest_meta:
                more.append((rest_meta[0], rest, pb, sb))
            elif rest.entries:
                continue
            yield from _solve(more + goals, metas, vb, absent)


def _abstract(args, s, pb, sb):
    """``s`` abstracted over the subject binders paired with ``args`` as a
    scope over ``p0``, ``p1``, ..., or None if it uses another binder in
    scope."""
    pairs = [pb[a.name] for a in args]
    if free_vars(s) & {u for u, pair in sb.items() if pair not in pairs}:
        return None
    params = tuple(Ident(f"p{i}") for i in range(len(pairs)))
    sub = {u: Var(params[pairs.index(pair)]) for u, pair in sb.items() if pair in pairs}
    return ScopePiece(params, substitute(s, sub))


# ---------------------------------------------------------------------------
# Draws


def _fragment(rng, names, depth):
    """A ground term over ``names``: variables, ``A()``, ``G``, ``Lam`` and
    ``E`` with a list of at most four entries."""
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return Var(rng.choice(names)) if rng.random() < 0.7 else Construction(Ident("A"))
    if r < 0.6:
        return Construction(Ident("G"), tuple(ScopePiece((), _fragment(rng, names, depth - 1))
                                              for _ in range(rng.randint(1, 2))))
    if r < 0.85:
        return Construction(Ident("Lam"), (ScopePiece((rng.choice(_NAMES),),
                                                      _fragment(rng, names, depth - 1)),))
    return Construction(Ident("E"), (_entries(rng, names, rng.randint(0, 4), depth - 1),))


def _entries(rng, names, n, depth):
    keys = rng.sample(names, min(n, len(names)))
    return AssocPiece(tuple(MapEntry(k, _fragment(rng, names, depth)) for k in keys))


def _drawn(rng, gamma, head, depth):
    """A construction of ``head`` drawn from the signatures of ``gamma``
    alone: each argument follows its declared form, a scope binds names of
    ``_NAMES`` and a list has at most four entries keyed by them.  Below the
    root stands a variable or a construction, of a data constructor where
    there are any, as a pattern has only those there."""
    def term(depth):
        if depth <= 0 or rng.random() < 0.3:
            return Var(rng.choice(_NAMES))
        return _drawn(rng, gamma, rng.choice(heads), depth - 1)
    heads = sorted(gamma.con.keys() - gamma.fun) or sorted(gamma.con)
    args = []
    for form in gamma.con[head].forms:
        if isinstance(form, AssocForm):
            keys = rng.sample(_NAMES, rng.randint(0, 4))
            args.append(AssocPiece(tuple(MapEntry(k, term(depth)) for k in keys)))
        else:
            args.append(ScopePiece(tuple(rng.sample(_NAMES, len(form.binder_sorts))),
                                   term(depth)))
    return Construction(head, tuple(args))


def _instance(rng, pattern):
    """A subject ``pattern`` matches: a drawn valuation contracted into it,
    with its binders respelled from ``_NAMES``."""
    meta_bind = {}
    for n in _nodes(pattern):
        if isinstance(n, (MetaApp, CatchAll)) and n.meta not in meta_bind:
            params = tuple(Ident(f"q{i}") for i in range(len(n.args)))
            names = [*params, *_NAMES]
            body = (_entries(rng, names, rng.randint(0, 3), 2) if isinstance(n, CatchAll)
                    else _fragment(rng, names, 2))
            meta_bind[n.meta] = Abstraction(params, body)
    var_bind = {w: rng.choice(_NAMES) for w in sorted(free_vars(pattern))}
    subject = contract(strip_not_keys(pattern), Valuation(meta_bind, var_bind), set(_NAMES))
    return _respell(rng, subject, 0.5, binders=True)


def _respell(rng, t, rate, binders=False):
    """``t`` with each binder (if ``binders``), or else each variable and
    key, respelled from ``_NAMES`` with probability ``rate``."""
    def name(w, here):
        return rng.choice(_NAMES) if here and rng.random() < rate else w

    def go(x):
        if isinstance(x, Var):
            return Var(name(x.name, not binders))
        if isinstance(x, Construction):
            return Construction(x.head, tuple(map(go, x.args)))
        if isinstance(x, ScopePiece):
            return ScopePiece(tuple(name(b, binders) for b in x.binders), go(x.body))
        if isinstance(x, AssocPiece):
            return AssocPiece(tuple(map(go, x.entries)))
        return MapEntry(name(x.key, not binders), go(x.value))
    return go(t)


def _mutated(rng, t):
    """``t`` with one drawn change: variables or keys respelled, a subterm
    replaced by a drawn fragment, or a list's entry dropped or added."""
    kind = rng.randrange(3)
    if kind == 0:
        return _respell(rng, t, 0.3)

    def go(x, depth):
        if isinstance(x, Construction):
            if depth > 0 and kind == 1 and rng.random() < 0.25:
                return _fragment(rng, _NAMES, 2)
            return Construction(x.head, tuple(go(p, depth + 1) for p in x.args))
        if isinstance(x, ScopePiece):
            return ScopePiece(x.binders, go(x.body, depth))
        if isinstance(x, AssocPiece):
            entries = [MapEntry(e.key, go(e.value, depth)) for e in x.entries]
            if kind == 2 and rng.random() < 0.5:
                if entries and rng.random() < 0.5:
                    del entries[rng.randrange(len(entries))]
                elif len(entries) < 4:
                    entries.append(MapEntry(rng.choice(_NAMES), _fragment(rng, _NAMES, 1)))
            return AssocPiece(tuple(entries))
        return x
    return go(t, 0)


def _contracted(rhs, val, subject):
    """``rhs`` contracted under ``val``, or None where that puts a term in a
    key position, as a drawn subject that is not well sorted can ask."""
    try:
        return contract(rhs, val, all_idents(subject))
    except EngineError:
        return None


def _agreed(lhs, rhs, subject) -> Valuation | None:
    """``match_term``'s valuation, after checking that the reference matcher
    succeeds exactly when it does, and that where both do, contracting
    ``rhs`` under either valuation gives alpha-equal terms or fails under
    both."""
    val, ref = match_term(lhs, subject), reference_match(lhs, subject)
    assert (val is None) == (ref is None), (render(lhs), render(subject))
    if val is not None:
        got, want = _contracted(rhs, val, subject), _contracted(rhs, ref, subject)
        assert got == want if None in (got, want) else alpha_equal(got, want), (
            render(lhs), render(subject))
    return val


def test_match_term_agrees_with_the_reference_matcher():
    # Each draw instantiates a corpus or clashing pattern, and most draws
    # then change it.  A checked pattern is deterministic: it has at most
    # one valuation per subject, as binders pair up in order, each key
    # resolves, through a binder or a variable matched before its list, to
    # one subject key, and a list has at most one catch-all (SAP-All),
    # which takes the rest.
    rng = random.Random(0)
    outcomes = {True: 0, False: 0}
    hidden = 0
    draws = 3000
    for _ in range(draws):
        lhs, rhs = rng.choice(RULES)
        subject = _instance(rng, lhs)
        if rng.random() < 0.8:
            subject = _mutated(rng, subject)
        val = _agreed(lhs, rhs, subject)
        assert len(list(islice(_valuations(lhs, subject), 2))) <= 1, render(subject)
        outcomes[val is not None] += 1
        if val is not None:
            hidden += any(None in ab.params for ab in val.meta_bind.values())
    assert min(outcomes.values()) >= draws // 10, outcomes
    assert hidden > 0


def test_match_term_agrees_with_the_reference_on_signature_draws():
    # Each subject is drawn from its rule's script signatures alone, with
    # the pattern's head at the root, so nothing steers it towards a match.
    rng = random.Random(1)
    outcomes = {True: 0, False: 0}
    draws = 2000
    for _ in range(draws):
        lhs, rhs, gamma = rng.choice(SIGNED)
        outcomes[_agreed(lhs, rhs, _drawn(rng, gamma, lhs.head, 3)) is not None] += 1
    assert min(outcomes.values()) >= draws // 10, outcomes
