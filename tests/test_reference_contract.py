"""``contract`` against an instantiation by the definition, with no shortcut.

The reference instantiates a right side node by node.  Every meta-variable
and catch-all goes through ``substitute(body, dict(zip(params, args)))``,
even with nothing to substitute, and every association list is rebuilt
entry by entry through a dict by key, a later key overriding an earlier one
in its first position, so a list that is one catch-all gets no shortcut
either.  It draws fresh names from the same supply, in the same order, as
``contract``: the right side's unbound variables in sorted order, then each
binder as the walk meets it.  So the two agree with ``==``, which compares
names exactly, binder names included.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import plank.rewrite
from plank import check_ground_subject, normalize, parse_term, substitute
from plank.rewrite import Abstraction, EngineError, NormalStatus, Valuation
from plank.terms import (
    AssocPiece,
    CatchAll,
    Construction,
    Ident,
    MapEntry,
    MetaApp,
    ScopePiece,
    Var,
    free_vars,
    fresh_var,
)

from conftest import CLASHING_CASES, CLASHING_NAMES
from test_regression import ENGINE_PINS, GENERATED, _engine, _subjects


def reference_contract(rhs, val, avoid):
    """``rhs`` instantiated with ``val``, fresh names avoiding ``avoid``."""
    taken = set(avoid)

    def fresh(hint):
        name = fresh_var(hint, taken)
        taken.add(name)
        return name

    rho = dict(val.var_bind)
    for w in sorted(free_vars(rhs)):
        if w not in val.var_bind:
            rho[w] = fresh(w)
    return _instantiate(rhs, rho, val, fresh)


def _instantiate(x, rho, val, fresh):
    if isinstance(x, Var):
        return Var(rho[x.name])
    if isinstance(x, Construction):
        return Construction(x.head, tuple(_instantiate(p, rho, val, fresh) for p in x.args))
    if isinstance(x, ScopePiece):
        binders = tuple(fresh(b) for b in x.binders)
        inner = {**rho, **dict(zip(x.binders, binders))}
        return ScopePiece(binders, _instantiate(x.body, inner, val, fresh))
    if isinstance(x, (MetaApp, CatchAll)):
        ab = val.meta_bind.get(x.meta)
        if ab is None:
            raise EngineError(f"no binding for meta-variable {x.meta} (MissingBinding)")
        if len(ab.params) != len(x.args):
            raise EngineError(f"arity mismatch instantiating {x.meta}")
        args = [_instantiate(a, rho, val, fresh) for a in x.args]
        return substitute(ab.body, dict(zip(ab.params, args)))
    merged = {}
    for e in x.entries:
        if isinstance(e, MapEntry):
            merged[rho[e.key]] = MapEntry(rho[e.key], _instantiate(e.value, rho, val, fresh))
        else:
            for c in _instantiate(e, rho, val, fresh).entries:
                merged[c.key] = c
    return AssocPiece(tuple(merged.values()))


@contextmanager
def _compared():
    """Within the block every contraction the engine makes is checked
    against the reference; yields the list of the contracta."""
    seen = []
    original = plank.rewrite.contract

    def compared(rhs, val, avoid, **kw):
        names = set(avoid)
        out = original(rhs, val, names, **kw)
        assert out == reference_contract(rhs, val, names)
        seen.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plank.rewrite, "contract", compared)
        yield seen


def _contractions(result):
    """The contractions ``normalize`` made: one per step, and one more that
    showed the last term was no normal form when fuel ran out."""
    return len(result.steps) + (result.status is NormalStatus.FUEL_EXHAUSTED)


NAMED = ([p[:4] for p in ENGINE_PINS]
         + [(c[0], CLASHING_NAMES, c[1], 10) for c in CLASHING_CASES])


def test_contract_agrees_with_the_reference_on_the_named_cases():
    contracted = set()
    for label, source, term, fuel in NAMED:
        gamma, rules = _engine(source)
        subject = parse_term(term)
        check_ground_subject(gamma, subject)
        with _compared() as seen:
            result = normalize(gamma, rules, subject, fuel=fuel)
        assert len(seen) == _contractions(result), label
        if seen:
            contracted.add(label)
    assert contracted == {p[0] for p in ENGINE_PINS} | {c[0] for c in CLASHING_CASES if c[3]}


@pytest.mark.parametrize("label", sorted(GENERATED))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_contract_agrees_with_the_reference_on_generated_subjects(label, data):
    gamma, rules = _engine(GENERATED[label])
    subject = data.draw(_subjects(gamma))
    with _compared() as seen:
        result = normalize(gamma, rules, subject, fuel=30)
    assert len(seen) == _contractions(result)


def _outcome(f, rhs, val):
    try:
        return f(rhs, val, {Ident("u"), Ident("k")})
    except EngineError as e:
        return str(e)


# A meta-variable #X and a catch-all #E where contraction may read them in
# place (a plain argument, a lone list, an entry's value, the whole right
# side) and where it may not (under a binder, as an argument, with one).
RIGHT_SIDES = ["F(#X, G(#X))", "F({#E})", "F({z : #X})", "F({#E, z : #X})", "#X",
               "F([y]#X)", "#B(#X)", "F(#X(z), {#E(z)})"]
_P, _Q = Ident("p"), Ident("q")
X_BINDINGS = [None, Abstraction((), parse_term("G(u)")), Abstraction((_P,), parse_term("G(p)"))]
E_BINDINGS = [None, Abstraction((), AssocPiece((MapEntry(Ident("k"), parse_term("u")),))),
              Abstraction((_P,), AssocPiece((MapEntry(Ident("k"), parse_term("p")),)))]


@pytest.mark.parametrize("rhs", RIGHT_SIDES)
def test_contract_agrees_with_the_reference_on_hand_built_valuations(rhs):
    # Each binding of #X and #E, none, without parameters and with one, so
    # that the right side's arity fits or not: both give the same term, or
    # the same MissingBinding or arity error.
    rhs = parse_term(rhs)
    for x, e in product(X_BINDINGS, E_BINDINGS):
        metas = {Ident("#X"): x, Ident("#E"): e, Ident("#B"): Abstraction((_Q,), parse_term("H(q)"))}
        val = Valuation({m: ab for m, ab in metas.items() if ab is not None})
        assert (_outcome(plank.rewrite.contract, rhs, val)
                == _outcome(reference_contract, rhs, val)), (rhs, x, e)
