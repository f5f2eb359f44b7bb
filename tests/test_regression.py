"""Pins that keep refactors of the checker and the engine honest.

* Spans take no part in equality or hashing, so the checker needs no
  span-stripping copies of sorts and forms.
* Rendered normal forms, (position, rule) sequences and ``--trace`` text
  on fixed inputs are byte-identical to the recorded ones, including every
  fresh name, and every intermediate term passes ``check_ground_subject``.
* ``normalize`` resumes each search at the last redex: it skips the nodes
  left of it, and retries an ancestor at distance d, counted in position
  indices, only with the rules whose pattern reaches d down, or that see a
  whole fragment (a meta-variable or catch-all under a binder it does not
  take, or used twice).  Its (position, rule) sequences, results and
  statuses equal those of a naive pre-order search that tries every rule
  everywhere, on the benchmark inputs and on hand-built cases of each
  exception.  Church mult 12 12 takes at most
  300 match attempts, and mult 4, 6 and 8 together at most 320.
* Every substitution made while normalizing the pinned inputs, which
  shares each subtree its kept name set allows, equals and renders as the
  substitution into a copy that keeps no set and so shares nothing.
* A right side's list that is one catch-all without arguments stands
  for the captured list as it is, which equals its rebuild by key on
  every call-by-value pin.
* The names ``all_idents`` keeps on each term object agree with a plain
  walk of the tree on every intermediate term.
* ``check_script`` infers each rule environment once, ``normalize``
  indexes the rules by head once, and the lexer classifies each distinct
  word once.
* The matcher walks no name set: the engine walks a term's names only
  when it draws a fresh name, and finds each right side's free variables
  once per rule.  Parsing,
  checking, normalizing and rendering leave no reference cycle at all, no
  nested function in the package recurses, and no walk recurses through a
  comprehension.  ``alpha_equal`` and ``substitute`` reach 275 and 400
  nested scopes under the default recursion limit, and ``normalize`` a
  redex under 450 levels of ``Lam([x]Ap(z, .))``.
* The ``--trace`` text of a run whose fresh names collide with the
  subject's names is byte-identical to the recorded one.
* Renaming a subject's binders, so that they shadow each other and take
  names free elsewhere, changes neither the step chosen nor its result up
  to alpha and to the fresh names the step draws.  The matcher's reserved
  names, made in one function, reach no traced term and do not parse.
* Full diagnostics of ill-sorted rules whose binders are all distinct from
  each other and from free names, and of malformed scripts, are
  byte-identical to the recorded ones.
* Every exported name, and every name the benchmark's traced run wraps,
  still resolves, no module imports a name it never uses, and every record
  field is read somewhere in the package.
* No module stores to a field of a built record, and no dataclass is
  frozen: records are immutable by this rule, not by the runtime.
* Every ``raise EngineError`` names the checker or environment diagnostic
  that rules it out on checked input.
"""

from __future__ import annotations

import ast
import functools
import gc
import hashlib
import importlib
import importlib.util
import io
import pkgutil
import re
import sys
import tokenize
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import plank
import plank.checker
import plank.rewrite
import plank.terms
from plank.cli import main
from plank import (
    ParseFailure,
    alpha_equal,
    check_ground_subject,
    check_script,
    contract,
    match_term,
    normalize,
    parse_script,
    parse_term,
    prepare_rules,
    render,
    rewrite_step,
    substitute,
)
from plank.env import ConSig, MetaForm, infer_rule_env
from plank.rewrite import format_step
from plank.terms import (
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
    CLASHING_CASES,
    CLASHING_NAMES,
    IN_VALUE,
    NONLINEAR,
    REACH_TWO,
    UNTAKEN,
)

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Span-blind equality


def _decl(text):
    return parse_script(text).declarations[0]


def test_equality_and_hashing_ignore_spans():
    near = _decl("Pair<L, L> data C([L]L, {L:L});")
    far = _decl("\n\n      Pair<L, L>   data C( [L]L ,{ L : L });")
    near_term = parse_term("Lam([x]Ap(x, #M))")
    far_term = parse_term("\n   Lam( [x] Ap(x,#M) )")
    pairs = [
        (near.sort, far.sort),
        (near.forms[0], far.forms[0]),
        (near.forms[1], far.forms[1]),
        (near_term, far_term),
        (ConSig(near.sort, near.forms), ConSig(far.sort, far.forms)),
        (MetaForm((near.sort,), near.forms[1]), MetaForm((far.sort,), far.forms[1])),
        (MetaForm((near.sort,), near.forms[0].body_sort),
         MetaForm((far.sort,), far.forms[0].body_sort)),
    ]
    assert near.sort.span != far.sort.span
    assert near.forms[0].span != far.forms[0].span
    assert near_term.span != far_term.span
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# Golden outputs


def _church(n):
    body = "x"
    for _ in range(n):
        body = f"Ap(f, {body})"
    return f"Lam([f]Lam([x]{body}))"


def _mult(n):
    mult = "Lam([m]Lam([n]Lam([g]Ap(m, Ap(n, g)))))"
    return f"Ap(Ap({mult}, {_church(n)}), {_church(n)})"


def _identity_chain(n):
    t = "Lam([y]y)"
    for _ in range(n):
        t = f"Ap(Lam([y]y), {t})"
    return f"Eval({t}, {{}})"


_OMEGA = "Eval(Ap(Lam([x]Ap(x, x)), Lam([x]Ap(x, x))), {})"


def _ap_g(k):
    return "Ap(g, " * k + "x" + ")" * k


# Recorded before the name traversals were merged; fresh names included.
GOLDEN = [
    ("mult-3", BETA_ETA, _mult(3), 10000, "NormalForm",
     f"Lam([g]Lam([x]{_ap_g(9)}))",
     [((0,), 0), ((), 0), ((0,), 0), ((0, 0, 0), 0), ((0, 0), 0),
      ((0, 0, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1, 1, 1, 1), 0)]),
    ("mult-4", BETA_ETA, _mult(4), 10000, "NormalForm",
     f"Lam([g]Lam([x]{_ap_g(16)}))",
     [((0,), 0), ((), 0), ((0,), 0), ((0, 0, 0), 0), ((0, 0), 0),
      ((0, 0, 1, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1, 1), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 0)]),
    ("chain-10", CBV_EVAL, _identity_chain(10), 10000, "NormalForm",
     "Lam([x]x)",
     [((), 1), ((0,), 0), ((), 3), ((), 2)] * 10 + [((), 0)]),
    ("omega-12", CBV_EVAL, _OMEGA, 12, "FuelExhausted",
     "Eval(Ap(z2, z2), {z : Eval(Lam([x]Ap(x, x)), {}), "
     "z1 : Eval(z, {z : Eval(Lam([x]Ap(x, x)), {})}), "
     "z2 : Eval(z1, {z : Eval(Lam([x]Ap(x, x)), {}), "
     "z1 : Eval(z, {z : Eval(Lam([x]Ap(x, x)), {})})})})",
     [((), 1), ((0,), 0), ((), 3), ((), 1), ((0,), 2), ((0,), 0), ((), 3),
      ((), 1), ((0,), 2), ((0,), 2), ((0,), 0), ((), 3)]),
]


@pytest.mark.parametrize("label,source,term,fuel,status,rendered,steps", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_normal_forms(label, source, term, fuel, status, rendered, steps):
    script = parse_script(source)
    checked = check_script(script)
    assert checked.ok
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(term), fuel=fuel)
    assert result.status.value == status
    assert render(result.term) == rendered
    assert [(s.position, s.rule_index) for s in result.steps] == steps


def _let_chain(depth):
    binders = "abcdefghij"[:depth]
    body = binders[0]
    for v in reversed(binders):
        body = f"Ap(Lam([{v}]{body}), Lam([y]y))"
    return f"Eval({body}, {{}})"


@pytest.mark.parametrize("source,term,fuel", [
    (BETA_ETA, _mult(3), 10000),
    (CBV_EVAL, _identity_chain(10), 10000),
    (CBV_EVAL, _let_chain(4), 10000),
    (CBV_EVAL, _OMEGA, 12),
], ids=["mult-3", "chain-10", "let-4", "omega-12"])
def test_every_intermediate_term_is_well_sorted(source, term, fuel):
    # Subject reduction: a well-sorted subject stays well-sorted at every
    # step, including the call-by-value steps that leave an environment
    # entry whose key no longer occurs anywhere else.
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    seen = [parse_term(term)]
    result = normalize(checked.gamma, rules, seen[0], fuel=fuel,
                       on_step=lambda t, _step: seen.append(t))
    assert len(seen) == len(result.steps) + 1 > 1
    for step, t in enumerate(seen):
        _, _, errors = check_ground_subject(checked.gamma, t)
        assert [e.format() for e in errors] == [], (step, render(t))


def _pin(text):
    """Short texts as they are, long ones as their sha256 digest."""
    return text if len(text) <= 100 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# Recorded before terms kept their name sets: status, step count, rendered
# normal form, (position, rule_index) sequence and ASCII --trace text.
# omega-40's trace was re-pinned when the matcher kept the subject's binder
# names: contraction's fresh binders then avoid fewer names (x2 became x1),
# and every traced term stayed alpha-equal to the one recorded before.
ENGINE_PINS = [
    ("mult-4", BETA_ETA, _mult(4), 10000, "NormalForm", 11,
     f"Lam([g]Lam([x]{_ap_g(16)}))",
     "sha256:e67b931069e1d4d1a88d03e8e6b47b525a2c270ed03a6ee63af4f918ca252722",
     "sha256:300464ce08102963782f38b17ec7f1fbc2a9e08502bb3d2ca36162f8574a1fe1"),
    ("mult-6", BETA_ETA, _mult(6), 10000, "NormalForm", 15,
     f"Lam([g]Lam([x]{_ap_g(36)}))",
     "sha256:8e9cbce085e4c6686950526d084fe1e4d577414563a393bc29fc81c89c05b94f",
     "sha256:5e0724c01a05278b5f27189bc0785c66eca9e1d96564457e9781ed31fd8c7aec"),
    ("mult-8", BETA_ETA, _mult(8), 10000, "NormalForm", 19,
     f"Lam([g]Lam([x]{_ap_g(64)}))",
     "sha256:9684c208407ffb29496b70ba38b976d5acefcc1589d404b6a4b72a5afd81d993",
     "sha256:a4b2066e763d07bc695a9d92cce33f59467802e880429fa7574d8b29bc210d41"),
    ("chain-80", CBV_EVAL, _identity_chain(80), 10000, "NormalForm", 321,
     "Lam([x]x)",
     "sha256:136619c655485b067ad57e84090b4c825d2162f2fd19d30c26dd8977608a769f",
     "sha256:3869959359672add413964b6758ae9d9d3cc81344dccb73c100d2de873c69a5e"),
    ("let-10", CBV_EVAL, _let_chain(10), 10000, "NormalForm", 32,
     "Lam([x]x)",
     "sha256:729cc5fea8bb8fa95be5d644c4da1fd5dc34151c579bcd57003b72387f000fab",
     "sha256:4075750c1532163fb5b5cdcb4d5f66348c58d758e86f44cfe0c901367c051226"),
    ("omega-40", CBV_EVAL, _OMEGA, 40, "FuelExhausted", 40,
     "sha256:cbcc9211ae15194162c411d5233e8e43398ed13dee23a89f0e64ba97f08c8e94",
     "sha256:5cd25f8ad20a2c1a363c3450cf59b37720b993fe1f041e600e109907c5b5b315",
     "sha256:cc19f17a2755ec7186b1345d948be76172401d8ae9f7d7d1bb7fdc427f20da00"),
]


@pytest.mark.parametrize("label,source,term,fuel,status,count,rendered,steps,trace",
                         ENGINE_PINS, ids=[p[0] for p in ENGINE_PINS])
def test_engine_outputs_are_pinned(label, source, term, fuel, status, count, rendered,
                                   steps, trace):
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    records = []

    def log_step(t, step):  # as ``plank normalize --trace`` prints it
        records.append(format_step(len(records) + 1, step, rules[step.rule_index], t) + "\n")

    result = normalize(checked.gamma, rules, parse_term(term), fuel=fuel, on_step=log_step)
    assert result.status.value == status
    assert len(result.steps) == count
    assert _pin(render(result.term)) == _pin(rendered)
    assert _pin(repr([(s.position, s.rule_index) for s in result.steps])) == steps
    assert _pin("".join(records)) == trace



# ---------------------------------------------------------------------------
# Shared substitution


def _unkept_copy(x):
    """``x`` rebuilt node by node, so that no construction of it keeps a name
    set and a substitution into it shares nothing."""
    if isinstance(x, Var):
        return Var(x.name)
    if isinstance(x, Construction):
        return Construction(x.head, tuple(map(_unkept_copy, x.args)))
    if isinstance(x, (MetaApp, CatchAll)):
        return type(x)(x.meta, tuple(map(_unkept_copy, x.args)))
    if isinstance(x, ScopePiece):
        return ScopePiece(x.binders, _unkept_copy(x.body))
    if isinstance(x, AssocPiece):
        return AssocPiece(tuple(map(_unkept_copy, x.entries)))
    if isinstance(x, MapEntry):
        return MapEntry(x.key, _unkept_copy(x.value))
    return NotKey(x.key)


def _replay_substitutions(monkeypatch, check_subject: bool) -> int:
    """Normalize the pinned cases and two clashing ones, with or without
    ``check_ground_subject`` first, and check every substitution made
    against a replay; return how many replacements that are not variables
    kept a name set when substituted."""
    calls = []
    with_sets = 0
    original = plank.rewrite.substitute

    def recording(body, binding):
        nonlocal with_sets
        with_sets += sum(not isinstance(r, Var) and r._idents is not None for r in binding.values())
        out = original(body, binding)
        calls.append((body, dict(binding), out))
        return out

    monkeypatch.setattr(plank.rewrite, "substitute", recording)
    sharing = set()
    clashing = [("beta-clash", BETA_ETA, "Ap(Lam([x]Ap(Lam([y]y), x)), y)", 10),
                ("cbv-colliding", CBV_EVAL, COLLIDING_TERM, 100)]
    cases = ENGINE_PINS + clashing
    for label, source, term, fuel, *_ in cases:
        script = parse_script(source)
        checked = check_script(script)
        rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
        calls.clear()
        subject = parse_term(term)
        if check_subject:
            check_ground_subject(checked.gamma, subject)
        normalize(checked.gamma, rules, subject, fuel=fuel)
        assert calls, label
        for body, binding, out in calls:
            copy = original(_unkept_copy(body), {w: _unkept_copy(r) for w, r in binding.items()})
            again = original(body, binding)
            assert copy == out == again, label
            assert render(copy) == render(out) == render(again), label
            if binding and isinstance(body, Construction):
                kept = set(map(id, _subterms(body)))
                if any(id(x) in kept for x in _subterms(out)):
                    sharing.add(label)
    assert sharing == {c[0] for c in cases} - {"chain-80", "omega-40", "beta-clash"}
    return with_sets


def test_shared_substitution_equals_a_full_copy(monkeypatch):
    # Every substitution made while normalizing the pinned cases, and two
    # whose binders clash with a replacement's free name, shares the
    # subtrees whose kept name sets allow it.  Replayed on copies that keep
    # no set, so that it shares nothing, and again on the originals, whose
    # later steps have kept more sets, it gives an equal result that renders
    # byte for byte alike, binder names included.  Some subtree is shared in
    # every case but chain-80, which substitutes only into variables, ω,
    # whose body holds its binder everywhere, and beta-clash, whose one
    # substitution renames the only binder beside the replaced variable.
    _replay_substitutions(monkeypatch, check_subject=False)


def test_shared_substitution_of_a_checked_subject_equals_a_full_copy(monkeypatch):
    # ``plank normalize`` and the benchmark check the subject first, which
    # keeps a name set on each of its constructions.  Then some replacements
    # keep one too, and ``substitute`` builds its guard from their sets.
    assert _replay_substitutions(monkeypatch, check_subject=True) > 0


def test_a_lone_catch_all_list_equals_its_merged_rebuild(monkeypatch):
    # Contraction gives a right side's list that holds only a catch-all
    # without arguments, such as each ``{#env}`` of the call-by-value rules,
    # as the list the catch-all captured.  On every call-by-value pin that
    # list equals the rebuild every other list gets: entry by entry through
    # a dict by key, where a later key overrides an earlier one in its first
    # position.
    lone = []
    original = plank.rewrite._inst

    def recording(t, rho, val, fresh):
        out = original(t, rho, val, fresh)
        if (isinstance(t, AssocPiece) and len(t.entries) == 1
                and isinstance(t.entries[0], CatchAll) and not t.entries[0].args):
            assert out is val.meta_bind[t.entries[0].meta].body
            lone.append(out)
        return out

    monkeypatch.setattr(plank.rewrite, "_inst", recording)
    for label, source, term, fuel, *_ in ENGINE_PINS:
        if source != CBV_EVAL:
            continue
        script = parse_script(source)
        checked = check_script(script)
        rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
        lone.clear()
        normalize(checked.gamma, rules, parse_term(term), fuel=fuel)
        assert lone, label
        for out in lone:
            assert out == AssocPiece(tuple({e.key: e for e in out.entries}.values())), label


# ---------------------------------------------------------------------------
# Resumed search


def _naive_step(rules, term):
    """The leftmost-outermost step of ``term`` with nothing skipped: a
    pre-order walk over positions that tries every rule at every
    construction in declaration order.  The reference for ``rewrite_step``,
    which shares none of its search."""
    todo = [((), term)]
    while todo:
        pos, sub = todo.pop()
        if not isinstance(sub, Construction):
            continue
        for rule in rules:
            val = match_term(rule.decl.lhs, sub)
            if val is not None:
                new = contract(rule.decl.rhs, val, all_idents(term))
                return _put(term, pos, new), (pos, rule.index)
        children = []
        for i, p in enumerate(sub.args):
            if isinstance(p, ScopePiece):
                children.append((pos + (i,), p.body))
                continue
            children += [(pos + (i, j), e.value) for j, e in enumerate(p.entries)
                         if isinstance(e, MapEntry)]
        todo += reversed(children)
    return None


def _put(term, pos, new):
    """``term`` with ``new`` at position ``pos``."""
    if not pos:
        return new
    args = list(term.args)
    p = args[pos[0]]
    if isinstance(p, ScopePiece):
        args[pos[0]] = ScopePiece(p.binders, _put(p.body, pos[1:], new))
    else:
        entries = list(p.entries)
        e = entries[pos[1]]
        entries[pos[1]] = MapEntry(e.key, _put(e.value, pos[2:], new))
        args[pos[0]] = AssocPiece(tuple(entries))
    return Construction(term.head, tuple(args))


def _restart_normalize(rules, term, fuel):
    """``normalize`` with every step taken by ``_naive_step``: the reference
    for the search that resumes at the last redex."""
    steps = []
    for _ in range(fuel):
        hit = _naive_step(rules, term)
        if hit is None:
            return term, steps, "NormalForm"
        term, step = hit
        steps.append(step)
    return term, steps, "NormalForm" if _naive_step(rules, term) is None else "FuelExhausted"


# Each hand-built case makes a redex at an ancestor farther above the last
# step than one level: η at a Lam three levels up once a step drops the
# binder's last free occurrence, K(#m, #m) once a step three levels down
# makes its arguments equal, a pattern of reach 2 at the grandparent, one
# of reach 2 once a step in an association value, two position indices
# down, builds the W it looks for, and a catch-all that does not take x
# once a step four levels down drops x.  The last two find a redex right of
# the last one's path: in the next argument, in the next entry of the same
# association list, and at the first entry of the next list.
RESUMED = [(f"mult-{n}", BETA_ETA, _mult(n), 10000, None) for n in range(2, 9)] + [
    ("chain-80", CBV_EVAL, _identity_chain(80), 10000, None),
    ("let-10", CBV_EVAL, _let_chain(10), 10000, None),
    ("omega-40", CBV_EVAL, _OMEGA, 40, None),
    ("eta-three-up", BETA_ETA, "Lam([x]Ap(Ap(z, Ap(Lam([u]z), x)), x))", 10000,
     [((0, 0, 1), 0), ((), 1)]),
    ("nonlinear-meta", NONLINEAR, "K(A(A(I(B()))), A(A(B())))", 10000,
     [((0, 0, 0), 1), ((), 0)]),
    ("reach-two", REACH_TWO, "F(G(I(H(B()))))", 10000, [((0, 0), 1), ((), 0)]),
    ("in-value", IN_VALUE, "F({p : I(W(B()))}, p)", 10000, [((0, 0), 1), ((), 0)]),
    ("untaken-catch-all", UNTAKEN, "Drop([x]Env({v : A(A(I(x)))}))", 10000,
     [((0, 0, 0, 0, 0), 1), ((), 0)]),
    ("next-argument", BETA_ETA, "Ap(Ap(Lam([x]x), z), Ap(Lam([y]y), w))", 10000,
     [((0,), 0), ((1,), 0)]),
    ("next-entry", UNTAKEN + "L data Two({L:L}, {L:L});",
     "Two({a : I(B()), b : A(I(B()))}, {c : I(B())})", 10000,
     [((0, 0), 1), ((0, 1, 0), 1), ((1, 0), 1)]),
]


@pytest.mark.parametrize("label,source,term,fuel,expected", RESUMED,
                         ids=[r[0] for r in RESUMED])
def test_resumed_search_chooses_the_redexes_of_a_search_from_the_root(label, source, term,
                                                                      fuel, expected):
    script = parse_script(source)
    checked = check_script(script)
    assert checked.ok, [e.format() for e in checked.errors]
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(term), fuel=fuel)
    reference, steps, status = _restart_normalize(rules, parse_term(term), fuel)
    assert [(s.position, s.rule_index) for s in result.steps] == steps
    assert render(result.term) == render(reference)
    assert result.status.value == status
    if expected is not None:
        assert steps == expected


def _tree_idents(t):
    """Every variable name of ``t`` by a plain walk of its tree: the
    reference for ``all_idents``."""
    out, todo = set(), [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            out.add(x.name)
        elif isinstance(x, MetaApp):
            todo.extend(x.args)
        else:
            for p in x.args:
                if isinstance(p, ScopePiece):
                    out.update(p.binders)
                    todo.append(p.body)
                    continue
                for e in p.entries:
                    if isinstance(e, CatchAll):
                        todo.extend(e.args)
                        continue
                    out.add(e.key)
                    if isinstance(e, MapEntry):
                        todo.append(e.value)
    return out


def _subterms(t):
    """Each distinct term object reachable from ``t``, once."""
    seen, todo = {}, [t]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen[id(x)] = x
        if isinstance(x, MetaApp):
            todo.extend(x.args)
        elif isinstance(x, Construction):
            for p in x.args:
                if isinstance(p, ScopePiece):
                    todo.append(p.body)
                    continue
                for e in p.entries:
                    if isinstance(e, CatchAll):
                        todo.extend(e.args)
                    elif isinstance(e, MapEntry):
                        todo.append(e.value)
    return list(seen.values())


@pytest.mark.parametrize("source,term,fuel", [
    (BETA_ETA, _mult(3), 10000),
    (CBV_EVAL, _identity_chain(10), 10000),
    (CBV_EVAL, _let_chain(4), 10000),
    (CBV_EVAL, _OMEGA, 12),
], ids=["mult-3", "chain-10", "let-4", "omega-12"])
def test_kept_names_match_a_tree_walk_on_every_intermediate_term(source, term, fuel):
    # The engine queries names while it rewrites, so most subterms of a later
    # term already hold their set; every one of them must still be right.
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    seen = [parse_term(term)]
    normalize(checked.gamma, rules, seen[0], fuel=fuel, on_step=lambda t, _step: seen.append(t))
    for step, t in enumerate(seen):
        for sub in _subterms(t):
            assert all_idents(sub) == _tree_idents(sub), (step, render(sub))


# ---------------------------------------------------------------------------
# Repeated work


@pytest.mark.parametrize("source", [BETA_ETA, CBV_EVAL], ids=["beta-eta", "cbv"])
def test_check_script_infers_each_rule_env_once(monkeypatch, source):
    script = parse_script(source)
    calls = []

    def counting(gamma, rule):
        calls.append(rule)
        return infer_rule_env(gamma, rule)

    monkeypatch.setattr(plank.checker, "infer_rule_env", counting)
    result = check_script(script)
    assert result.ok
    assert calls == list(script.rules)
    assert len(result.rule_envs) == len(script.rules)


def test_normalize_indexes_the_rules_by_head_once(monkeypatch):
    # ``normalize`` builds the index of the rules by head once for all its
    # steps; ``rewrite_step`` called alone builds its own on each call and
    # chooses the pinned steps.
    calls = []
    original = plank.rewrite._index_by_head

    def counting(gamma, rules):
        calls.append(len(rules))
        return original(gamma, rules)

    monkeypatch.setattr(plank.rewrite, "_index_by_head", counting)
    script = parse_script(CBV_EVAL)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(_identity_chain(80)))
    assert len(result.steps) == 321
    assert calls == [len(rules)]
    calls.clear()
    term, steps = parse_term(_identity_chain(80)), []
    while (hit := rewrite_step(checked.gamma, rules, term)) is not None:
        term, step = hit
        steps.append((step.position, step.rule_index))
    pin = next(p for p in ENGINE_PINS if p[0] == "chain-80")
    assert _pin(repr(steps)) == pin[7]
    assert len(calls) == len(steps) + 1


def test_lexer_classifies_each_distinct_word_once(monkeypatch):
    # The corpus pair 25 times, each copy's sort and constructor names with
    # their own suffix: 325 declarations, as in the benchmark's script.
    copies = []
    for i in range(25):
        text = BETA_ETA + CBV_EVAL
        copies.append(re.sub(r"(?<![#A-Za-z0-9_])[A-Z][A-Za-z0-9_]*",
                             lambda m: f"{m.group()}q{i}", text))
    text = "\n".join(copies)
    words = set(re.findall(r"[#A-Za-z][A-Za-z0-9_]*", text))
    calls = []
    original = plank.terms._check_spelling

    def counting(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(plank.terms, "_check_spelling", counting)
    script = parse_script(text)
    assert len(script.declarations) == 325
    assert len(calls) <= len(words)


def test_beta_eta_walks_no_names(monkeypatch):
    # No beta/eta right side draws a fresh name, and the matcher names each
    # subject binder by its own name, so normalizing walks no name set.
    callers = []

    def recording(t):
        callers.append(sys._getframe(1).f_code.co_name)
        return all_idents(t)

    monkeypatch.setattr(plank.rewrite, "all_idents", recording)
    script = parse_script(BETA_ETA)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(_mult(4)))
    assert render(result.term) == f"Lam([g]Lam([x]{_ap_g(16)}))"
    assert callers == []


def test_right_side_free_variables_are_computed_once_per_rule(monkeypatch):
    # prepare_rules sorts each right side's free variables once; contraction
    # then reads them from the rule instead of walking the right side again.
    callers = []

    def recording(t):
        callers.append(sys._getframe(1).f_code.co_name)
        return free_vars(t)

    monkeypatch.setattr(plank.rewrite, "free_vars", recording)
    script = parse_script(CBV_EVAL)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    assert callers == ["prepare_rules"] * len(script.rules)
    assert [r.rhs_vars for r in rules] == [tuple(sorted(free_vars(d.rhs))) for d in script.rules]
    callers.clear()
    result = normalize(checked.gamma, rules, parse_term(_identity_chain(10)))
    assert render(result.term) == "Lam([x]x)"
    assert "contract" not in callers


@pytest.mark.parametrize("sizes, most", [((12,), 300), ((4, 6, 8), 320)],
                         ids=["mult-12", "mult-4-6-8"])
def test_resumed_search_skips_attempts_that_cannot_match(monkeypatch, sizes, most):
    # Searching from the root on every step, Church mult 12 12 took 1,819
    # match attempts and mult 4, 6 and 8 together 939; retrying at the
    # ancestors of the last redex only the rules that can see it leaves
    # 246 and 278.
    attempts = []
    original = plank.rewrite.match_term

    def counting(pattern, subject):
        attempts.append(subject)
        return original(pattern, subject)

    monkeypatch.setattr(plank.rewrite, "match_term", counting)
    script = parse_script(BETA_ETA)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    for n in sizes:
        result = normalize(checked.gamma, rules, parse_term(_mult(n)))
        assert render(result.term) == f"Lam([g]Lam([x]{_ap_g(n * n)}))"
    assert len(attempts) <= most


@pytest.mark.parametrize("source,term,steps", [
    (BETA_ETA, _mult(2), 7),
    (CBV_EVAL, _identity_chain(2), 9),
], ids=["mult-2", "chain-2"])
def test_no_cycle_keeps_a_rewritten_term_alive(source, term, steps):
    # Every walk of the front end, the checker and the engine takes its state
    # as arguments, so no reference cycle is left behind: with the collector
    # off, parsing, checking, normalizing and rendering leave no garbage that
    # only the collector could free, and the subject is freed by reference
    # counting alone.
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        script = parse_script(source)
        checked = check_script(script)
        root = parse_term(term)
        ref = weakref.ref(root)
        _, _, errors = check_ground_subject(checked.gamma, root)
        rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
        result = normalize(checked.gamma, rules, root)
        del root
        assert ref() is None
        texts = [render(n, unicode=u) for n in (script, result.term) for u in (False, True)]
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == []
    assert errors == [] and checked.errors == []
    assert len(result.steps) == steps
    assert "→" in texts[1] and "->" in texts[0]


# The subject already holds x, x1, z and z1, so every fresh binder and every
# call-by-value z is suffixed.  Recorded before the lazy name sets, and
# re-pinned, each step alpha-equal to the old, when the matcher kept the
# subject's binder names: x3 became x2 and x2 became x1.
COLLIDING_TERM = "Eval(Ap(Lam([x1]Ap(x1, z)), Lam([x]z1)), {z : Lam([y]y), z1 : Lam([x]x)})"
COLLIDING_TRACE = """\
step 1 at [] by rule 1 (L rule Eval(Ap(#F, #A), {#env}) -> Apply(Eval(#F, {#env}), Eval(#A, {#env}), {#env}))
Apply(Eval(Lam([x1]Ap(x1, z)), {z : Lam([y]y), z1 : Lam([x]x)}), Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), {z : Lam([y]y), z1 : Lam([x]x)})
step 2 at [0] by rule 0 (L rule Eval(Lam([x]#B(x)), {#env}) -> Lam([x]#B(x)))
Apply(Lam([x2]Ap(x2, z)), Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), {z : Lam([y]y), z1 : Lam([x]x)})
step 3 at [] by rule 3 (L rule Apply(Lam([x]#B(x)), #V, {#env}) -> Eval(#B(z), {#env, z : #V}))
Eval(Ap(z2, z), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 4 at [] by rule 1 (L rule Eval(Ap(#F, #A), {#env}) -> Apply(Eval(#F, {#env}), Eval(#A, {#env}), {#env}))
Apply(Eval(z2, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 5 at [0] by rule 2 (L rule Eval(x, {#env, x : #V}) -> #V)
Apply(Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 6 at [0] by rule 0 (L rule Eval(Lam([x]#B(x)), {#env}) -> Lam([x]#B(x)))
Apply(Lam([x1]z1), Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 7 at [] by rule 3 (L rule Apply(Lam([x]#B(x)), #V, {#env}) -> Eval(#B(z), {#env, z : #V}))
Eval(z1, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), z3 : Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})})
step 8 at [] by rule 2 (L rule Eval(x, {#env, x : #V}) -> #V)
Lam([x]x)
"""


def test_trace_of_colliding_fresh_names(tmp_path, capsys):
    path = tmp_path / "cbv.plank"
    path.write_text(CBV_EVAL, encoding="utf-8")
    assert main(["normalize", str(path), "--trace", "--term", COLLIDING_TERM]) == 0
    out, err = capsys.readouterr()
    assert out == "Lam([x]x)\n"
    assert err == COLLIDING_TRACE


# ---------------------------------------------------------------------------
# Binder names


def _rebind(term, pick):
    """An alpha-variant of the ground term ``term`` whose binders take the
    names ``pick()`` draws, so that they shadow each other and share the
    spelling of free names elsewhere.  A drawn name that would capture a
    free name of the binder's body, or that another binder of the same
    scope took, gives way to the first of ``v0``, ``v1``, ... that does
    neither."""

    def go(x, env):
        if isinstance(x, Var):
            return Var(env.get(x.name, x.name))
        return Construction(x.head, tuple(piece(p, env) for p in x.args))

    def piece(p, env):
        if isinstance(p, AssocPiece):
            return AssocPiece(tuple(MapEntry(env.get(e.key, e.key), go(e.value, env))
                                    for e in p.entries))
        taken = {env.get(v, v) for v in free_vars(p.body) if v not in p.binders}
        env2, names = dict(env), []
        for b in p.binders:
            name, i = Ident(pick()), 0
            while name in taken or name in names:
                name, i = Ident(f"v{i}"), i + 1
            names.append(name)
            env2[b] = name
        return ScopePiece(tuple(names), go(p.body, env2))

    return go(term, {})


# Every pinned and hand-built subject: (label, script, subject, fuel).
NAMED_CASES = ([p[:4] for p in ENGINE_PINS] + [r[:4] for r in RESUMED if r[4] is not None]
               + [("cbv-colliding", CBV_EVAL, COLLIDING_TERM, 100)]
               + [(c[0], CLASHING_NAMES, c[1], 10) for c in CLASHING_CASES])


@functools.cache
def _traced(source, term, fuel):
    """The signature, the rules and every term of the run: the subject, each
    step's result and the last."""
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    terms = [parse_term(term)]
    normalize(checked.gamma, rules, terms[0], fuel=fuel, on_step=lambda t, _: terms.append(t))
    return checked.gamma, rules, terms


def _names_in_order(t, out):
    """``out`` extended with every name of ``t`` in pre-order."""
    if isinstance(t, Var):
        out.append(t.name)
        return out
    for p in t.args:
        if isinstance(p, ScopePiece):
            out.extend(p.binders)
            _names_in_order(p.body, out)
        else:
            for e in p.entries:
                out.append(e.key)
                _names_in_order(e.value, out)
    return out


def _fresh_bound(result, subject):
    """``result`` under one scope that binds the names a step from
    ``subject`` drew fresh, in the order they first occur."""
    drawn = free_vars(result) - free_vars(subject)
    return ScopePiece(tuple(n for n in dict.fromkeys(_names_in_order(result, []))
                            if n in drawn), result)


@given(st.sampled_from(NAMED_CASES), st.data())
@settings(max_examples=150, deadline=None)
def test_binder_names_do_not_change_a_step(case, data):
    # Binders renamed to x, y and z shadow each other and take the names
    # free elsewhere in the term; the step chosen is the same, and its
    # result the same up to alpha and to the fresh names the step drew,
    # which avoid the subject's binder names too (see the next test).
    gamma, rules, terms = _traced(*case[1:])
    term = terms[data.draw(st.integers(0, len(terms) - 1))]
    renamed = _rebind(term, lambda: data.draw(st.sampled_from("xyz")))
    assert alpha_equal(renamed, term)
    hit, again = rewrite_step(gamma, rules, term), rewrite_step(gamma, rules, renamed)
    assert (hit is None) == (again is None)
    if hit is not None:
        assert again[1] == hit[1]
        assert alpha_equal(_fresh_bound(again[0], renamed), _fresh_bound(hit[0], term))
        assert "%" not in render(again[0])


def test_a_fresh_name_avoids_the_subject_binders(ex2_checked, ex2_rules):
    # Found by the property above: a right side's free variable, the z of
    # the call-by-value Apply rule, is drawn against every name of the term,
    # bound ones included, so two alpha-variant subjects give results that
    # differ in that name.
    subjects = [parse_term(f"Apply(Lam([{b}]{b}), Lam([y]y), {{}})") for b in "xz"]
    results = [render(rewrite_step(ex2_checked.gamma, ex2_rules, s)[0]) for s in subjects]
    assert results == ["Eval(z, {z : Lam([y]y)})", "Eval(z1, {z1 : Lam([y]y)})"]


@pytest.mark.parametrize("label,source,term,fuel", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_no_reserved_name_reaches_a_traced_term(label, source, term, fuel):
    # The matcher's reserved canonical names stand only in valuations;
    # every term a run traces renders to text that parses back to it.
    for t in _traced(source, term, fuel)[2]:
        text = render(t)
        assert "%" not in text and parse_term(text) == t


def test_a_reserved_name_does_not_parse():
    # Three binders named u: the innermost, which #M takes, gets the
    # reserved name that its abstraction holds.
    pattern = parse_term("T(Lam([a]Lam([b]Lam([c]#M(c)))))")
    val = match_term(pattern, parse_term("T(Lam([u]Lam([u]Lam([u]u))))"))
    (name,) = val.meta_bind["#M"].params
    assert val.meta_bind["#M"].body == Var(name) and "%" in name
    with pytest.raises(ValueError):
        Ident(name)
    with pytest.raises(ParseFailure):
        parse_term(f"Lam([{name}]{name})")


# ---------------------------------------------------------------------------
# Diagnostics

PIN_SIGNATURE = """\
A data Ca();
A variable;
B data Cb();
B data Lb([A]B);
B variable;
L data Done();
L data Lam([L]L);
L variable;
B scheme F([A]B, B);
L scheme K(L, {L:L});
"""

# Recorded before binders were scoped lexically in the checker.
PINNED = [
    ("B rule F([a]#M(c), Cb()) -> Cb();",
     ["pin.plank:11:13: error[SMP-Meta]: meta-variable #M has no meta-form"]),
    ("B rule F([a]Lb([b]#M(a, a)), Cb()) -> Cb();",
     ["pin.plank:11:25: error[SMP-Meta]: arguments of #M must be pairwise distinct variables"]),
    ("B rule F([a]Lb([b]Cb()), Lb([c]c)) -> Cb();",
     ["pin.plank:11:32: error[SMP-Var]: variable c has sort A, expected B"]),
    ("B rule F([a]#M(a), Cb()) -> Lb([b]b);",
     ["pin.plank:11:35: error[SMC-Var]: variable b has sort A, expected B"]),
    ("L rule K(Done(), {x : #X}) -> Done();",
     ["pin.plank:11:19: error[SA-Map]: association key x does not occur outside an "
      "association (KeyNotElsewhere)"]),
    ("L rule K(Lam([a]Lam([b]#M(b))), {x : #X, #E}) -> K(Done(), {y : Done()});",
     ["pin.plank:11:34: error[SA-Map]: association key x does not occur outside an "
      "association (KeyNotElsewhere)",
      "pin.plank:11:61: error[SA-Map]: association key y does not occur outside an "
      "association (KeyNotElsewhere)"]),
    ("L rule K(x, {~x:}) -> K(x, {~x:});",
     ["pin.plank:11:29: error[SAP-Not]: absence entries are only allowed in patterns "
      "(NotKeyInContraction)"]),
    ("B rule F([a]#M(a), #M) -> Cb();",
     ["pin.plank:11:20: error[MetaFormConflict]: meta-variable #M used as () => B but "
      "earlier as (A) => B"]),
    ("B rule F([a]#M(a), Cb()) -> #M;",
     ["pin.plank:11:29: error[MetaFormConflict]: meta-variable #M used with 0 argument(s) "
      "at B but its meta-form is (A) => B"]),
    ("B rule F([a]Cb(), Cb()) -> #Q;",
     ["pin.plank:11:1: error[UnboundMetaOnRhs]: meta-variable #Q occurs in the "
      "contraction but not in the pattern"]),
    ("L rule K(Lam([a]#M(a)), {#E}) -> Lam([b]#M(Ca()));",
     ["pin.plank:11:44: error[SMS-Cons]: cannot substitute a non-variable at sort L, "
      "which admits syntactic variables"]),
    ("L rule x -> x;",
     ["pin.plank:11:8: error[SMP-Fun]: a rule pattern must be a scheme construction"]),
    # Recorded later.  Each meta-variable's first occurrence fixes its
    # meta-form; a later one whose arguments are not all variables of known
    # sorts raises no MetaFormConflict and reaches these checks.
    ("L rule K(#E(Done()), {#E}) -> Done();",
     ["pin.plank:11:10: error[SMP-Meta]: catch-all meta-variable #E cannot be used as a term"]),
    ("B rule F([a]#M(a), #M(Cb())) -> Cb();",
     ["pin.plank:11:20: error[SMP-Meta]: pattern arguments of #M must be bound variables, "
      "got Cb()"]),
    ("L rule K(#M, {#M(Done())}) -> Done();",
     ["pin.plank:11:15: error[SAP-All]: meta-variable #M is not a catch-all"]),
    # The binder x is out of scope at the absence entry, and no variable
    # of the pattern is x.
    ("L rule K(Lam([x]Done()), {~x:}) -> Done();",
     ["pin.plank:11:27: error[SAP-Not]: absence key x is not a variable of the pattern "
      "(KeyNotElsewhere)"]),
]


@pytest.mark.parametrize("rule,expected", PINNED, ids=[str(i) for i in range(len(PINNED))])
def test_pinned_diagnostics(rule, expected):
    result = check_script(parse_script(PIN_SIGNATURE + rule + "\n", file="pin.plank"))
    assert [e.format() for e in result.errors] == expected


# Recorded before the lexer became one compiled pattern; lexer and parser
# errors have since been listed together in source order.
MALFORMED_BASE = "L data Lam([L]L);\nL data Ap(L, L);\nL variable;\n"
MALFORMED = [
    ("missing-semicolon", MALFORMED_BASE + "L scheme F(L)\nL rule F(x) -> x;\n",
     ["bad.plank:5:1: error[parse]: expected ';', found 'L'"]),
    ("unclosed-paren", MALFORMED_BASE + "L scheme F(L;\n",
     ["bad.plank:4:13: error[parse]: expected ')', found ';'"]),
    ("stray-character", MALFORMED_BASE + "L scheme F(L) $;\n",
     ["bad.plank:4:15: error[parse]: unexpected character '$'"]),
    ("bad-keyword", MALFORMED_BASE + "L schema F(L);\n",
     ["bad.plank:4:3: error[parse]: expected 'data', 'scheme', 'variable', or 'rule', "
      "found 'schema'"]),
    ("duplicate-binders", MALFORMED_BASE + "L scheme F(L);\nL rule F(Lam([x, x]x)) -> x;\n",
     ["bad.plank:5:14: error[parse]: binders in one scope must be pairwise distinct"]),
    ("eof-in-comment", MALFORMED_BASE + "L scheme F(L) // no end",
     ["bad.plank:4:15: error[parse]: expected ';', found 'end of input'"]),
    ("two-bad-declarations", MALFORMED_BASE + "L scheme F(;\nL data (L);\nL scheme G(L);\n",
     ["bad.plank:4:12: error[parse]: expected a sort, found ';'",
      "bad.plank:5:8: error[parse]: expected a constructor name, found '('"]),
    ("missing-arrow", MALFORMED_BASE + "L scheme F(L);\nL rule F(x) x;\n",
     ["bad.plank:5:13: error[parse]: expected '->', found 'x'"]),
    # Recovery resumes only after a ';' where a declaration can start, so the
    # ';' inside '<...>' no longer gives a second error at 1:4.
    ("bad-sort-argument", "L<;> data C();\n",
     ["bad.plank:1:3: error[parse]: expected a sort, found ';'"]),
    ("semicolon-in-sort-arguments", "L<M; N> data C(); L data D();\n",
     ["bad.plank:1:4: error[parse]: expected '>', found ';'"]),
    ("unclosed-parens", "L data D(; L data E(; L data F();\n",
     ["bad.plank:1:10: error[parse]: expected a sort, found ';'",
      "bad.plank:1:21: error[parse]: expected a sort, found ';'"]),
    ("assoc-entry", "L scheme E({L:L});\nL rule E({(}) -> E({});\n",
     ["bad.plank:2:11: error[parse]: expected an association entry, found '('"]),
    ("lone-dash", "L scheme F(L);\nL rule F(x) - > x;\n",
     ["bad.plank:2:13: error[parse]: unexpected character '-'",
      "bad.plank:2:15: error[parse]: expected '->', found '>'"]),
    ("sort-expected", "scheme F(L);\n",
     ["bad.plank:1:8: error[parse]: expected 'data', 'scheme', 'variable', or 'rule', "
      "found 'F'"]),
    ("unicode-and-junk", "L scheme F(L) → ⟨ ¬ é 9;\nL data G(L)",
     ["bad.plank:1:15: error[parse]: expected ';', found '→'",
      "bad.plank:1:21: error[parse]: unexpected character 'é'",
      "bad.plank:1:23: error[parse]: unexpected character '9'",
      "bad.plank:2:12: error[parse]: expected ';', found 'end of input'"]),
    ("missing-term", MALFORMED_BASE + "L scheme F(L);\nL rule F(x) -> Ap(x, );\n",
     ["bad.plank:5:22: error[parse]: expected a term, found ')'"]),
]


@pytest.mark.parametrize("text,expected", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_pinned_parse_errors(text, expected):
    with pytest.raises(ParseFailure) as exc:
        parse_script(text, file="bad.plank")
    assert [e.format() for e in exc.value.errors] == expected


ILL_SORTED_BASE = (
    "L data Lam([L]L);\nL data Ap(L, L);\nL variable;\nL scheme F(L);\nB data T();\n"
)
ILL_SORTED = [
    ("wrong-sort", ILL_SORTED_BASE + "L rule F(T()) -> x;\n",
     ["ill.plank:6:10: error[SMP-Data]: construction T has sort B, which does not match "
      "the expected sort L"]),
    ("undeclared", ILL_SORTED_BASE + "L rule F(Lam([x]Q(x))) -> Ap(x, T());\n",
     ["ill.plank:6:17: error[SMP-Data]: constructor Q is not declared",
      "ill.plank:6:33: error[SMC-Cons]: construction T has sort B, which does not match "
      "the expected sort L"]),
    ("data-redeclared", ILL_SORTED_BASE + "B data T(L);\n",
     ["ill.plank:6:1: error[DuplicateConstructor]: constructor T already declared with a "
      "different signature",
      "ill.plank:6:1: error[SD-Data]: data constructor T is not recorded with this signature"]),
    ("scheme-redeclared", ILL_SORTED_BASE + "L scheme F(B);\n",
     ["ill.plank:6:1: error[DuplicateConstructor]: constructor F already declared with a "
      "different signature",
      "ill.plank:6:1: error[SD-Fun]: scheme F is not recorded with this signature"]),
    # Recorded later: as in ``PINNED``, the second occurrence of #M or #e
    # has an argument that is no variable, so it raises no MetaFormConflict.
    ("meta-at-another-sort", ILL_SORTED_BASE + "B scheme G(L, B);\nB rule G(#M, #M(T())) -> T();\n",
     ["ill.plank:7:14: error[SMP-Meta]: meta-variable #M produces L, expected B"]),
    ("catch-all-at-another-form",
     ILL_SORTED_BASE + "L scheme G({L:L}, {B:B});\nL rule G({#e}, {#e(T())}) -> F(x);\n",
     ["ill.plank:7:17: error[SAP-All]: catch-all #e covers {L:L}, expected {B:B}"]),
    ("data-at-a-sort-variable", ILL_SORTED_BASE + "a data Q();\n",
     ["ill.plank:6:1: error[NonVariableSortParameter]: data constructor Q needs a named "
      "result sort"]),
    ("substitution-at-a-sort-variable",
     ILL_SORTED_BASE + "a scheme P([a]a);\na rule P([x]#M(x)) -> #M(P([y]y));\n",
     ["ill.plank:7:26: error[SMS-Cons]: cannot substitute a non-variable at sort a"]),
    # k is bound nowhere, so the matcher could never resolve it.
    ("absence-key-bound-nowhere",
     "L data A();\nL data B();\nL data W(L);\nL variable;\nL scheme F({L:L}, {L:L}, L);\n"
     "L rule F({~k:}, {#e}, #x) -> A();\n",
     ["ill.plank:6:11: error[SAP-Not]: absence key k is not a variable of the pattern "
      "(KeyNotElsewhere)"]),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in ILL_SORTED],
                         ids=[c[0] for c in ILL_SORTED])
def test_pinned_check_errors_of_parsed_scripts(text, expected):
    result = check_script(parse_script(text, file="ill.plank"))
    assert [e.format() for e in result.errors] == expected


# ---------------------------------------------------------------------------
# Tooling guard


def test_every_exported_name_resolves():
    names = ["plank"] + [f"plank.{m.name}" for m in pkgutil.iter_modules(plank.__path__)]
    assert "plank.rewrite" in names
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.{attr}"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name, (module_name, attr) in tracing.TRACED.items():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{name}: {module_name}.{attr}"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


# Fields that no module of the package reads, kept on purpose.
UNREAD_FIELDS_KEPT = {
    # The engine never reads a rule's environment, but ``prepare_rules``
    # still takes the environments from its callers, the benchmark among
    # them; the field and that argument go together.
    ("RewriteRule", "env"),
    # The reduction sequence is what ``normalize`` returns to its callers.
    ("NormalizeResult", "steps"),
}


def _last_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unread_fields(sources: list[str]) -> list[tuple[str, str]]:
    """(class, field) of each dataclass or NamedTuple field that no source
    reads, as an attribute or through ``getattr`` with a constant name.

    An attribute passed straight to the constructor of a record that
    declares a field of that name is a copy, not a read: a field read only
    to build another record of its kind is read by nothing."""
    nodes = [n for s in sources for n in ast.walk(ast.parse(s))]
    fields, declared = [], {}
    for node in nodes:
        if isinstance(node, ast.ClassDef) and (
                "NamedTuple" in map(_last_name, node.bases)
                or "dataclass" in (_last_name(d.func if isinstance(d, ast.Call) else d)
                                   for d in node.decorator_list)):
            names = [st.target.id for st in node.body
                     if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
            fields += [(node.name, f) for f in names]
            declared.setdefault(node.name, set()).update(names)
    copies, read = set(), set()
    for node in nodes:
        if isinstance(node, ast.Call) and _last_name(node.func) in declared:
            own = declared[_last_name(node.func)]
            copies |= {id(a) for a in node.args + [k.value for k in node.keywords]
                       if isinstance(a, ast.Attribute) and a.attr in own}
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in copies):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and _last_name(node.func) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return [f for f in fields if f[1] not in read]


def test_every_record_field_is_read():
    record = "@dataclass(frozen=True)\nclass A:\n" + "".join(f"    {f}: int\n" for f in "xyzw")
    use = "def f(a):\n    return a.x, getattr(a, 'z'), A(a.x, 0, 0, w=a.w)\n"
    assert _unread_fields([record, use]) == [("A", "y"), ("A", "w")]
    sources = [p.read_text(encoding="utf-8") for p in sorted((REPO / "src" / "plank").glob("*.py"))]
    assert [f for f in _unread_fields(sources) if f not in UNREAD_FIELDS_KEPT] == []


# Stores to a built record's field that the immutability rule allows, as
# (function, target).  ``all_idents`` keeps a term's name set on the term;
# equality, hashing and ``repr`` never read it.
RECORD_STORES_KEPT = {("_idents", "t._idents")}


def _record_field_stores(sources: dict[str, str]) -> tuple[set[str], list[str]]:
    """The records, dataclasses declared with ``unsafe_hash=True``, and as
    ``"FILE:LINE: what"`` each ``frozen=True`` dataclass and each store to a
    field of a record.

    A store is an attribute assignment, augmented, annotated or in a tuple,
    an attribute deletion, or a ``setattr``, ``delattr``, ``__setattr__`` or
    ``__delattr__`` call, that names a record field or a name that is not a
    constant.  ``self.<attr>`` in a method of a class that is not a record
    sets up that object; the stores in ``RECORD_STORES_KEPT`` are allowed."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    records, fields, found = set(), set(), []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            flags = {k.arg: getattr(k.value, "value", None) for d in node.decorator_list
                     if isinstance(d, ast.Call) and _last_name(d.func) == "dataclass"
                     for k in d.keywords}
            if flags.get("frozen") is True:
                found.append(f"{name}:{node.lineno}: frozen {node.name}")
            if flags.get("unsafe_hash") is True:
                records.add(node.name)
                fields.update(st.target.id for st in node.body
                              if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name))
    for name, tree in trees.items():
        function, owner = {}, {}
        for node in ast.walk(tree):  # outer first, so the innermost one wins
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function.update((id(n), node.name) for n in ast.walk(node))
            elif isinstance(node, ast.ClassDef):
                owner.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                attr = node.attr
                if (isinstance(node.value, ast.Name) and node.value.id == "self"
                        and owner.get(id(node)) not in records | {None}):
                    continue
            elif (isinstance(node, ast.Call) and len(node.args) > 1 and _last_name(node.func)
                  in {"setattr", "delattr", "__setattr__", "__delattr__"}):
                attr = getattr(node.args[1], "value", None)
            else:
                continue
            target = ast.unparse(node)
            if (attr is None or attr in fields) and (function.get(id(node)),
                                                     target) not in RECORD_STORES_KEPT:
                found.append(f"{name}:{node.lineno}: {target}")
    return records, found


def test_no_module_stores_to_a_built_record():
    # Records are immutable by rule, not by the runtime: their dataclasses
    # are not frozen, whose ``__init__`` pays an ``object.__setattr__`` call
    # per field, so this lint keeps every field as it was built.
    sample = (
        "@dataclass(unsafe_hash=True, slots=True)\n"
        "class R:\n    f: int\n    _idents: int = 0\n"
        "    def reset(self):\n        self.f = 0\n"
        "@dataclass(frozen=True)\nclass F:\n    h: int\n"
        "class Walk:\n    def __init__(self, r):\n        self.f = r.other = 0\n"
        "def f(r, name):\n"
        "    r.f, x = 1, 2\n    r.f += 1\n    r.f: int = 2\n    del r.f\n    r.x = 3\n"
        "    setattr(r, 'f', 0)\n    object.__setattr__(r, 'x', 0)\n    delattr(r, name)\n"
        "def _idents(t):\n    t._idents = 1\n    u._idents = 1\n"
        "def g(self):\n    self.f = 1\n"
    )
    records, found = _record_field_stores({"s": sample})
    assert records == {"R"}
    assert sorted(found, key=lambda f: int(f.split(":")[1])) == [
        "s:6: self.f", "s:8: frozen F", "s:14: r.f", "s:15: r.f", "s:16: r.f", "s:17: r.f",
        "s:19: setattr(r, 'f', 0)", "s:21: delattr(r, name)", "s:24: u._idents",
        "s:26: self.f"]
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((REPO / "src" / "plank").glob("*.py"))}
    records, found = _record_field_stores(sources)
    assert {"Construction", "Var", "Diagnostic", "CheckState", "ConSig", "MetaForm",
            "Abstraction", "RewriteRule", "RewriteStep"} <= records
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    # A name listed in ``__all__`` is a re-export; the package ``__init__``
    # consists of re-exports.
    assert _unused_imports("from x import a, b\n__all__ = ['b']\n") == ["a"]
    modules = sorted((REPO / "src" / "plank").glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def _diagnostic_tags(source: str) -> set[str]:
    """String literals that reach a diagnostic's tag: the first argument of
    ``Diagnostic`` or ``_err``, a value assigned to ``tag``, or an argument
    passed for a parameter named ``tag``."""
    tree = ast.parse(source)
    slots = {"Diagnostic": 0, "_err": 0}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and "tag" in (names := [a.arg for a in fn.args.args]):
            slots[fn.name] = names.index("tag")
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _last_name(node.func) in slots:
            values += node.args[slots[_last_name(node.func)]:][:1]
        elif isinstance(node, ast.Assign) and "tag" in map(_last_name, node.targets):
            values.append(node.value)
    return {c.value for v in values for c in ast.walk(v)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def _untagged_engine_raises(source: str, tags: set[str]) -> list[int]:
    """Lines of each ``raise EngineError`` whose line and the line above
    carry no comment naming one of ``tags``."""
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and _last_name(node.exc.func) == "EngineError"):
            near = comments.get(node.lineno, "") + " " + comments.get(node.lineno - 1, "")
            if not set(re.findall(r"[\w-]+", near)) & tags:
                found.append(node.lineno)
    return sorted(found)


def test_every_engine_raise_names_the_diagnostic_that_rules_it_out():
    # Each raise site is unreachable on a checked script and a well-sorted
    # subject; its comment names the checker or environment diagnostic
    # that makes it so.
    tag_sample = (
        "def _check(st, tag):\n    return _err(tag, st, 'not a tag')\n"
        "def f(st, x):\n"
        "    tag = 'A-One' if x else 'A-Two'\n"
        "    return _check(st, 'A-Three') + [Diagnostic('Four', None, 'text'), _err(tag, x, 'm')]\n"
    )
    assert _diagnostic_tags(tag_sample) == {"A-One", "A-Two", "A-Three", "Four"}
    tags = set().union(*(_diagnostic_tags((REPO / "src" / "plank" / name).read_text("utf-8"))
                         for name in ("checker.py", "env.py")))
    assert {"SAP-All", "SMP-Var", "SMS-Meta", "UnboundMetaOnRhs"} <= tags
    sample = (
        "def f(x):\n"
        "    if x:\n        # SAP-All: one catch-all.\n        raise EngineError('a')\n"
        "    if x:\n        raise EngineError('b')  # UnboundMetaOnRhs\n"
        "    if x:\n        # SAP-Al, not a tag\n        raise EngineError('c')\n"
        "    # SAP-All, two lines above\n\n    raise EngineError('d')\n"
    )
    assert _untagged_engine_raises(sample, tags) == [9, 12]
    source = (REPO / "src" / "plank" / "rewrite.py").read_text(encoding="utf-8")
    assert "raise EngineError" in source
    assert _untagged_engine_raises(source, tags) == []


def _reserved_name_makers(source: str) -> list[str]:
    """The function around each ``str.__new__(Ident, ...)``, the one way to
    spell an ``Ident`` past its check; ``<module>`` outside any."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Outer functions come first, so a nested one overrides them.
            owner.update((id(n), fn.name) for n in ast.walk(fn))
    return [owner.get(id(node), "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "str.__new__"
            and node.args and ast.unparse(node.args[0]) == "Ident"]


def test_reserved_names_are_made_in_one_place():
    # The matcher's canonical names are the subject's own binder names and
    # the reserved names that ``_Matcher.canonical`` alone makes; the
    # matcher walks no name set and draws no fresh name.
    sample = ("x = str.__new__(Ident, 'a%1')\n"
              "def f(u):\n    def g():\n        return str.__new__(Ident, u)\n"
              "    return Ident(u), str.__new__(str, u)\n")
    assert _reserved_name_makers(sample) == ["<module>", "g"]
    makers = [(path.name, fn) for path in sorted((REPO / "src" / "plank").glob("*.py"))
              for fn in _reserved_name_makers(path.read_text(encoding="utf-8"))]
    assert makers == [("rewrite.py", "canonical")]
    source = (REPO / "src" / "plank" / "rewrite.py").read_text(encoding="utf-8")
    matcher = next(n for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.ClassDef) and n.name == "_Matcher")
    names = {n.id for n in ast.walk(matcher) if isinstance(n, ast.Name)}
    assert "canonical" in {n.name for n in matcher.body if isinstance(n, ast.FunctionDef)}
    assert not names & {"all_idents", "fresh_var"}


def _own_scope(fn):
    """The nodes of ``fn``'s own scope: nested functions, lambdas and classes
    are yielded but not entered."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _recursive_closures(source: str) -> list[str]:
    """``outer.inner`` for each nested function or named lambda that reaches
    itself through the names it loads, directly or through the functions
    defined beside it.  Each call of such a function builds a reference
    cycle: the function, its closure cell and the enclosing frame."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {}
        for node in _own_scope(outer):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[node.name] = node
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                nested.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
        loads = {name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load) and n.id in nested}
                 for name, fn in nested.items()}
        for name in nested:
            reached, todo = set(), [name]
            while todo:
                new = loads[todo.pop()] - reached
                reached |= new
                todo.extend(new)
            if name in reached:
                found.append(f"{outer.name}.{name}")
    return found


def test_no_nested_function_recurses():
    sample = (
        "def f(xs):\n"
        "    def go(x):\n        return go(x)\n"
        "    def a():\n        return b()\n"
        "    def b():\n        return a()\n"
        "    h = lambda: h\n"
        "    def leaf():\n        return f(xs)\n"
        "    k = lambda: leaf()\n"
        "    xs.sort(key=lambda x: x)\n"
        "    return go, a, h, k\n"
    )
    assert sorted(_recursive_closures(sample)) == ["f.a", "f.b", "f.go", "f.h"]
    for path in sorted((REPO / "src" / "plank").glob("*.py")):
        assert _recursive_closures(path.read_text(encoding="utf-8")) == [], path.name


_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)


def _comprehension_recursions(source: str) -> list[str]:
    """Each module-level function with a comprehension or generator
    expression that loads a module-level function reaching the enclosing
    one again, directly or through the names those functions load.  Each
    level of such a walk spends a frame on the comprehension as well as one
    on the call; ``map`` or a loop spends none."""
    tree = ast.parse(source)
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def loads(node):
        return {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in top}

    calls = {name: loads(fn) for name, fn in top.items()}
    found = []
    for name, fn in top.items():
        reached = set()
        todo = [n for c in ast.walk(fn) if isinstance(c, _COMPREHENSIONS) for n in loads(c)]
        while todo:
            callee = todo.pop()
            if callee not in reached:
                reached.add(callee)
                todo.extend(calls[callee])
        if name in reached:
            found.append(name)
    return found


def test_no_walk_recurses_through_a_comprehension():
    sample = (
        "def f(xs):\n    return [f(x) for x in xs]\n"
        "def g(xs):\n    return all(h(x) for x in xs)\n"
        "def h(x):\n    return g(x.kids)\n"
        "def k(xs):\n    return list(map(k, xs)) + [leaf(x) for x in xs]\n"
        "def leaf(x):\n    return {y: str(y) for y in x}\n"
        "class C:\n    def m(self, xs):\n        return [self.m(x) for x in xs]\n"
    )
    assert _comprehension_recursions(sample) == ["f", "g"]
    for path in sorted((REPO / "src" / "plank").glob("*.py")):
        assert _comprehension_recursions(path.read_text(encoding="utf-8")) == [], path.name


# ---------------------------------------------------------------------------
# Walk depth


def _nested_scopes(depth):
    t = Var(Ident("y"))
    for _ in range(depth):
        t = Construction(Ident("Lam"), (ScopePiece((Ident("x"),), t),))
    return t


def _redex_under_scopes(depth):
    """``Ap(Lam([y]y), w)`` under ``depth`` levels of ``Lam([x]Ap(z, .))``."""
    lam, ap = Ident("Lam"), Ident("Ap")
    t = Construction(ap, (ScopePiece((), Construction(lam, (ScopePiece((Ident("y"),),
                                                                       Var(Ident("y"))),))),
                          ScopePiece((), Var(Ident("w")))))
    for _ in range(depth):
        body = Construction(ap, (ScopePiece((), Var(Ident("z"))), ScopePiece((), t)))
        t = Construction(lam, (ScopePiece((Ident("x"),), body),))
    return t


def _normalizes_in_one_step(t):
    script = parse_script(BETA_ETA)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, t)
    return result.status.value == "NormalForm" and len(result.steps) == 1


@pytest.mark.parametrize("depth, build, walk", [
    (275, _nested_scopes, lambda t: alpha_equal(t, t)),
    (400, _nested_scopes, lambda t: substitute(t, {Ident("y"): Var(Ident("z"))})),
    (450, _redex_under_scopes, _normalizes_in_one_step),
], ids=["alpha_equal", "substitute", "normalize"])
def test_walks_reach_deep_scopes_under_the_default_recursion_limit(depth, build, walk):
    # Built directly, so no other walk limits the depth.  Each walk spends
    # one frame per node; a comprehension between a node and its children
    # would spend a second one and fall short of these depths.  The search
    # spends one frame per construction, two per level here, whether it
    # starts at the root or resumes: the resumed search recurses along the
    # path to the last redex, so it reaches as deep as the first search.
    assert walk(build(depth))
