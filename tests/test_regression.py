"""Pins that keep refactors of the checker and the engine honest.

* Spans take no part in equality or hashing, so the checker needs no
  span-stripping copies of sorts and forms.
* Rendered normal forms and (position, rule) sequences on fixed inputs are
  byte-identical to the recorded ones, including every fresh name.
* ``check_script`` infers each rule environment once.
* Every exported name, and every name the benchmark's traced run wraps,
  still resolves.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import plank
import plank.checker
from plank import check_script, normalize, parse_script, parse_term, prepare_rules, render
from plank.env import ConSig, MetaForm, infer_rule_env

from conftest import BETA_ETA, CBV_EVAL

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
