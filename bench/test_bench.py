"""Self-tests of the benchmark: inputs, references, passes and tracing.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import plank.rewrite  # noqa: E402
import plank.terms  # noqa: E402
from plank import parse_term  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
from tracing import Totals, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Disguise,
    church,
    church_normal_form,
    de_bruijn,
    identity_normal_form,
    mult_case,
)

SEEDS = (0, 1, 7)


def cases(workload, seed):
    return WORKLOADS[workload](random.Random(seed))


def by_label(cases):
    return {c.label: c for c in cases}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_case_meets_its_reference(workload, seed):
    for case in cases(workload, seed):
        assert harness.failure(case, harness.run_case(case)) is None, case.label


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_draw_renames_but_keeps_sizes(workload):
    rng = random.Random(1)
    first, second = WORKLOADS[workload](rng), WORKLOADS[workload](rng)
    assert cases(workload, 1) == first
    texts = [(c.script, c.term) for c in first + second]
    assert len(set(texts)) == len(texts)
    for a, b in zip(first, second):
        assert (a.label, len(a.script), len(a.term or "")) == (b.label, len(b.script),
                                                                len(b.term or ""))
        assert (a.errors, a.status, a.rendered_len) == (b.errors, b.status, b.rendered_len)


@pytest.mark.parametrize("seed", (0, 3))
def test_baseline_counts(seed):
    church_runs = {label: harness.run_case(c) for label, c in by_label(cases("church", seed)).items()}
    assert church_runs["mult-4"].steps == 11
    assert church_runs["mult-8"].steps == 19
    cbv = by_label(cases("cbv", seed))
    assert harness.run_case(cbv["chain-80"]).steps == 321
    omega = harness.run_case(cbv["omega-40"])
    assert (omega.status, omega.steps, len(omega.rendered)) == ("FuelExhausted", 40, 3117)


def test_generated_script_size():
    generated = by_label(cases("script", 1))["generated"]
    assert 14_000 < len(generated.script.encode("utf-8")) < 17_000
    assert harness.run_case(generated).declarations == 325


def test_de_bruijn_identifies_alpha_variants_only():
    assert de_bruijn(parse_term("Lam([a]Lam([b]Ap(a, b)))")) == church_normal_form(1)
    assert de_bruijn(parse_term("Lam([q]q)")) == identity_normal_form()
    assert de_bruijn(parse_term("Lam([f]Lam([x]f))")) != church_normal_form(0)
    assert de_bruijn(parse_term("Lam([x]y)")) != identity_normal_form()


def test_reference_check_rejects_a_wrong_result():
    d = Disguise(random.Random(1), "qz")
    case = mult_case(d, 4)
    out = harness.run_case(case)
    assert harness.failure(case, out) is None
    out.term = parse_term(d.text(church(17)))  # n^2 + 1
    assert "differs from the reference" in harness.failure(case, out)
    out.term, out.status = parse_term(d.text(church(16))), "FuelExhausted"
    assert "status" in harness.failure(case, out)


def test_check_cases_compare_diagnostics():
    mutant = by_label(cases("script", 1))["no-variable-decl"]
    out = harness.run_case(mutant)
    assert out.errors == {"SMP-Var", "SMC-Var"}
    out.errors = frozenset()
    assert "diagnostics" in harness.failure(mutant, out)


def test_cli_pass_agrees_and_detects_a_mismatch():
    script = cases("script", 1)
    tally = harness.Tally()
    peaks = harness.cli_pass(script, tally)
    assert (tally.attempted, tally.failed) == (2 * len(script), 0)
    assert peaks[0] == 0 and peaks[-1] > 0  # a check case, then a normalize probe
    probe = harness.run_case(script[-1])
    assert harness.cli_mismatch(probe, 3, probe.rendered + "\n", "") is not None
    assert harness.cli_mismatch(probe, 0, "Lam([y]y)\n", "") is not None


def test_opcode_count_does_not_depend_on_the_renaming():
    first, second = ([by_label(cases("script", seed))["probe-mult-2"]] for seed in (1, 2))
    count = harness.count_opcodes(first)
    assert count > 0 and harness.count_opcodes(second) == count


def test_every_batch_runs_new_inputs():
    rng, drawn = random.Random(1), []

    def fresh():
        drawn.append(by_label(WORKLOADS["script"](rng))["probe-chain-3"])
        return drawn[-1:]

    tally = harness.Tally()
    batches = harness.timed_batches(fresh, 0.0, tally)
    assert len(batches) == len(drawn) == harness.MIN_BATCHES
    assert len({c.script for c in drawn}) == len(drawn)
    assert (tally.attempted, tally.failed) == (len(drawn), 0)


def test_tracer_wraps_every_binding_and_restores_it():
    original = plank.terms.all_idents
    assert plank.rewrite.all_idents is original
    tracer = Tracer()
    tracer.install()
    try:
        assert plank.rewrite.all_idents is not original
        assert plank.terms.all_idents is plank.rewrite.all_idents
        plank.rewrite.all_idents(parse_term("Lam([x]x)"))
    finally:
        tracer.uninstall()
    assert plank.rewrite.all_idents is original and plank.terms.all_idents is original
    assert [s[0] for s in tracer.spans] == ["terms.all_idents"]


def test_totals_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, True],
        ["b", 1.0, 4.0, 0, False],
        ["a", 2.0, 3.0, 1, True],
        ["b", 5.0, 6.0, 0, True],
    ]
    t = Totals(spans)
    assert t.calls == {"a": 2, "b": 2}
    assert t.returned == {"a": 2, "b": 1}
    assert t.self_time == {"a": 10.0 - 4.0 + 1.0, "b": 2.0 + 1.0}
    assert t.inclusive == {"a": 10.0, "b": 4.0}


def test_run_refuses_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC_DIR", BENCH_DIR / "no-such-dir")
    code = run.main(["--workload", "church", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
