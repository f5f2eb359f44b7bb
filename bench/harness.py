"""Timed, counted and traced runs of one benchmark workload.

A batch runs every case of a workload once, the way ``plank check`` and
``plank normalize`` do: ``parse_script``, ``check_script``, then for
normalize ``parse_term``, ``check_ground_subject``, ``prepare_rules``,
``normalize`` and ``render``.  Layer functions are called through their
defining modules, so the traced run sees them.  One process, one thread.

Every batch and every untimed pass runs freshly renamed cases (see
``workloads.py``), so no pass reruns inputs an earlier one has run.
"""

from __future__ import annotations

import functools
import gc
import io
import json
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from plank import checker, cli, parser, rewrite
from plank.terms import AssocPiece, Construction, MapEntry, MetaApp

from calibration import KERNEL_REF_S, kernel_seconds
from tracing import END, START, Totals, Tracer
from workloads import WORKLOADS, Case, de_bruijn

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_BATCHES = 3
clock = time.perf_counter

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "decls_per_s": "decl/s",
    "py_opcodes": "count",
    "peak_mem_kb": "KiB",
}

PER_LAYER = {
    "parser.parse_script.s": "s",
    "parser.parse_script.kb_per_s": "KiB/s",
    "parser.parse_term.s": "s",
    "parser.render.s": "s",
    "env.build_global_env.s": "s",
    "env.infer_rule_env.calls": "count",
    "env.infer_rule_env.self_s": "s",
    "checker.check_script.self_s": "s",
    "checker.check_ground_subject.s": "s",
    "rewrite.prepare_rules.s": "s",
    "rewrite.steps": "count",
    "rewrite.match_term.calls": "count",
    "rewrite.match_term.hit_ratio": "ratio",
    "rewrite.match_term.self_s": "s",
    "rewrite.rewrite_step.self_s": "s",
    "rewrite.rewrite_step.growth": "ratio",
    "rewrite.contract.calls": "count",
    "rewrite.contract.self_s": "s",
    "rewrite.substitute.calls": "count",
    "rewrite.substitute.self_s": "s",
    "rewrite.term_nodes.peak": "count",
    "terms.all_idents.calls": "count",
    "terms.all_idents.self_s": "s",
    "terms.free_vars.calls": "count",
    "terms.free_vars.self_s": "s",
    "terms.fresh_var.calls": "count",
    "terms.fresh_var.self_s": "s",
    "cli.main.s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """What one case produced, with clock marks at the phase boundaries."""

    errors: frozenset[str] = frozenset()
    declarations: int = 0
    rules: int = 0
    status: str | None = None
    steps: int = 0
    term: object = None
    rendered: str | None = None
    exception: str | None = None
    start: float = 0.0
    checked: float = 0.0  # script parsed and checked
    set_up: float = 0.0  # ready for the first rewrite step
    normalized: float = 0.0


def run_case(case: Case, on_step=None) -> Outcome:
    out = Outcome(start=clock())
    try:
        script = parser.parse_script(case.script, file="script.plank")
        result = checker.check_script(script)
        out.checked = out.set_up = out.normalized = clock()
        out.declarations, out.rules = len(script.declarations), len(script.rules)
        out.errors = frozenset(e.rule for e in result.errors)
        if case.term is None or out.errors:
            return out
        term = parser.parse_term(case.term, file="<term>")
        _, _, errors = checker.check_ground_subject(result.gamma, term)
        if errors:
            out.errors = frozenset(e.rule for e in errors)
            return out
        rules = rewrite.prepare_rules(result.gamma, script.rules, result.rule_envs)
        out.set_up = clock()
        normal = rewrite.normalize(result.gamma, rules, term, fuel=case.fuel, on_step=on_step)
        out.normalized = clock()
        out.status, out.steps, out.term = normal.status.value, len(normal.steps), normal.term
        out.rendered = parser.render(normal.term)
    except Exception as exc:  # a failed output, counted; the run goes on
        out.exception = f"{type(exc).__name__}: {exc}"
    return out


def failure(case: Case, out: Outcome) -> str | None:
    """Why ``out`` differs from the case's reference, or None when it agrees."""
    if out.exception:
        return out.exception
    if out.errors != case.errors:
        return f"diagnostics {sorted(out.errors)}, expected {sorted(case.errors)}"
    if case.term is None:
        if case.counts is not None and (out.declarations, out.rules) != case.counts:
            return f"counted {(out.declarations, out.rules)}, expected {case.counts}"
        return None
    if out.status != case.status:
        return f"status {out.status}, expected {case.status}"
    if case.normal_form is not None and de_bruijn(out.term) != case.normal_form:
        return f"normal form {out.rendered!r} differs from the reference"
    if case.rendered_len is not None and len(out.rendered) != case.rendered_len:
        return f"rendered length {len(out.rendered)}, expected {case.rendered_len}"
    return None


def count_nodes(t) -> int:
    """Term nodes (constructions, variables, meta-applications) in ``t``."""
    n, todo = 0, [t]
    while todo:
        x = todo.pop()
        n += 1
        if isinstance(x, MetaApp):
            todo.extend(x.args)
        elif isinstance(x, Construction):
            for p in x.args:
                if isinstance(p, AssocPiece):
                    todo.extend(e.value for e in p.entries if isinstance(e, MapEntry))
                else:
                    todo.append(p.body)
    return n


class Tally:
    """Outputs attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")


# ---------------------------------------------------------------------------
# Passes

Cases = Callable[[], list[Case]]  # a fresh renaming of the workload's cases


@dataclass
class Batch:
    wall: float  # measured, not scaled
    scale: float  # see calibration.py
    outcomes: list[Outcome]
    span_range: tuple[int, int]  # the batch's spans, in a traced run
    case_ranges: tuple[tuple[int, int], ...]  # each case's spans


def timed_batches(fresh: Cases, seconds: float, tally: Tally,
                  tracer: Tracer | None = None) -> list[Batch]:
    """Batches for ``seconds`` (at least MIN_BATCHES), each checked after its clock stops."""
    spans = tracer.spans if tracer else []
    batches: list[Batch] = []
    deadline = clock() + seconds
    while clock() < deadline or len(batches) < MIN_BATCHES:
        cases = fresh()
        gc.collect()
        kernel = kernel_seconds()
        lo = len(spans)
        outcomes, ranges = [], []
        t0 = clock()
        for case in cases:
            first = len(spans)
            outcomes.append(run_case(case))
            ranges.append((first, len(spans)))
        wall = clock() - t0
        scale = KERNEL_REF_S / min(kernel, kernel_seconds())
        for case, out in zip(cases, outcomes):
            tally.record(case.label, failure(case, out))
        batches.append(Batch(wall, scale, outcomes, (lo, len(spans)), tuple(ranges)))
    return batches


def count_opcodes(cases: list[Case]) -> int:
    """Bytecodes executed by one batch, outside this module's own frames."""
    count = 0
    own = run_case.__code__.co_filename

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename == own:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    gc.collect()
    sys.settrace(on_call)
    try:
        for case in cases:
            run_case(case)
    finally:
        sys.settrace(None)
    return count


def peak_memory_kb(cases: list[Case]) -> float:
    """The largest tracemalloc peak over the cases, each measured after gc.collect()."""
    peak = 0
    for case in cases:
        gc.collect()
        tracemalloc.start()
        try:
            run_case(case)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


def cli_pass(cases: list[Case], tally: Tally) -> list[int]:
    """Run ``plank.cli.main`` on each case from files, then the case in-process.

    Both must meet the case's reference, and the exit code and stdout must
    agree with the in-process result.  Returns each case's peak term size in
    nodes, seen through ``normalize``'s ``on_step``.
    """
    peaks = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for case in cases:
            path = Path(tmp) / f"{case.label}.plank"
            path.write_text(case.script, encoding="utf-8")
            if case.term is None:
                argv = ["check", str(path)]
            else:
                argv = ["normalize", str(path), "--term", case.term,
                        "--max-steps", str(case.fuel)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            peak = [0]

            def on_step(term, _step, peak=peak):
                peak[0] = max(peak[0], count_nodes(term))

            out = run_case(case, on_step=on_step)
            peaks.append(peak[0])
            tally.record(case.label, failure(case, out))
            tally.record(f"cli {case.label}", cli_mismatch(out, code, stdout.getvalue(),
                                                           stderr.getvalue()))
    return peaks


def cli_mismatch(out: Outcome, code: int, stdout: str, stderr: str) -> str | None:
    if out.exception:
        return out.exception
    if out.errors:
        want_code, want_stdout = 1, ""
        missing = [t for t in out.errors if f"error[{t}]" not in stderr]
        if missing:
            return f"stderr lacks {missing}"
    elif out.status is None:
        want_code, want_stdout = 0, f"ok: {out.declarations} declarations, {out.rules} rules\n"
    else:
        want_code = 0 if out.status == "NormalForm" else 3
        want_stdout = out.rendered + "\n"
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if stdout != want_stdout:
        return f"stdout {stdout[:60]!r} differs from the in-process result"
    return None


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(fresh: Cases, batches: list[Batch]) -> dict[str, float]:
    """Scaled medians over the batches, then the untimed count passes."""
    setup, steps_rate, decls_rate = [], [], []
    for b in batches:
        done = [o for o in b.outcomes if o.exception is None]
        setup.append(b.scale * sum(o.set_up - o.start for o in done))
        steps_rate.append(_ratio(sum(o.steps for o in done),
                                 b.scale * sum(o.normalized - o.set_up for o in done)))
        decls_rate.append(_ratio(sum(o.declarations for o in done),
                                 b.scale * sum(o.checked - o.start for o in done)))
    return {
        "wall_s": statistics.median(b.wall * b.scale for b in batches),
        "setup_s": statistics.median(setup),
        "steps_per_s": statistics.median(steps_rate),
        "decls_per_s": statistics.median(decls_rate),
        "py_opcodes": count_opcodes(fresh()),
        "peak_mem_kb": peak_memory_kb(fresh()),
    }


def wall_summary(batches: list[Batch]) -> str:
    """The batch count, and the p90 of scaled batch times next to raw medians."""
    walls = sorted(b.wall * b.scale for b in batches)
    p90 = walls[min(len(walls) - 1, int(0.9 * len(walls)))]
    raw = statistics.median(b.wall for b in batches)
    kernel = statistics.median(KERNEL_REF_S / b.scale for b in batches)
    return (f"{len(walls)} batches, wall_s p90 {p90:.6f} s; unscaled: batch median "
            f"{raw:.6f} s, kernel median {kernel:.6f} s")


def per_layer_metrics(cases: list[Case], plain: list[Batch], traced: list[Batch],
                      peaks: list[int], tracer: Tracer, smoke: tuple[int, int]
                      ) -> dict[str, float]:
    kib = sum(len(c.script.encode("utf-8")) for c in cases) / 1024
    normalized = [i for i, c in enumerate(cases) if c.term is not None]
    big = max(normalized, key=lambda i: peaks[i])
    small = min(normalized, key=lambda i: peaks[i])
    rows: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        rows.setdefault(name, []).append(value)

    for b in traced:
        t = Totals(tracer.spans, *b.span_range)
        parse = b.scale * t.inclusive["parser.parse_script"]
        add("parser.parse_script.s", parse)
        add("parser.parse_script.kb_per_s", _ratio(kib, parse))
        for name in ("parser.parse_term", "parser.render", "env.build_global_env",
                     "checker.check_ground_subject", "rewrite.prepare_rules"):
            add(f"{name}.s", b.scale * t.inclusive[name])
        for name in ("env.infer_rule_env", "rewrite.match_term", "rewrite.contract",
                     "rewrite.substitute", "terms.all_idents", "terms.free_vars",
                     "terms.fresh_var"):
            add(f"{name}.calls", t.calls[name])
            add(f"{name}.self_s", b.scale * t.self_time[name])
        for name in ("checker.check_script", "rewrite.rewrite_step"):
            add(f"{name}.self_s", b.scale * t.self_time[name])
        add("rewrite.match_term.hit_ratio",
            _ratio(t.returned["rewrite.match_term"], t.calls["rewrite.match_term"]))
        add("rewrite.steps", sum(o.steps for o in b.outcomes))
        add("rewrite.rewrite_step.growth",
            _ratio(_step_time(tracer, b.case_ranges[big]),
                   _step_time(tracer, b.case_ranges[small])))

    metrics = {name: statistics.median(values) for name, values in rows.items()}
    metrics["rewrite.term_nodes.peak"] = max(peaks)
    metrics["cli.main.s"] = (statistics.median(b.scale for b in traced)
                             * Totals(tracer.spans, *smoke).inclusive["cli.main"])
    metrics["trace.overhead_ratio"] = (statistics.median(b.wall * b.scale for b in traced)
                                       / statistics.median(b.wall * b.scale for b in plain))
    return {name: metrics[name] for name in PER_LAYER}


def _step_time(tracer: Tracer, span_range: tuple[int, int]) -> float:
    """Mean time of one ``rewrite_step`` call within ``span_range``."""
    t = Totals(tracer.spans, *span_range)
    return _ratio(t.inclusive["rewrite.rewrite_step"], t.calls["rewrite.rewrite_step"])


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured (the run has failed outputs then)."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Entry


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and prints a table."""
    fresh: Cases = functools.partial(WORKLOADS[workload], random.Random(seed))
    tally = Tally()
    cases = fresh()
    if not trace:
        batches = timed_batches(fresh, seconds, tally)
        cli_pass(cases, tally)
        values = end_to_end_metrics(fresh, batches)
        units, note = END_TO_END, wall_summary(batches)
    else:
        plain = timed_batches(fresh, seconds / 2, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_batches(fresh, seconds / 2, tally, tracer)
            lo = len(tracer.spans)
            peaks = cli_pass(cases, tally)
            smoke = (lo, len(tracer.spans))
        finally:
            tracer.uninstall()
        values = per_layer_metrics(cases, plain, traced, peaks, tracer, smoke)
        note = f"spans written to {write_spans(tracer, workload, seed)}"
        units = PER_LAYER
    print(f"# workload {workload}, seed {seed}, {len(cases)} cases; {note}")
    for name, value in values.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    """Write the run's spans, times relative to the first; replaces the last run's file."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.json"
    base = tracer.spans[0][START] if tracer.spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "returned"],
                   "spans": [[s[0], s[START] - base, s[END] - base, s[3], s[4]]
                             for s in tracer.spans]}, fh, separators=(",", ":"))
    return path
