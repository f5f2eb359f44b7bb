"""Command-line driver: check a script, or normalize a term under it.

Exit codes:

    0  success
    1  sorting errors, including an ill-sorted input term
    2  parse or I/O errors
    3  normalization ran out of steps
    4  input nested too deeply to process (``error[depth]``)

For ``normalize`` stdout carries only the result term; diagnostics and the
optional trace go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .checker import check_ground_subject, check_script
from .parser import ParseFailure, parse_script, parse_term, render
from .rewrite import EngineError, NormalStatus, format_step, normalize, prepare_rules

__all__ = ["CliConfig", "main", "run_check", "run_normalize"]


@dataclass
class CliConfig:
    script_path: str
    term_text: str | None = None
    max_steps: int = 10000
    trace: bool = False
    ascii_output: bool = True


def _load_script(cfg: CliConfig):
    """Returns (script, exit_code); on failure the script is None."""
    try:
        with open(cfg.script_path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{cfg.script_path}: error[io]: {exc}", file=sys.stderr)
        return None, 2
    try:
        script = parse_script(text, file=cfg.script_path)
    except ParseFailure as exc:
        for e in exc.errors:
            print(e.format(), file=sys.stderr)
        return None, 2
    return script, 0


def run_check(cfg: CliConfig) -> int:
    script, code = _load_script(cfg)
    if script is None:
        return code
    result = check_script(script)
    if not result.ok:
        for e in result.errors:
            print(e.format(cfg.script_path), file=sys.stderr)
        return 1
    n = len(script.declarations)
    m = len(script.rules)
    print(f"ok: {n} declarations, {m} rules")
    return 0


def run_normalize(cfg: CliConfig) -> int:
    script, code = _load_script(cfg)
    if script is None:
        return code
    result = check_script(script)
    if not result.ok:
        for e in result.errors:
            print(e.format(cfg.script_path), file=sys.stderr)
        return 1
    assert cfg.term_text is not None
    try:
        term = parse_term(cfg.term_text, file="<term>")
    except ParseFailure as exc:
        for e in exc.errors:
            print(e.format(), file=sys.stderr)
        return 2
    _, _, errors = check_ground_subject(result.gamma, term)
    if errors:
        for e in errors:
            print(e.format("<term>"), file=sys.stderr)
        return 1
    try:
        rules = prepare_rules(result.gamma, script.rules, result.rule_envs)
    except EngineError as exc:
        print(f"{cfg.script_path}: error[engine]: {exc}", file=sys.stderr)
        return 1

    unicode_out = not cfg.ascii_output
    counter = [0]

    def trace(t, step):
        counter[0] += 1
        print(
            format_step(counter[0], step, rules[step.rule_index], t, unicode=unicode_out),
            file=sys.stderr,
        )

    outcome = normalize(
        result.gamma, rules, term, fuel=cfg.max_steps,
        on_step=trace if cfg.trace else None,
    )
    print(render(outcome.term, unicode=unicode_out))
    return 0 if outcome.status is NormalStatus.NORMAL_FORM else 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plank", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and sort-check a script")
    check.add_argument("script", help="path to the .plank script")

    norm = sub.add_parser("normalize", help="normalize a term under a script's rules")
    norm.add_argument("script", help="path to the .plank script")
    norm.add_argument("--term", required=True, help="the term to normalize")
    norm.add_argument("--max-steps", type=int, default=10000, metavar="N",
                      help="rewrite step budget (default 10000)")
    norm.add_argument("--trace", action="store_true",
                      help="log every rewrite step to stderr")
    norm.add_argument("--unicode", action="store_true",
                      help="render output with unicode glyphs")
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    if ns.command == "normalize" and ns.max_steps <= 0:
        print("error: --max-steps must be positive", file=sys.stderr)
        return 2
    try:
        if ns.command == "check":
            return run_check(CliConfig(ns.script))
        return run_normalize(CliConfig(
            ns.script, term_text=ns.term, max_steps=ns.max_steps,
            trace=ns.trace, ascii_output=not ns.unicode,
        ))
    except RecursionError:
        print("error[depth]: input nested too deeply to process", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
