"""Command-line driver: check a script, or normalize a term under it.

Exit codes:

    0  success
    1  sorting errors, including an ill-sorted input term; or
       ``error[engine]``, an engine bug on checked input
    2  parse or I/O errors
    3  normalization ran out of steps
    4  input nested too deeply to process (``error[depth]``)

For ``normalize`` stdout carries only the result term; diagnostics and the
optional trace go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .checker import check_ground_subject, check_script
from .parser import ParseFailure, parse_script, parse_term, render
from .rewrite import EngineError, NormalStatus, format_step, normalize, prepare_rules
from .terms import Diagnostic

__all__ = ["main", "run_check", "run_normalize"]


def _report(errors: list[Diagnostic], default_file: str) -> None:
    for e in errors:
        print(e.format(default_file), file=sys.stderr)


def _load_checked(path: str):
    """Returns (script, check, exit_code); on failure both are None."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: error[io]: {exc}", file=sys.stderr)
        return None, None, 2
    try:
        script = parse_script(text, file=path)
    except ParseFailure as exc:
        _report(exc.errors, path)
        return None, None, 2
    result = check_script(script)
    if not result.ok:
        _report(result.errors, path)
        return None, None, 1
    return script, result, 0


def run_check(path: str) -> int:
    script, result, code = _load_checked(path)
    if result is not None:
        print(f"ok: {len(script.declarations)} declarations, {len(script.rules)} rules")
    return code


def run_normalize(path: str, term_text: str, max_steps: int, trace: bool,
                  unicode: bool) -> int:
    script, result, code = _load_checked(path)
    if result is None:
        return code
    try:
        term = parse_term(term_text, file="<term>")
    except ParseFailure as exc:
        _report(exc.errors, "<term>")
        return 2
    _, _, errors = check_ground_subject(result.gamma, term)
    if errors:
        _report(errors, "<term>")
        return 1
    numbers = itertools.count(1)

    def log_step(t, step):
        print(format_step(next(numbers), step, rules[step.rule_index], t, unicode=unicode),
              file=sys.stderr)

    try:
        rules = prepare_rules(result.gamma, script.rules, result.rule_envs)
        outcome = normalize(result.gamma, rules, term, fuel=max_steps,
                            on_step=log_step if trace else None)
    except EngineError as exc:
        print(f"{path}: error[engine]: {exc}", file=sys.stderr)
        return 1
    print(render(outcome.term, unicode=unicode))
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
            return run_check(ns.script)
        return run_normalize(ns.script, ns.term, ns.max_steps, ns.trace, ns.unicode)
    except RecursionError:
        print("error[depth]: input nested too deeply to process", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
