from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import plank.cli
from plank import (
    ParseFailure,
    check_ground_subject,
    check_script,
    parse_script,
    parse_term,
    render,
)
from plank.cli import main
from plank.rewrite import EngineError
from conftest import (
    BETA_ETA,
    CBV_EVAL,
    CLASHING_NAMES,
    IN_VALUE,
    NONLINEAR,
    REACH_TWO,
    UNTAKEN,
)
from test_checker import _instance
from test_regression import (
    CHECK_TAGS,
    PIN_RARE,
    PIN_SORTS,
    _TOKEN,
    _assert_sorted_as,
    _edited_scripts,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "plank.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # Start-up is most of a small ``plank check``; the first two modules took
    # about half of importing ``plank.cli``, and ``typing`` about 5 ms more.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, plank.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_deep_input_ends_with_a_depth_diagnostic(tmp_path):
    script = tmp_path / "beta_eta.plank"
    script.write_text(BETA_ETA, encoding="utf-8")
    depth = 3000
    term = "Lam([x]" * depth + "x" + ")" * depth
    done = run_cli("normalize", str(script), "--term", term)
    assert done.returncode == 4
    assert done.stdout == ""
    assert "error[depth]" in done.stderr
    assert "Traceback" not in done.stderr


def test_a_deep_normal_form_prints(tmp_path):
    # Each step unfolds F one level deeper, so the budget ends 800 levels
    # down; the result renders whole and the run ends out of fuel.
    script = tmp_path / "unfold.plank"
    script.write_text("L data S(L); L data Z(); L scheme F(L); L rule F(#x) -> S(F(#x));",
                      encoding="utf-8")
    done = run_cli("normalize", str(script), "--term", "F(Z())", "--max-steps", "800")
    assert (done.returncode, done.stderr) == (3, "")
    assert done.stdout == "S(" * 800 + "F(Z())" + ")" * 800 + "\n"


def test_shallow_input_still_normalizes(tmp_path):
    script = tmp_path / "beta_eta.plank"
    script.write_text(BETA_ETA, encoding="utf-8")
    done = run_cli("normalize", str(script), "--term", "Ap(Lam([x]x), Lam([y]y))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "Lam([y]y)\n", "")


@pytest.mark.parametrize("command", [["check"], ["normalize", "--term", "Lam([x]x)"]],
                         ids=["check", "normalize"])
def test_non_utf8_script_is_an_io_error(tmp_path, command):
    script = tmp_path / "latin1.plank"
    script.write_bytes("L scheme Lam([L]L); // caf\u00e9\n".encode("latin-1"))
    done = run_cli(command[0], str(script), *command[1:])
    assert done.returncode == 2
    assert done.stdout == ""
    assert "error[io]" in done.stderr
    assert "Traceback" not in done.stderr


TWO_CATCH_ALLS = """\
L data Nil();
L variable;
L scheme F({L:L});
L rule F({#a, #b}) -> Nil();
"""


def test_two_catch_alls_in_a_pattern_list_fail_the_check(tmp_path):
    # Matching would not determine which entries each catch-all takes.
    script = tmp_path / "two.plank"
    script.write_text(TWO_CATCH_ALLS, encoding="utf-8")
    checked = run_cli("check", str(script))
    assert (checked.returncode, checked.stdout) == (1, "")
    assert "error[SAP-All]" in checked.stderr
    assert "MultipleCatchAll" in checked.stderr


KEYED = "S scheme Mk(); L data A(); L data H({S:L}); L scheme F([S]L); L scheme G(L);\n"


@pytest.mark.parametrize("source,term,check_code,diagnostic", [
    (TWO_CATCH_ALLS, "F({})", 1, "error[SAP-All]"),
    # The subject's key y is bound at S, which has no 'variable' declaration,
    # so a rule could substitute Mk() for it.
    (KEYED + "L rule F([x]H({#e(x)})) -> G(H({#e(Mk())}));\n",
     "F([y]H({y : A()}))", 0, "error[SMC-Var]"),
    (KEYED + "L rule F([x]#B(x)) -> G(#B(Mk()));\n", "F([y]H({y : A()}))", 0, "error[SMC-Var]"),
], ids=["two-catch-alls", "catch-all-parameter-key", "meta-parameter-key"])
def test_check_and_normalize_agree(tmp_path, source, term, check_code, diagnostic):
    # What normalize rejects, the checker rejects: the script, or the
    # subject with the checker's own diagnostic, never the engine.
    script = tmp_path / "agree.plank"
    script.write_text(source, encoding="utf-8")
    checked = run_cli("check", str(script))
    done = run_cli("normalize", str(script), "--term", term)
    assert (checked.returncode, done.returncode, done.stdout) == (check_code, 1, "")
    assert diagnostic in done.stderr
    if check_code:
        assert diagnostic in checked.stderr
    for run in (checked, done):
        assert "error[engine]" not in run.stderr
        assert "Traceback" not in run.stderr


def test_an_engine_error_while_normalizing_is_reported(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise EngineError("broken invariant")

    script = tmp_path / "beta_eta.plank"
    script.write_text(BETA_ETA, encoding="utf-8")
    monkeypatch.setattr(plank.cli, "normalize", broken)
    assert main(["normalize", str(script), "--term", "Ap(Lam([x]x), Lam([y]y))"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{script}: error[engine]: broken invariant\n"


# ---------------------------------------------------------------------------
# The contract on edited inputs

# The seeds of ``test_checker_outputs_are_pinned``'s corpus, and edited
# copies of them under another seed.
SEEDS = [BETA_ETA, CBV_EVAL, NONLINEAR, REACH_TWO, IN_VALUE, UNTAKEN, CLASHING_NAMES, PIN_SORTS,
         PIN_RARE]
EDITED = list(_edited_scripts(SEEDS, 300, 16))[len(SEEDS):]
# Every tag a line of the command line's stderr can carry, and the exit
# codes the ``plank.cli`` docstring lists.
CLI_TAGS = CHECK_TAGS | {"parse", "io", "engine", "depth"}
EXIT_CODES = {int(c) for c in re.findall(r"^    (\d)  ", plank.cli.__doc__, re.M)}


def _edited_term(draw, text):
    """Term text made from a rule side of ``text``: the side as it stands
    or, where ``text`` is a seed, an instance of a left side (an edited copy
    may leave a sort with no finite term to draw); then maybe one token
    dropped or repeated.  It is ``x`` where ``text`` does not check, as no
    run then reads the term."""
    try:
        script = parse_script(text)
    except ParseFailure:
        return "x"
    checked = check_script(script)
    if not (checked.ok and script.rules):
        return "x"
    i = draw(st.integers(0, len(script.rules) - 1))
    rule = script.rules[i]
    how = draw(st.sampled_from(["instance"] * (text in SEEDS) + ["lhs", "rhs"]))
    if how == "instance":
        side = _instance(draw, checked.gamma, checked.rule_envs[i], rule.lhs)
    else:
        side = getattr(rule, how)
    tokens = _TOKEN.findall(render(side))
    at, move = draw(st.integers(0, len(tokens) - 1)), draw(st.sampled_from("kkdr"))
    tokens[at:at + 1] = {"k": [tokens[at]], "d": [], "r": [tokens[at]] * 2}[move]
    return "".join(tokens)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_edited_inputs_keep_the_contract(tmp_path_factory, data):
    # Edited scripts, also with CRLF line ends, a NUL or a byte that is not
    # UTF-8, or emptied, and terms made from their rule sides end in a
    # documented exit code and in diagnostics the package emits, never in a
    # traceback.
    text = data.draw(st.sampled_from(SEEDS) | st.sampled_from(EDITED))
    form = data.draw(st.sampled_from(["utf-8"] * 5 + ["crlf", "nul", "latin-1", "empty"]))
    cut = data.draw(st.integers(0, len(text)))
    raw = {"utf-8": text.encode(), "crlf": text.replace("\n", "\r\n").encode(),
           "nul": (text[:cut] + "\0" + text[cut:]).encode(),
           "latin-1": text[:cut].encode() + b"\xe9" + text[cut:].encode(), "empty": b""}[form]
    path = tmp_path_factory.getbasetemp() / "edited.plank"
    path.write_bytes(raw)
    term, argv = None, [data.draw(st.sampled_from(["check"] + ["normalize"] * 3)), str(path)]
    if argv[0] == "normalize":
        term = _edited_term(data.draw, text)
        argv += [f"--term={term}", *["--trace"] * data.draw(st.booleans()),
                 f"--max-steps={data.draw(st.sampled_from([40, 1]))}"]
    code, out, err = _run_main(argv)
    assert code in EXIT_CODES, (argv, err)
    assert "Traceback" not in err
    assert set(re.findall(r"error\[(.*?)\]", err)) <= CLI_TAGS, err
    # ``run_normalize`` reaches the engine only once the script and the
    # term have both checked, so no ``error[engine]`` can follow both.
    assert "error[engine]" not in err, (argv, err)
    if code not in (0, 3):
        return
    assert out.count("\n") == 1 and out.endswith("\n"), out
    if term is None:
        return
    gamma = check_script(parse_script(path.read_text(encoding="utf-8"))).gamma
    _assert_sorted_as(gamma, parse_term(out), check_ground_subject(gamma, parse_term(term))[0])
    if code == 0:
        # A normal form reached within a budget is reached within any
        # larger one, and nothing else changes.
        assert _run_main(argv[:-1] + [f"--max-steps={10**18}"]) == (code, out, err)
