from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plank.cli
from plank.cli import main
from plank.rewrite import EngineError
from conftest import BETA_ETA

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "plank.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Start-up is most of a small ``plank check``; these two modules took
    # about half of importing ``plank.cli``.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, plank.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
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
