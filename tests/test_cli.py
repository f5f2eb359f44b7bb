from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BETA_ETA

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "plank.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


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


def test_a_rule_the_engine_cannot_run_is_an_engine_error(tmp_path):
    # The sort discipline admits two catch-alls in one list; matching them
    # would not be deterministic, so the engine refuses the rule.
    script = tmp_path / "two.plank"
    script.write_text(TWO_CATCH_ALLS, encoding="utf-8")
    checked = run_cli("check", str(script))
    assert (checked.returncode, checked.stderr) == (0, "")
    done = run_cli("normalize", str(script), "--term", "F({})")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "error[engine]" in done.stderr
    assert "MultipleCatchAll" in done.stderr
    assert "Traceback" not in done.stderr
