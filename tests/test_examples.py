"""Smoke tests: every example script must run cleanly end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def _example_env():
    """Subprocess env with the repo's ``src/`` importable.

    The example subprocesses don't inherit pytest's import path, so
    prepend ``src/`` to ``PYTHONPATH`` explicitly — the examples must
    run from a clean environment.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src + os.pathsep + existing if existing else src
    )
    return env


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_example_runs(script, tmp_path):
    args = [sys.executable, str(script)]
    if script.stem == "state_assignment":
        args.append("lion9")  # small machine keeps it fast
    result = subprocess.run(
        args,
        capture_output=True,
        text=True,
        timeout=300,
        cwd=str(tmp_path),
        env=_example_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "examples should print something"


def test_example_list_is_complete():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "state_assignment",
        "microcode_encoding",
        "paper_walkthrough",
        "tutorial",
    } <= names
