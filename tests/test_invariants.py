"""Whole-package invariants, each checked on the running code.

* span hygiene: every traced span is entered once and exited once, in
  LIFO order, also when a solver fails mid-span;
* error taxonomy: no module of ``repro`` raises a builtin exception
  class where a :mod:`repro.runtime.errors` class belongs;
* determinism: quick Table I is the same under two hash seeds;
* ``nv`` is keyword-only on ``exact_encode``/``nova_encode``, with no
  deprecation shim left behind.

Budget threading (every documented loop ticks its budget) lives with
the other budget tests in ``tests/test_runtime.py``.
"""

import ast
import builtins
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import repro
from repro.encoding import ConstraintSet, FaceConstraint
from repro.harness.cli import main
from repro.obs.tracer import Tracer
from repro.runtime import faults

SRC = pathlib.Path(repro.__file__).resolve().parent


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset()
    yield
    faults.reset()


class TestSpanHygiene:
    """A span stored and entered twice, or left open on an exception
    path, corrupts the span stack and the per-name timings."""

    @pytest.fixture
    def events(self, monkeypatch):
        log = []
        enter, exit_ = Tracer._enter, Tracer._exit

        def recording_enter(tracer, span):
            log.append(("enter", tracer, span))
            enter(tracer, span)

        def recording_exit(tracer, span):
            log.append(("exit", tracer, span))
            exit_(tracer, span)

        monkeypatch.setattr(Tracer, "_enter", recording_enter)
        monkeypatch.setattr(Tracer, "_exit", recording_exit)
        return log

    @staticmethod
    def assert_well_nested(log):
        assert log, "nothing was traced"
        stacks, entered, exited = {}, set(), set()
        for kind, tracer, span in log:
            stack = stacks.setdefault(id(tracer), [])
            if kind == "enter":
                assert id(span) not in entered, f"{span.name} entered twice"
                entered.add(id(span))
                stack.append(span)
            else:
                assert id(span) not in exited, f"{span.name} exited twice"
                assert stack and stack[-1] is span, (
                    f"{span.name} exited out of LIFO order"
                )
                exited.add(id(span))
                stack.pop()
        assert entered == exited
        for _, tracer, _ in log:
            assert tracer._stack == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--fsm", "lion9", "ex3"],
            ["table2", "--fsm", "lion9"],
        ],
        ids=["table1-with-enc", "table2"],
    )
    def test_table_runs(self, events, argv, capsys):
        assert main(argv + ["--profile"]) == 0
        self.assert_well_nested(events)

    def test_fault_inside_a_solver(self, events, monkeypatch, capsys):
        # the fault fires inside PICOLA's picola/encode span, so every
        # open span has to close on the exception path
        monkeypatch.setenv("REPRO_FAULTS", "picola.column=timeout")
        argv = ["table1", "--fsm", "lion9", "--no-enc", "--profile"]
        assert main(argv) == 1
        assert "FAILED (timeout)" in capsys.readouterr().out
        assert any(
            kind == "enter" and span.name == "picola/encode"
            for kind, _, span in events
        )
        self.assert_well_nested(events)


#: raised on purpose: AssertionError for "cannot happen" checks that
#: must surface as crashes, NotImplementedError for abstract methods
_BUILTINS_ALLOWED = {"AssertionError", "NotImplementedError"}
_BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
} - _BUILTINS_ALLOWED


def test_no_builtin_exception_is_raised():
    """Every failure raised in ``src/repro`` is a ReproError subclass
    (each doubles as the builtin it replaces), so the CLI and the
    per-benchmark isolation classify it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in _BUILTIN_EXCEPTIONS:
                rel = path.relative_to(SRC.parent)
                offenders.append(f"{rel}:{node.lineno}: raise {exc.id}")
    assert not offenders, "\n".join(offenders)


def _scrub_seconds(value):
    if isinstance(value, dict):
        return {
            key: _scrub_seconds(item)
            for key, item in value.items()
            if not key.startswith("seconds")
        }
    if isinstance(value, list):
        return [_scrub_seconds(item) for item in value]
    return value


def test_quick_table1_does_not_depend_on_hash_seed(tmp_path):
    """Set iteration order changes with PYTHONHASHSEED; a derivation
    or encoder that iterates a bare set (or draws unseeded random
    numbers) makes the two runs differ."""
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / f"table1-{seed}.json"
        env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONHASHSEED=seed)
        runs.append((out, subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "table1", "--quick",
             "--json", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )))
    tables = []
    try:
        for out, proc in runs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            tables.append(_scrub_seconds(json.loads(out.read_text())))
    finally:
        for _, proc in runs:
            proc.kill()
            proc.wait()
    assert tables[0] == tables[1]


class TestPositionalNvRemoved:
    """``nv`` is keyword-only on exact_encode/nova_encode."""

    def _cset(self):
        syms = [f"s{i}" for i in range(4)]
        return ConstraintSet(
            syms, [FaceConstraint({"s0", "s1"})]
        )

    def test_exact_encode_rejects_positional_nv(self):
        from repro.encoding.exact import exact_encode

        with pytest.raises(TypeError):
            exact_encode(self._cset(), 2)

    def test_nova_encode_rejects_positional_nv(self):
        from repro.baselines.nova import nova_encode

        with pytest.raises(TypeError):
            nova_encode(self._cset(), 2)

    def test_no_deprecation_warning_machinery_left(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.baselines.nova import nova_encode
            from repro.encoding.exact import exact_encode

            exact_encode(self._cset(), nv=2)
            nova_encode(self._cset(), nv=2)
