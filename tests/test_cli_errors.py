"""CLI error handling and option coverage.

The ``main()`` boundary converts structured failures (``ReproError``,
``OSError``) into a one-line stderr diagnostic and exit code 2 —
users never see a raw traceback for a missing or malformed input
file.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.harness.cli import main


class TestCliErrors:
    def test_no_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_retired_fuzz_command_exits_2(self, capsys):
        # the fuzzer runs as tests now (tests/test_fuzz_pipeline.py)
        with pytest.raises(SystemExit) as info:
            main(["fuzz", "--replay"])
        assert info.value.code == 2
        assert "invalid choice: 'fuzz'" in capsys.readouterr().err

    def test_retired_lint_command_exits_2(self, capsys):
        # the invariants it checked are tests now
        # (tests/test_invariants.py, tests/test_runtime.py)
        with pytest.raises(SystemExit) as info:
            main(["lint"])
        assert info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["export", "lion"],     # netlist export is out of scope
        ["profile", "bbara"],   # `encode <target> --profile` does it
    ], ids=["export", "profile"])
    def test_retired_commands_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_encode_missing_file(self, capsys):
        assert main(["encode", "/nonexistent/machine.kiss2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("picola: error:")
        assert "machine.kiss2" in err

    def test_analyze_missing_target(self, capsys):
        assert main(["analyze", "/nonexistent/machine.kiss2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("picola: error:")

    def test_encode_malformed_kiss(self, tmp_path, capsys):
        bad = tmp_path / "bad.kiss2"
        bad.write_text(".i 2\n.o 1\nnot a kiss row\n.e\n")
        assert main(["encode", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("picola: error:")
        assert "\n" not in err.strip()  # one-line diagnostic

    def test_encode_empty_kiss(self, tmp_path, capsys):
        empty = tmp_path / "empty.kiss2"
        empty.write_text(".i 1\n.o 1\n.e\n")
        assert main(["encode", str(empty)]) == 2
        assert "no transitions" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["table1", "--no-enc"],
        ["table2"],
        ["ablation"],
        ["sweep", "--seeds", "0"],
    ])
    def test_unknown_fsm_rejected_before_any_run(self, capsys, command):
        """An unknown ``--fsm`` name is a usage error: exit 2 with a
        one-line diagnostic, and no row of the known name runs."""
        assert main(command + ["--fsm", "lion9", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("picola: error:")
        assert "nosuch" in captured.err
        assert "\n" not in captured.err.strip()  # one-line diagnostic
        assert "lion9" not in captured.out

    @pytest.mark.parametrize("argv,fragment", [
        (["table1", "--resume", "run.log"], "unrecognized arguments"),
        (["merge", "s1.log"], "invalid choice: 'merge'"),
        (["sweep", "--shard", "1/2"], "unrecognized arguments"),
        (["ablation", "--retry-failed"], "unrecognized arguments"),
    ], ids=["table1-resume", "merge", "sweep-shard", "ablation-retry"])
    def test_removed_run_log_options_exit_2(self, capsys, argv, fragment):
        # every experiment runs in seconds: a killed run is re-run
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert fragment in capsys.readouterr().err

    def test_encode_with_method(self, tmp_path, capsys):
        kiss = tmp_path / "m.kiss2"
        kiss.write_text(
            ".i 1\n.o 1\n.r a\n0 a a 0\n1 a b 1\n0 b b 1\n1 b a 0\n.e\n"
        )
        assert main(["encode", str(kiss), "--method", "gray"]) == 0
        out = capsys.readouterr().out
        assert "gray" in out

    def test_analyze_accepts_kiss_path(self, tmp_path, capsys):
        kiss = tmp_path / "m.kiss2"
        kiss.write_text(
            ".i 1\n.o 1\n.r a\n0 a b 1\n1 a a 0\n0 b a 1\n1 b b 0\n.e\n"
        )
        assert main(["analyze", str(kiss)]) == 0
        out = capsys.readouterr().out
        assert "face constraints" in out

    def test_closed_stdout_is_not_an_error(self):
        """``picola table1 ... | head -1``: the reader closes the pipe
        after the first row; the run ends quietly with exit 0."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "table1",
             "--fsm", "lion9", "ex3", "bbara", "--no-enc"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline().startswith(b"lion9:")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""
