"""The committed fuzz corpus (``tests/corpus/*.json``), replayed.

A ``kiss``/``pla`` entry holds malformed text that must raise
``ParseError``.  A ``case`` entry holds a ``FuzzCase.to_dict()`` under
``case`` and the solver that found it under ``solver``; replayed with
that solver, it must pass :func:`tests.fuzz.check`.  Needs no
hypothesis, so CI's pytest-only fault-injection job runs it too.
"""

import json
import pathlib

import pytest

from repro.espresso import parse_pla
from repro.fsm import parse_kiss
from repro.runtime import ParseError
from repro.solvers import _REGISTRY, register_solver
from tests.fuzz import FuzzCase, check, generate_case
from tests.test_fuzz_oracle import _FakeSolver, collide

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.json"))

PARSERS = {"kiss": parse_kiss, "pla": parse_pla}


#: the keys an entry of each kind holds, besides an optional ``note``
KEYS = {"case": {"kind", "case", "solver"}, "kiss": {"kind", "text"},
        "pla": {"kind", "text"}}


def replay(entry):
    """Replay one corpus entry; a red entry fails the calling test."""
    if entry["kind"] == "case":
        outcome = check(FuzzCase.from_dict(entry["case"]), entry["solver"])
        assert outcome != "budget", "the check's budget ran out"
    else:
        with pytest.raises(ParseError):
            PARSERS[entry["kind"]](entry["text"])


class TestCommittedCorpus:
    """Every committed corpus entry must replay green, forever."""

    def test_corpus_is_not_empty(self):
        assert CORPUS, (
            "tests/corpus should carry the parser regressions and at "
            "least one case entry"
        )

    @pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.name)
    def test_replays_green(self, path):
        replay(json.loads(path.read_text()))

    @pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.name)
    def test_holds_only_replayed_keys(self, path):
        entry = json.loads(path.read_text())
        assert set(entry) - {"note"} == KEYS[entry["kind"]]

    def test_covers_both_parsers_and_cases(self):
        kinds = {json.loads(path.read_text())["kind"] for path in CORPUS}
        assert {"kiss", "pla", "case"} <= kinds


def case_entry(solver, family="random", seed=3):
    """A ``case`` entry as written by hand (see ``docs/fuzzing.md``)."""
    case = generate_case(family, seed, 8)
    return {"kind": "case", "solver": solver, "case": case.to_dict()}


class TestSaveLoadRoundTrip:
    def test_case_entry_round_trip(self, tmp_path):
        entry = case_entry("picola")
        path = tmp_path / "case-random-3.json"
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        loaded = json.loads(path.read_text())
        assert FuzzCase.from_dict(loaded["case"]).to_dict() == entry["case"]
        replay(loaded)

    def test_parser_entry_replay_semantics(self):
        # parses fine, so the "must raise" entry is red
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            replay({"kind": "kiss", "text": ".i 1\n.o 1\n0 a b 1\n.e\n"})
        replay({"kind": "kiss", "text": "not kiss at all ever\n"})

    def test_expect_null_fails_while_still_a_finding(self):
        # a case entry replays red while its solver still fails on it,
        # and green once the solver is fixed
        register_solver(_FakeSolver("fz-corpus-collide", collide))
        try:
            with pytest.raises(AssertionError, match="not injective"):
                replay(case_entry("fz-corpus-collide", seed=4))
        finally:
            _REGISTRY.pop("fz-corpus-collide", None)
        replay(case_entry("picola", seed=4))
