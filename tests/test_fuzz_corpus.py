"""The fuzz corpus: save/load/replay round-trips and the committed set."""

import json
import os

import pytest

from repro.fuzz import (
    CorpusEntry,
    entry_for_finding,
    generate_case,
    load_corpus,
    parser_entry,
    replay_entry,
    run_case,
    save_entry,
)
from repro.runtime import InvalidSpecError, ParseError

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


class TestCommittedCorpus:
    """Every committed corpus entry must replay green, forever."""

    def test_corpus_is_not_empty(self):
        assert load_corpus(CORPUS_DIR), (
            "tests/corpus should carry the parser regressions and at "
            "least one case entry"
        )

    @pytest.mark.parametrize(
        "entry",
        load_corpus(CORPUS_DIR),
        ids=lambda e: e.name,
    )
    def test_replays_green(self, entry):
        ok, detail = replay_entry(entry)
        assert ok, f"{entry.name}: {detail}"

    def test_covers_both_parsers_and_cases(self):
        kinds = {e.kind for e in load_corpus(CORPUS_DIR)}
        assert {"kiss", "pla", "case"} <= kinds


class TestSaveLoadRoundTrip:
    def test_case_entry_round_trip(self, tmp_path):
        case = generate_case("random", 3, 8)
        outcome = run_case(case, "picola", timeout=30)
        entry = entry_for_finding(outcome, case)
        entry.data["expect"] = outcome.classification
        path = save_entry(str(tmp_path), entry)
        assert os.path.exists(path)

        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        ok, detail = replay_entry(loaded[0])
        assert ok, detail
        assert outcome.classification in detail

    def test_save_is_content_addressed_and_idempotent(self, tmp_path):
        entry = parser_entry("kiss", ".i 1\n", note="x")
        p1 = save_entry(str(tmp_path), entry)
        p2 = save_entry(
            str(tmp_path), parser_entry("kiss", ".i 1\n", note="x")
        )
        assert p1 == p2
        assert len(os.listdir(tmp_path)) == 1

    def test_parser_entry_replay_semantics(self, tmp_path):
        red = parser_entry("kiss", ".i 1\n.o 1\n0 a b 1\n.e\n")
        ok, detail = replay_entry(red)
        assert not ok  # parses fine, so the "must raise" entry is red
        green = parser_entry("kiss", "not kiss at all ever\n")
        ok, detail = replay_entry(green)
        assert ok, detail

    def test_parser_entry_kind_validated(self):
        with pytest.raises(InvalidSpecError):
            parser_entry("blif", "junk")

    def test_expect_null_fails_while_still_a_finding(self, tmp_path):
        # a fresh finding (expect null) replays red until the tree is
        # fixed; simulate with a case entry pointing at a crash solver
        case = generate_case("random", 4, 8)
        outcome = run_case(case, "picola", timeout=30)
        entry = entry_for_finding(outcome, case)
        assert entry.data["expect"] is None
        save_entry(str(tmp_path), entry)
        loaded = load_corpus(str(tmp_path))[0]
        ok, detail = replay_entry(loaded)
        # picola is healthy, so the null-expect entry replays green
        assert ok, detail

    def test_malformed_json_is_classified(self, tmp_path):
        bad = tmp_path / "case-bad-000000.json"
        for text, message in (
            ("{nope", "not valid JSON"),
            ("[]", "JSON list, not an object"),
            ('{"schema": 1, "kind": "case"}', "needs a dict 'case'"),
            ('{"schema": 1, "kind": "case", "case": []}', "needs a dict"),
            ('{"schema": 1, "kind": "kiss"}', "needs a str 'text'"),
            ('{"schema": 1, "kind": "pla", "text": 7}', "needs a str"),
        ):
            bad.write_text(text)
            with pytest.raises(ParseError, match=message) as info:
                load_corpus(str(tmp_path))
            assert bad.name in str(info.value)

    def test_unknown_schema_is_classified(self, tmp_path):
        bad = tmp_path / "case-bad-000000.json"
        for data in (
            {"schema": 99, "kind": "case"},
            {"schema": 1, "kind": "blif", "text": ""},
            {"kind": "kiss", "text": ""},
        ):
            bad.write_text(json.dumps(data))
            with pytest.raises(ParseError, match="unknown schema"):
                load_corpus(str(tmp_path))

    def test_replay_checks_in_memory_entry_shape(self):
        """``replay_entry`` validates an entry that never went through
        ``load_corpus``, instead of failing with a ``KeyError``."""
        kiss = parser_entry("kiss", "junk\n")
        del kiss.data["text"]
        for entry, message in (
            (CorpusEntry(kind="case", data={}), "unknown schema"),
            (kiss, "needs a str 'text'"),
            (CorpusEntry(kind="pla", data=dict(kiss.data, text="")),
             "'pla' entry holding 'kiss' data"),
        ):
            with pytest.raises(ParseError, match=message) as info:
                replay_entry(entry)
            assert "<memory>" in str(info.value)

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []

