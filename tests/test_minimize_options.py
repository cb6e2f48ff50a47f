"""Tests for espresso's loop options and statistics."""

import pytest

from repro.cubes import Space, contains
from repro.espresso import EspressoStats, espresso, espresso_pla, Pla


def semantics(space, cover):
    return {
        m
        for m in space.iter_minterms()
        if any(contains(c, m) for c in cover)
    }


class TestLoopOptions:
    def setup_method(self):
        self.space = Space.binary(4)
        self.onset = [
            self.space.parse_cube(r)
            for r in ["0000", "0001", "0011", "0111", "1111", "1110"]
        ]

    def test_no_lastgasp_still_equivalent(self):
        got = espresso(self.space, self.onset, use_lastgasp=False)
        assert semantics(self.space, got) == semantics(
            self.space, self.onset
        )

    def test_max_iterations_one(self):
        got = espresso(self.space, self.onset, max_iterations=1)
        assert semantics(self.space, got) == semantics(
            self.space, self.onset
        )

    def test_option_combinations_agree_on_cost_ballpark(self):
        costs = set()
        for lg in (True, False):
            got = espresso(self.space, self.onset, use_lastgasp=lg)
            costs.add(len(got))
        assert max(costs) - min(costs) <= 1

    def test_stats_track_essentials(self):
        stats = EspressoStats()
        espresso(self.space, self.onset, stats=stats)
        assert stats.initial_terms == len(self.onset)
        assert stats.final_terms <= stats.initial_terms

    def test_espresso_pla_forwards_stats(self):
        pla = Pla(2, 1)
        pla.add_term("00", "1")
        pla.add_term("01", "1")
        stats = EspressoStats()
        out = espresso_pla(pla, stats=stats)
        assert stats.final_terms == out.num_terms() == 1


class TestHarnessEncBudget:
    def test_budget_out_renders_fails(self):
        from repro.harness import run_table1

        # lion9's ENC needs ~1.4k minimizations to converge
        report = run_table1(["lion9"], include_enc=True, enc_budget=10)
        row = report.rows[0]
        assert row.ok and row.enc_attempted
        assert row.cubes_enc is None and row.enc_status is None
        # the row renders `fails`, matching the paper's cell for scf
        assert "fails" in report.render()


class TestStateassignExtras:
    def test_picola_extra_fields(self):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        result = assign_states(load_benchmark("lion9"), "picola")
        assert "satisfied" in result.extra
        assert "espresso_iterations" in result.extra

    def test_enc_extra_fields(self):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        result = assign_states(load_benchmark("seq101"), "enc")
        assert "converged" in result.extra
