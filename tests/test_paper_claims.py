"""Integration tests pinning the paper's qualitative claims.

These run on small subsets so they stay test-suite-fast; the full
versions live in benchmarks/.  Each test names the paper claim it
guards, so a regression here means the reproduction story broke.
"""

import pytest

from repro.baselines import enc_encode, nova_encode
from repro.core import PicolaOptions, picola_encode, theorem1_cubes
from repro.encoding import (
    ConstraintSet,
    FaceConstraint,
    derive_face_constraints,
    evaluate_encoding,
)
from repro.fsm import load_benchmark

CLAIM_FSMS = ["bbara", "ex3", "lion9", "dk16", "donfile", "ex2", "keyb"]


@pytest.fixture(scope="module")
def suite():
    out = {}
    for name in CLAIM_FSMS:
        cset = derive_face_constraints(load_benchmark(name))
        pic = picola_encode(cset)
        nov = nova_encode(cset, seed=1)
        out[name] = {
            "cset": cset,
            "picola": evaluate_encoding(pic.encoding, cset),
            "picola_result": pic,
            "nova": evaluate_encoding(nov.encoding, cset),
        }
    return out


class TestTable1Claims:
    def test_picola_competitive_in_total(self, suite):
        """Paper: benchmark is ~11% more expensive with NOVA."""
        total_p = sum(s["picola"].total_cubes for s in suite.values())
        total_n = sum(s["nova"].total_cubes for s in suite.values())
        assert total_p <= total_n * 1.02, (
            f"PICOLA total {total_p} should not trail NOVA {total_n}"
        )

    def test_picola_wins_on_dense_machines(self, suite):
        """The dense problems are where guides pay off."""
        wins = sum(
            1
            for name in ["dk16", "donfile"]
            if suite[name]["picola"].total_cubes
            <= suite[name]["nova"].total_cubes
        )
        assert wins == 2

    def test_satisfied_constraints_cost_one_cube(self, suite):
        """Definition: a satisfied face constraint = 1 product term."""
        for s in suite.values():
            for score in s["picola"].scores:
                if score.satisfied:
                    assert score.cubes == 1

    def test_paper_example_guide_is_optimal(self):
        """Examples 3-4: infeasible L4 implemented with 2 cubes."""
        symbols = [f"s{i}" for i in range(1, 16)]
        cset = ConstraintSet(
            symbols,
            [
                FaceConstraint({"s2", "s6", "s8", "s14"}),
                FaceConstraint({"s1", "s2"}),
                FaceConstraint({"s9", "s14"}),
                FaceConstraint({"s6", "s7", "s8", "s9", "s14"}),
            ],
        )
        result = picola_encode(cset)
        report = evaluate_encoding(result.encoding, cset)
        # L1..L3 satisfiable together; L4 is infeasible in B^4 and
        # must cost exactly 2 cubes (the paper's optimum), for a
        # total of 5
        assert report.total_cubes <= 5
        l4 = next(
            s for s in report.scores
            if s.constraint.symbols
            == frozenset({"s6", "s7", "s8", "s9", "s14"})
        )
        assert not l4.satisfied
        assert l4.cubes == 2


class TestEncClaims:
    def test_enc_quality_comparable_when_it_converges(self):
        """Paper: 'the quality of the results is similar'."""
        cset = derive_face_constraints(load_benchmark("opus"))
        enc = enc_encode(cset, max_minimizations=4000)
        pic = picola_encode(cset)
        if enc.converged:
            pic_cubes = evaluate_encoding(
                pic.encoding, cset
            ).total_cubes
            assert abs(enc.total_cubes - pic_cubes) <= 3

    def test_enc_blows_budget_on_dense_problem(self):
        """Paper: ENC 'is not practical for medium and large
        examples' (fails on scf)."""
        cset = derive_face_constraints(load_benchmark("keyb"))
        enc = enc_encode(cset, max_minimizations=500)
        assert not enc.converged

    def test_picola_orders_of_magnitude_cheaper(self):
        """PICOLA never calls the logic minimizer while encoding; ENC,
        run to its own convergence as in the paper, takes longer.  Each
        is timed as its fastest of three interleaved runs, which a busy
        spell of the host cannot make faster."""
        import time

        cset = derive_face_constraints(load_benchmark("dk16"))
        t_picola = t_enc = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            picola_encode(cset)
            t_picola = min(t_picola, time.perf_counter() - t0)
            t0 = time.perf_counter()
            enc = enc_encode(cset)
            t_enc = min(t_enc, time.perf_counter() - t0)
            assert enc.converged
        assert t_picola < t_enc

    def test_picola_makes_no_minimizations(self):
        """The same claim in work units: PICOLA's encode runs no
        minimizer at all; ENC minimizes every constraint of every
        move until its budget blows."""
        from repro.obs import Tracer, set_tracer

        cset = derive_face_constraints(load_benchmark("dk16"))
        tracer = set_tracer(Tracer())
        try:
            picola_encode(cset)
            picola = tracer.counters()
            enc = enc_encode(cset, max_minimizations=2000)
            enc_counts = tracer.counters()
        finally:
            set_tracer(None)
        assert picola.get("truthtable.minimizations", 0) == 0
        assert "espresso/minimize" not in tracer.timings()
        assert enc.minimizations > 2000  # the budget blew
        # dk16's nv = 5: every real minimization is a truth-table one,
        # and every logical one a memo hit, a real one or settled
        # without minimizing
        assert enc_counts["truthtable.minimizations"] == (
            enc_counts["enc.memo.misses"]
        )
        assert (enc_counts["enc.memo.hits"] + enc_counts["enc.memo.misses"]
                + enc_counts["enc.memo.bounded"] == enc.minimizations)


class TestGuideClaims:
    def test_guides_do_not_hurt(self, suite):
        """Section 3.2: guides buy cheap violated constraints."""
        total_with = 0
        total_without = 0
        for name in CLAIM_FSMS:
            cset = suite[name]["cset"]
            with_g = suite[name]["picola"].total_cubes
            no_g = evaluate_encoding(
                picola_encode(
                    cset, options=PicolaOptions(use_guides=False)
                ).encoding,
                cset,
            ).total_cubes
            total_with += with_g
            total_without += no_g
        assert total_with <= total_without + 2

    def test_theorem1_bound_matches_espresso_when_cube(self, suite):
        """Theorem I is constructive: espresso can't do worse."""
        from repro.encoding import cubes_for_constraint

        for s in suite.values():
            enc = s["picola_result"].encoding
            for score in s["picola"].scores:
                if score.satisfied:
                    continue
                cubes = theorem1_cubes(
                    enc, sorted(score.constraint.symbols),
                    list(score.intruders),
                )
                if cubes is None:
                    continue
                assert score.cubes <= len(cubes)
