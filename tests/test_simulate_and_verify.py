"""Integration tests: co-simulation of encoded machines and cover
verification of every minimization in the pipeline."""

import pytest

from repro.cubes import Space
from repro.encoding import derive_face_constraints
from repro.espresso import (
    Pla,
    VerificationError,
    cover_in_range,
    covers_equal,
    espresso,
    verify_minimization,
    verify_pla_minimization,
)
from repro.fsm import (
    CosimMismatch,
    EncodedSimulator,
    SymbolicSimulator,
    cosimulate,
    load_benchmark,
    parse_kiss,
    random_input_sequence,
)
from repro.stateassign import assign_states

TOY = """
.i 1
.o 2
.r idle
0 idle idle 00
1 idle busy 01
0 busy idle 10
1 busy busy 01
"""


class TestSymbolicSimulator:
    def test_walks_table(self):
        fsm = parse_kiss(TOY)
        sim = SymbolicSimulator(fsm)
        assert sim.state == "idle"
        nxt, out = sim.step("1")
        assert (nxt, out) == ("busy", "01")
        nxt, out = sim.step("0")
        assert (nxt, out) == ("idle", "10")

    def test_unspecified_returns_none(self):
        fsm = parse_kiss(".i 1\n.o 1\n.r a\n0 a a 1\n")
        sim = SymbolicSimulator(fsm)
        assert sim.step("1") == (None, None)
        assert sim.state == "a"

    def test_input_width_checked(self):
        fsm = parse_kiss(TOY)
        with pytest.raises(ValueError):
            SymbolicSimulator(fsm).step("01")


class TestEncodedSimulator:
    def test_shape_checked(self):
        pla = Pla(2, 2)
        with pytest.raises(ValueError):
            EncodedSimulator(pla, n_inputs=2, n_state_bits=2,
                             reset_code=0)

    def test_hardware_semantics(self):
        # one state bit, one input; next = input, out = state
        pla = Pla(2, 2)
        pla.add_term("1-", "10")  # next-state bit = input
        pla.add_term("-1", "01")  # output = state bit
        sim = EncodedSimulator(pla, 1, 1, reset_code=0)
        code, out = sim.step("1")
        assert code == 1 and out == [0]
        code, out = sim.step("0")
        assert code == 0 and out == [1]


class TestCosimulation:
    @pytest.mark.parametrize(
        "name", ["lion", "train4", "shiftreg", "modulo12", "bbara",
                 "ex3", "opus", "dk14"]
    )
    def test_pipeline_preserves_behaviour(self, name):
        fsm = load_benchmark(name)
        result = assign_states(fsm, "picola")
        codes = {
            s: result.encoding.code_of(s)
            for s in result.encoding.symbols
        }
        seq = random_input_sequence(fsm.n_inputs, 200, seed=11)
        checked = cosimulate(
            fsm, result.minimized, codes, result.encoding.n_bits, seq
        )
        assert checked > 50  # enough specified steps exercised

    @pytest.mark.parametrize("method", ["nova_ih", "natural", "gray"])
    def test_other_methods_also_correct(self, method):
        fsm = load_benchmark("lion9")
        result = assign_states(fsm, method, seed=3)
        codes = {
            s: result.encoding.code_of(s)
            for s in result.encoding.symbols
        }
        seq = random_input_sequence(fsm.n_inputs, 150, seed=7)
        cosimulate(
            fsm, result.minimized, codes, result.encoding.n_bits, seq
        )

    def test_mismatch_detected(self):
        fsm = parse_kiss(TOY)
        result = assign_states(fsm, "natural")
        codes = {
            s: result.encoding.code_of(s)
            for s in result.encoding.symbols
        }
        broken = result.minimized.copy()
        broken.onset = []  # outputs stuck at 0, next state stuck at 0
        with pytest.raises(CosimMismatch):
            cosimulate(fsm, broken, codes, result.encoding.n_bits,
                       ["1", "1", "0"])


class TestVerify:
    def test_covers_equal(self):
        space = Space.binary(2)
        f = [space.parse_cube("0-"), space.parse_cube("1-")]
        g = [space.universe]
        assert covers_equal(space, f, g)
        assert not covers_equal(space, f, [space.parse_cube("0-")])

    def test_cover_in_range_accepts_dc_use(self):
        space = Space.binary(2)
        onset = [space.parse_cube("00")]
        dcset = [space.parse_cube("01")]
        ok, _ = cover_in_range(space, [space.parse_cube("0-")], onset,
                               dcset)
        assert ok

    def test_cover_in_range_rejects_offset_hit(self):
        space = Space.binary(2)
        onset = [space.parse_cube("00")]
        ok, reason = cover_in_range(space, [space.parse_cube("0-")],
                                    onset)
        assert not ok
        assert "off-set" in reason

    def test_cover_in_range_rejects_uncovered(self):
        space = Space.binary(2)
        onset = [space.parse_cube("00"), space.parse_cube("11")]
        ok, reason = cover_in_range(space, [space.parse_cube("00")],
                                    onset)
        assert not ok
        assert "not covered" in reason

    def test_verify_minimization_raises(self):
        space = Space.binary(2)
        with pytest.raises(VerificationError):
            verify_minimization(space, [], [space.parse_cube("00")])

    def test_espresso_results_always_verify(self):
        import random

        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(2, 5)
            space = Space.binary(n)
            minterms = list(space.iter_minterms())
            onset = [m for m in minterms if rng.random() < 0.4]
            dcset = [
                m for m in minterms
                if m not in onset and rng.random() < 0.2
            ]
            got = espresso(space, onset, dcset)
            verify_minimization(space, got, onset, dcset)

    def test_verify_pla_minimization(self):
        from repro.espresso import espresso_pla

        pla = Pla(3, 2)
        pla.add_term("000", "11")
        pla.add_term("001", "11")
        out = espresso_pla(pla)
        verify_pla_minimization(pla, out)

    def test_verify_pla_shape_mismatch(self):
        a, b = Pla(2, 1), Pla(3, 1)
        with pytest.raises(VerificationError):
            verify_pla_minimization(a, b)


class TestSeededRandomness:
    """Explicit seed/rng threading through the cosimulation oracle."""

    def test_sequence_seed_determinism(self):
        a = random_input_sequence(3, 50, seed=4)
        b = random_input_sequence(3, 50, seed=4)
        assert a == b
        assert a != random_input_sequence(3, 50, seed=5)

    def test_sequence_accepts_rng_instance(self):
        import random as _random

        a = random_input_sequence(3, 50, rng=_random.Random(4))
        b = random_input_sequence(3, 50, seed=4)
        assert a == b

    def test_seed_and_rng_together_rejected(self):
        import random as _random

        from repro.runtime import InvalidSpecError

        with pytest.raises(InvalidSpecError, match="not both"):
            random_input_sequence(
                3, 10, seed=1, rng=_random.Random(1)
            )

    def test_implicit_default_rejected(self):
        from repro.runtime import InvalidSpecError

        with pytest.raises(InvalidSpecError, match="seed= or rng="):
            random_input_sequence(2, 10)

    def test_cosimulate_generates_seeded_sequence(self):
        from repro.fsm import load_benchmark
        from repro.stateassign import assign_states

        fsm = load_benchmark("lion9")
        result = assign_states(fsm, "picola")
        codes = {
            s: result.encoding.code_of(s) for s in result.encoding.symbols
        }
        kwargs = dict(steps=40, seed=3)
        checked = cosimulate(
            fsm, result.minimized, codes, result.encoding.n_bits,
            **kwargs,
        )
        again = cosimulate(
            fsm, result.minimized, codes, result.encoding.n_bits,
            **kwargs,
        )
        assert checked == again

    def test_cosimulate_rejects_sequence_plus_seed(self):
        from repro.fsm import load_benchmark
        from repro.runtime import InvalidSpecError
        from repro.stateassign import assign_states

        fsm = load_benchmark("lion9")
        result = assign_states(fsm, "picola")
        codes = {
            s: result.encoding.code_of(s) for s in result.encoding.symbols
        }
        seq = random_input_sequence(fsm.n_inputs, 5, seed=0)
        with pytest.raises(InvalidSpecError, match="not both"):
            cosimulate(
                fsm, result.minimized, codes, result.encoding.n_bits,
                sequence=seq, seed=1,
            )
