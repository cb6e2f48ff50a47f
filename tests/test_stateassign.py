"""Tests for the state-assignment tool and encoded-machine correctness."""

import pytest

import repro.solvers
from repro.baselines.simple import natural_encoding
from repro.core import PicolaOptions
from repro.cubes import contains
from repro.encoding import derive_face_constraints
from repro.fsm import encode_fsm, load_benchmark, parse_kiss
from repro.obs import MemorySink, Tracer
from repro.runtime import Budget, BudgetExceeded, InvalidSpecError
from repro.solvers import Solver, get_solver, register_solver
from repro.stateassign import METHODS, AssignmentResult, assign_states

TOY = """
.i 2
.o 1
.r a
00 a a 0
01 a b 0
1- a c 1
-- b a 1
0- c b 0
1- c c 1
"""


def simulate_symbolic(fsm, state, inputs):
    """Next state and outputs per the symbolic description."""
    for t in fsm.transitions_from(state):
        if all(p in ("-", i) for p, i in zip(t.inputs, inputs)):
            return t.next, t.outputs
    return None, None


class TestAssignStates:
    def test_all_methods_run(self):
        fsm = parse_kiss(TOY)
        for method in METHODS:
            result = assign_states(fsm, method, seed=1)
            assert result.size > 0
            assert result.encoding.is_injective()

    def test_unknown_method_rejected(self):
        fsm = parse_kiss(TOY)
        with pytest.raises(ValueError):
            assign_states(fsm, "made-up")

    @pytest.mark.parametrize("method", ["mustang_p", "mustang_n"])
    def test_mustang_methods_rejected(self, method):
        # out of the paper's scope: no table compares against MUSTANG
        with pytest.raises(InvalidSpecError) as info:
            assign_states(parse_kiss(TOY), method)
        assert str(METHODS) in str(info.value)

    def test_minimized_preserves_behaviour(self):
        """The minimized encoded PLA must agree with the symbolic FSM."""
        fsm = parse_kiss(TOY)
        result = assign_states(fsm, "picola")
        enc = result.encoding
        pla = result.minimized
        n_in, n_bits = fsm.n_inputs, enc.n_bits
        for state in fsm.states:
            code = enc.code_of(state)
            for x in range(1 << n_in):
                inputs = format(x, f"0{n_in}b")
                want_next, want_out = simulate_symbolic(fsm, state, inputs)
                if want_next is None:
                    continue  # unspecified
                values = [int(ch) for ch in inputs]
                values += [
                    (code >> (n_bits - 1 - b)) & 1 for b in range(n_bits)
                ]
                got = pla.eval_minterm(values)
                want_code = enc.code_of(want_next)
                for b in range(n_bits):
                    want_bit = (want_code >> (n_bits - 1 - b)) & 1
                    assert got[b] in (want_bit, -1), (
                        f"state {state} input {inputs} bit {b}"
                    )
                for o, ch in enumerate(want_out):
                    if ch == "-":
                        continue
                    assert got[n_bits + o] in (int(ch), -1), (
                        f"state {state} input {inputs} output {o}"
                    )

    def test_minimization_reduces_or_keeps_size(self):
        fsm = load_benchmark("lion")
        result = assign_states(fsm, "natural")
        assert result.size <= result.pla.num_terms()

    def test_shared_constraints_reused(self):
        fsm = parse_kiss(TOY)
        cset = derive_face_constraints(fsm)
        result = assign_states(fsm, "picola", constraints=cset)
        assert result.constraints is cset

    def test_result_metrics(self):
        fsm = parse_kiss(TOY)
        result = assign_states(fsm, "picola")
        assert result.literals >= 0
        assert result.area == result.size * (
            2 * result.minimized.n_inputs + result.minimized.n_outputs
        )
        assert fsm.name in result.summary() or "picola" in result.summary()

    def test_no_minimize_flag(self):
        fsm = parse_kiss(TOY)
        result = assign_states(fsm, "natural", minimize=False)
        assert result.minimized is result.pla


class TestSolverCall:
    """``assign_states`` calls the registry solver directly."""

    def test_caller_budget_and_tracer_reach_the_solver(self):
        calls = []

        class Spy(Solver):
            name = "picola"
            option_keys = ("nv", "picola_options", "seed")

            def _run(self, cset, opts, budget, tracer):
                calls.append((budget, tracer))
                encoding = natural_encoding(list(cset.symbols))
                return encoding, {}, encoding

        original = get_solver("picola")
        budget = Budget(seconds=60)
        tracer = Tracer(MemorySink())
        try:
            register_solver(Spy(), replace=True)
            assign_states(
                parse_kiss(TOY), "picola", budget=budget,
                tracer=tracer, minimize=False,
            )
        finally:
            register_solver(original, replace=True)
        assert calls == [(budget, tracer)]

    def test_picola_options_reach_picola(self, monkeypatch):
        seen = []
        real = repro.solvers.picola_encode

        def recording(cset, **kwargs):
            seen.append(kwargs["options"])
            return real(cset, **kwargs)

        monkeypatch.setattr(repro.solvers, "picola_encode", recording)
        options = PicolaOptions(beam_width=3)
        assign_states(
            parse_kiss(TOY), "picola", picola_options=options,
            minimize=False,
        )
        assert seen == [options] and seen[0] is options

    def test_budget_error_is_raised_raw(self):
        with pytest.raises(BudgetExceeded):
            assign_states(
                load_benchmark("lion"), "picola",
                budget=Budget(max_nodes=1), minimize=False,
            )

    def test_one_request_counted_per_call(self):
        tracer = Tracer(MemorySink())
        fsm = parse_kiss(TOY)
        assign_states(fsm, "picola", tracer=tracer, minimize=False)
        assert tracer.counters()["service.requests"] == 1
        assign_states(fsm, "natural", tracer=tracer, minimize=False)
        assert tracer.counters()["service.requests"] == 2

    def test_shared_constraint_set_unchanged(self):
        fsm = load_benchmark("lion")
        cset = derive_face_constraints(fsm)
        symbols, constraints = cset.symbols, list(cset.constraints)
        for method in METHODS:
            assign_states(
                fsm, method, constraints=cset, minimize=False
            )
        assert cset.symbols == symbols
        assert cset.constraints == constraints
