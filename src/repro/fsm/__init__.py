"""FSM substrate: KISS2 machines, benchmark library, PLA bridges."""

from .encode import encode_fsm, fsm_to_symbolic_cover, unused_code_cubes
from .kiss import format_kiss, parse_kiss
from .library import (
    BENCHMARKS,
    TABLE1_FSMS,
    TABLE2_FSMS,
    BenchmarkSpec,
    benchmark_names,
    load_benchmark,
)
from .machine import DC_STATE, Fsm, Transition
from .simulate import (
    CosimMismatch,
    EncodedSimulator,
    SymbolicSimulator,
    cosimulate,
    random_input_sequence,
)
from .synth import synthesize_fsm

__all__ = [
    "encode_fsm",
    "fsm_to_symbolic_cover",
    "unused_code_cubes",
    "format_kiss",
    "parse_kiss",
    "BENCHMARKS",
    "TABLE1_FSMS",
    "TABLE2_FSMS",
    "BenchmarkSpec",
    "benchmark_names",
    "load_benchmark",
    "DC_STATE",
    "Fsm",
    "Transition",
    "CosimMismatch",
    "EncodedSimulator",
    "SymbolicSimulator",
    "cosimulate",
    "random_input_sequence",
    "synthesize_fsm",
]
