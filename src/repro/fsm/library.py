"""The benchmark library: IWLS-93-style FSMs for the paper's tables.

Four small classics are embedded as real KISS2 files constructed from
their textbook specifications (``lion``, ``train4``, ``shiftreg``,
``modulo12``).  Every machine named in the paper's Tables I/II is
registered here with the interface parameters published for the MCNC /
IWLS-93 set; those flow tables are produced by the seeded synthetic
generator (:mod:`repro.fsm.synth`) because the original files are not
redistributable — see DESIGN.md §2 for why this substitution preserves
the experiments' behaviour.  A few giants are scaled down (``scaled``
flag) to stay within pure-Python minimizer budgets; the scaling is
part of the registry so EXPERIMENTS.md can report it.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..runtime import InvalidSpecError
from .kiss import parse_kiss
from .machine import Fsm
from .synth import synthesize_fsm

__all__ = ["BenchmarkSpec", "BENCHMARKS", "load_benchmark", "benchmark_names"]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry for one benchmark machine."""

    name: str
    inputs: int
    outputs: int
    states: int
    terms: int
    source: str  # "file" or "synthetic"
    scaled_from: Optional[str] = None  # original parameters when scaled
    # paper reference values (Table I), None when not legible/reported
    paper_constraints: Optional[int] = None
    paper_cubes_nova: Optional[int] = None
    paper_cubes_enc: Optional[int] = None
    paper_cubes_picola: Optional[int] = None


def _spec(name, i, o, s, p, source="synthetic", scaled_from=None,
          pc=None, pn=None, pe=None, pp=None) -> BenchmarkSpec:
    return BenchmarkSpec(
        name, i, o, s, p, source, scaled_from,
        paper_constraints=pc, paper_cubes_nova=pn,
        paper_cubes_enc=pe, paper_cubes_picola=pp,
    )


# Interface parameters follow the published MCNC/IWLS-93 tables; the
# paper_* fields record the values legible in the paper's Table I
# (the scan garbles several cells — those stay None).
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        # embedded real (textbook-specified) machines
        _spec("lion", 2, 1, 4, 11, source="file"),
        _spec("train4", 2, 1, 4, 14, source="file"),
        _spec("shiftreg", 1, 1, 8, 16, source="file"),
        _spec("modulo12", 1, 1, 12, 24, source="file"),
        _spec("dk27", 1, 2, 7, 14, source="file"),
        _spec("seq101", 1, 1, 3, 6, source="file"),
        _spec("vending", 2, 2, 4, 12, source="file"),
        # Table I / II machines (synthetic stand-ins)
        _spec("bbara", 4, 2, 10, 60, pc=4, pn=8, pp=5),
        _spec("bbsse", 7, 7, 16, 56),
        _spec("cse", 7, 7, 16, 91),
        _spec("dk14", 3, 5, 7, 56),
        _spec("ex3", 2, 2, 10, 36, pc=6, pn=8, pp=8),
        _spec("ex5", 2, 2, 9, 32, pp=10),
        _spec("ex7", 2, 2, 10, 36, pp=9),
        _spec("kirkman", 12, 6, 16, 370),
        _spec("lion9", 2, 1, 9, 25, pp=10),
        _spec("mark1", 5, 16, 15, 22, pc=4, pn=6, pp=5),
        _spec("opus", 5, 6, 10, 22, pc=2, pn=2, pp=2),
        _spec("train11", 2, 1, 11, 25, pp=12),
        _spec("s8", 4, 1, 5, 20, pp=7),
        _spec("s27", 4, 1, 6, 34, pp=7),
        _spec("dk16", 2, 3, 27, 108),
        _spec("donfile", 2, 1, 24, 96),
        _spec("ex1", 9, 19, 20, 138),
        _spec("ex2", 2, 2, 19, 72, pp=12),
        _spec("keyb", 7, 2, 19, 170, pp=41),
        _spec("s386", 7, 7, 13, 64),
        _spec("s1", 8, 6, 20, 107),
        _spec("s1a", 8, 6, 20, 107),
        _spec("sand", 11, 9, 32, 184),
        _spec("tma", 7, 6, 20, 44, pp=16),
        _spec("pma", 8, 8, 24, 73, pp=30),
        _spec("styr", 9, 10, 30, 166),
        _spec(
            "tbk", 6, 3, 32, 180,
            scaled_from="6i/3o/32s/1569p (term count reduced)",
        ),
        _spec(
            "s420", 12, 2, 18, 137,
            scaled_from="19i/2o/18s/137p (inputs reduced)",
            pp=17,
        ),
        _spec(
            "s510", 12, 7, 47, 77,
            scaled_from="19i/7o/47s/77p (inputs reduced)",
            pp=17,
        ),
        _spec("planet", 7, 19, 48, 115),
        _spec(
            "s820", 12, 19, 25, 232,
            scaled_from="18i/19o/25s/232p (inputs reduced)",
            pp=66,
        ),
        _spec(
            "s832", 12, 19, 25, 245,
            scaled_from="18i/19o/25s/245p (inputs reduced)",
            pp=63,
        ),
        _spec(
            "scf", 12, 20, 121, 166,
            scaled_from="27i/56o/121s/166p (interface reduced)",
            pp=21,
        ),
        # additional classic machines (not in the paper's tables, but
        # part of the same benchmark family; useful for wider sweeps)
        _spec("bbtas", 2, 2, 6, 24),
        _spec("beecount", 3, 4, 7, 28),
        _spec("dk15", 3, 5, 4, 32),
        _spec("dk17", 2, 3, 8, 32),
        _spec("dk512", 1, 3, 15, 30),
        _spec("ex4", 6, 9, 14, 21),
        _spec("ex6", 5, 8, 8, 34),
        _spec("mc", 3, 5, 4, 10),
        _spec("tav", 4, 4, 4, 49),
        _spec("sse", 7, 7, 16, 56),
        _spec("s1488", 8, 19, 48, 251),
        _spec("s1494", 8, 19, 48, 250),
    ]
}

# The paper's table rows, in order.
TABLE1_FSMS: List[str] = [
    "bbara", "bbsse", "cse", "dk14", "ex3", "ex5", "ex7", "kirkman",
    "lion9", "mark1", "opus", "train11", "s8", "s27", "dk16", "donfile",
    "ex1", "ex2", "keyb", "s386", "s1", "s1a", "sand", "tma", "pma",
    "styr", "tbk", "s420", "s510", "planet", "s820", "s832", "scf",
]

TABLE2_FSMS: List[str] = [
    "s1", "s1a", "dk16", "donfile", "ex1", "ex2", "keyb", "s386",
    "sand", "tma", "pma", "styr", "tbk", "s420", "s510", "planet",
    "s820", "s832", "scf",
]


def benchmark_names() -> List[str]:
    return sorted(BENCHMARKS)


def load_benchmark(name: str, seed: int = 0) -> Fsm:
    """Load (or synthesize) a registered benchmark machine.

    An unknown ``name`` raises :class:`~repro.runtime.InvalidSpecError`.
    """
    try:
        spec = BENCHMARKS[name]
    except KeyError:
        raise InvalidSpecError(
            f"unknown benchmark {name!r}; see benchmark_names()"
        ) from None
    if spec.source == "file":
        data = (
            importlib.resources.files("repro.fsm")
            .joinpath(f"data/{name}.kiss2")
            .read_text()
        )
        fsm = parse_kiss(data, name=name)
    else:
        fsm = synthesize_fsm(
            name, spec.inputs, spec.outputs, spec.states, spec.terms,
            seed=seed,
        )
    return fsm
