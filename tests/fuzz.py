"""Fuzz inputs and the check every fuzz test runs (not a test module).

* :data:`GENERATORS` — seeded workload generators, each a pure
  function of ``(seed, scale)``, so a failing case is replayable from
  its ``(family, seed)`` pair alone.  ``scale`` bounds the symbol
  count; families pick their actual size from the seeded rng (skewed
  small so shrunk cases stay readable, but reaching ``scale`` symbols
  — thousands, if asked);
* :func:`fuzz_cases` / :func:`constraint_sets` — hypothesis strategies
  over them;
* :func:`check` — solve a case through the :mod:`repro.solvers`
  registry under a budget, assert :func:`verify_result` and return
  the outcome.

Families
--------
* ``random``          — unstructured constraint sets over fresh symbols;
* ``fsm``             — synthetic controllers (:func:`synthesize_fsm`)
  with face constraints derived by symbolic minimization, enabling the
  co-simulation check;
* ``bounded-length``  — prefix-group (laminar) families from bounded-
  length code-assignment, after Baer's *D-ary Bounded-Length Huffman
  Coding*: every constraint is an aligned code-prefix group, so the
  instance is provably fully satisfiable at the recorded ``nv``;
* ``grid``            — 2-D constrained patterns after Dubé: symbols on
  an ``r x c`` grid with row/column/window faces, satisfiable under the
  product code length but adversarial at minimum length;
* ``pathological``    — degenerate shapes (duplicates, singletons, the
  full set, deep nested chains, overlapping cliques) that stress the
  solvers' edge handling rather than their optimization.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.encoding import (
    ConstraintSet,
    FaceConstraint,
    derive_face_constraints,
)
from repro.espresso import espresso_pla
from repro.fsm import (
    Fsm,
    cosimulate,
    encode_fsm,
    format_kiss,
    parse_kiss,
    synthesize_fsm,
)
from repro.runtime import Budget, BudgetExceeded, InfeasibleError
from repro.solvers import get_solver

#: per-case wall-clock budget of :func:`check`, in seconds
TIMEOUT_S = 10.0


@dataclass
class FuzzCase:
    """One generated instance: a constraint set, optionally its FSM.

    ``nv`` pins the requested code length (``None`` = the minimum);
    ``satisfiable`` marks instances *constructed* to be fully
    satisfiable at ``nv``, which unlocks the stronger check for
    provably optimal solvers.
    """

    family: str
    seed: int
    cset: ConstraintSet
    fsm: Optional[Fsm] = None
    nv: Optional[int] = None
    satisfiable: bool = False
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe serialization (a corpus ``case`` entry's payload)."""
        return {
            "family": self.family,
            "seed": self.seed,
            "symbols": list(self.cset.symbols),
            "constraints": [
                {
                    "symbols": sorted(c.symbols),
                    "kind": c.kind,
                    "weight": c.weight,
                }
                for c in self.cset.constraints
            ],
            "kiss": format_kiss(self.fsm) if self.fsm is not None else None,
            "nv": self.nv,
            "satisfiable": self.satisfiable,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        cset = ConstraintSet(
            data["symbols"],
            [
                FaceConstraint(
                    c["symbols"],
                    kind=c.get("kind", "original"),
                    weight=c.get("weight", 1.0),
                )
                for c in data["constraints"]
            ],
        )
        kiss = data.get("kiss")
        fsm = parse_kiss(kiss, name="corpus") if kiss else None
        return cls(
            family=data["family"],
            seed=data["seed"],
            cset=cset,
            fsm=fsm,
            nv=data.get("nv"),
            satisfiable=bool(data.get("satisfiable", False)),
            note=data.get("note", ""),
        )


def generate_case(family: str, seed: int, scale: int = 24) -> FuzzCase:
    """Build the deterministic instance of ``family`` at ``seed``."""
    return GENERATORS[family](seed, scale)


def _rng(family: str, seed: int) -> random.Random:
    # crc32 keeps streams of different families decorrelated and is
    # stable across processes (str.__hash__ is salted)
    return random.Random(zlib.crc32(family.encode()) * 1000003 + seed)


def _size(rng: random.Random, scale: int, lo: int = 2) -> int:
    """Symbol count in [lo, scale], quadratically skewed small."""
    if scale <= lo:
        return lo
    return lo + int((scale - lo) * rng.random() ** 2)


# ----------------------------------------------------------------------
# family: random
# ----------------------------------------------------------------------
def gen_random(seed: int, scale: int) -> FuzzCase:
    """Unstructured constraint sets: random subsets of fresh symbols."""
    rng = _rng("random", seed)
    n = _size(rng, scale)
    symbols = [f"s{i}" for i in range(n)]
    n_constraints = rng.randint(0, min(3 * n, 48))
    constraints: List[FaceConstraint] = []
    for _ in range(n_constraints):
        # sizes skew small (real face constraints mostly do), with an
        # occasional trivial singleton / full-set row to stress the
        # nontrivial() filtering paths
        size = min(n, 2 + int(rng.expovariate(0.6)))
        if rng.random() < 0.06:
            size = rng.choice((1, n))
        members = rng.sample(symbols, size)
        weight = float(rng.choice((1, 1, 1, 2, 4)))
        constraints.append(FaceConstraint(members, weight=weight))
    return FuzzCase(
        family="random", seed=seed,
        cset=ConstraintSet(symbols, constraints),
    )


# ----------------------------------------------------------------------
# family: fsm
# ----------------------------------------------------------------------
def gen_fsm(seed: int, scale: int) -> FuzzCase:
    """Synthetic controller + derived face constraints (co-sim check)."""
    rng = _rng("fsm", seed)
    # symbolic minimization and co-simulation dominate the case cost,
    # so the state count caps below the raw symbol scale
    n_states = _size(rng, min(scale, 48))
    n_inputs = rng.randint(1, 4)
    n_outputs = rng.randint(1, 5)
    n_terms = rng.randint(n_states, 4 * n_states)
    fsm = synthesize_fsm(
        f"fuzz{seed}", n_inputs, n_outputs, n_states, n_terms,
        seed=seed,
    )
    return FuzzCase(
        family="fsm", seed=seed,
        cset=derive_face_constraints(fsm), fsm=fsm,
    )


# ----------------------------------------------------------------------
# family: bounded-length (Baer-style prefix groups)
# ----------------------------------------------------------------------
def gen_bounded_length(seed: int, scale: int) -> FuzzCase:
    """Bounded-length code-assignment instances (laminar prefix groups).

    Conceptually assign symbol ``i`` the natural code ``i`` in ``nv``
    bits, then constrain random *aligned prefix groups* — the leaf
    sets of internal nodes of a bounded-depth code tree.  Every such
    group lies exactly on the face fixing its prefix, so the instance
    is fully satisfiable at ``nv``; the symbol order is shuffled so
    solvers must rediscover the tree rather than read it off the
    naming.
    """
    rng = _rng("bounded-length", seed)
    n = _size(rng, scale, lo=3)
    min_nv = (n - 1).bit_length()
    nv = min_nv + rng.choice((0, 0, 0, 1))
    conceptual = [f"s{i}" for i in range(n)]
    groups: List[frozenset] = []
    seen = set()
    for _ in range(rng.randint(1, max(2, n // 2) + 4)):
        length = rng.randint(1, nv - 1) if nv > 1 else 1
        prefix = rng.randrange(1 << length)
        lo = prefix << (nv - length)
        hi = lo + (1 << (nv - length))
        members = frozenset(
            conceptual[i] for i in range(n) if lo <= i < hi
        )
        if 2 <= len(members) < n and members not in seen:
            seen.add(members)
            groups.append(members)
    symbols = list(conceptual)
    rng.shuffle(symbols)
    weights = [float(rng.randint(1, 9)) for _ in groups]
    constraints = [
        FaceConstraint(g, weight=w) for g, w in zip(groups, weights)
    ]
    return FuzzCase(
        family="bounded-length", seed=seed,
        cset=ConstraintSet(symbols, constraints),
        nv=nv, satisfiable=True,
        note=f"prefix groups of a depth-{nv} code tree",
    )


# ----------------------------------------------------------------------
# family: grid (Dubé-style 2-D constrained patterns)
# ----------------------------------------------------------------------
def gen_grid(seed: int, scale: int) -> FuzzCase:
    """2-D constrained patterns: symbols on a grid, faces on its axes.

    Rows and columns of an ``r x c`` grid are simultaneously
    satisfiable under the product code (row bits ++ column bits); at
    the minimum code length the same constraints are usually in
    conflict, which makes this the adversarial counterpart of
    ``bounded-length``.  A sprinkle of contiguous 2-D windows rides
    along.
    """
    rng = _rng("grid", seed)
    r = rng.randint(2, max(2, min(12, scale // 2)))
    c = rng.randint(2, max(2, min(12, scale // r)))
    symbols = [f"g{i}_{j}" for i in range(r) for j in range(c)]
    constraints: List[FaceConstraint] = []
    n = r * c
    for i in range(r):
        row = [f"g{i}_{j}" for j in range(c)]
        if 2 <= len(row) < n:
            constraints.append(FaceConstraint(row))
    for j in range(c):
        col = [f"g{i}_{j}" for i in range(r)]
        if 2 <= len(col) < n:
            constraints.append(FaceConstraint(col))
    windows_only_axes = rng.random() < 0.5
    if not windows_only_axes:
        for _ in range(rng.randint(1, 4)):
            hi = rng.randint(0, r - 2)
            hj = rng.randint(0, c - 2)
            window = [
                f"g{i}_{j}"
                for i in (hi, hi + 1)
                for j in (hj, hj + 1)
            ]
            if len(window) < n:
                constraints.append(FaceConstraint(window, weight=2.0))
    rbits = (r - 1).bit_length()
    cbits = (c - 1).bit_length()
    product_nv = max(1, rbits + cbits)
    use_product = windows_only_axes and rng.random() < 0.5
    return FuzzCase(
        family="grid", seed=seed,
        cset=ConstraintSet(symbols, constraints),
        nv=product_nv if use_product else None,
        satisfiable=use_product,
        note=f"{r}x{c} grid"
        + (" @ product length" if use_product else ""),
    )


# ----------------------------------------------------------------------
# family: pathological
# ----------------------------------------------------------------------
def gen_pathological(seed: int, scale: int) -> FuzzCase:
    """Degenerate constraint shapes that stress edge handling."""
    rng = _rng("pathological", seed)
    n = _size(rng, max(4, min(scale, 32)), lo=2)
    symbols = [f"p{i}" for i in range(n)]
    shape = rng.choice(
        ("empty", "trivial", "nested", "clique", "duplicates")
    )
    constraints: List[FaceConstraint] = []
    if shape == "trivial":
        constraints = [
            FaceConstraint([symbols[0]]),
            FaceConstraint(symbols),
        ]
    elif shape == "nested":
        # a maximal chain s0..sk ⊃ s0..s(k-1) ⊃ ... ⊃ s0,s1
        for k in range(2, n):
            constraints.append(FaceConstraint(symbols[:k]))
    elif shape == "clique":
        # all pairs over a small core: mutually incompatible beyond
        # the core's supercube
        core = symbols[: min(n, 5)]
        for i in range(len(core)):
            for j in range(i + 1, len(core)):
                constraints.append(FaceConstraint([core[i], core[j]]))
    elif shape == "duplicates":
        members = rng.sample(symbols, min(n, 3))
        constraints = [FaceConstraint(members) for _ in range(4)]
    return FuzzCase(
        family="pathological", seed=seed,
        cset=ConstraintSet(symbols, constraints),
        note=f"shape={shape}",
    )


#: family name -> ``fn(seed, scale) -> FuzzCase``
GENERATORS: Dict[str, Callable[[int, int], FuzzCase]] = {
    "random": gen_random,
    "fsm": gen_fsm,
    "bounded-length": gen_bounded_length,
    "grid": gen_grid,
    "pathological": gen_pathological,
}


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
def fuzz_cases(
    families: Optional[Sequence[str]] = None,
    *,
    max_seed: int = 10_000,
    scale: int = 24,
):
    """Strategy drawing :class:`FuzzCase` instances.

    Draws a family and a seed and builds the deterministic case, so
    hypothesis shrinks through ``(family, seed)`` space and every
    minimal counterexample prints as the :func:`generate_case` call
    that rebuilds it.
    """
    # imported here: the corpus replay runs without hypothesis
    from hypothesis import strategies as st

    return st.builds(
        generate_case,
        st.sampled_from(tuple(families or sorted(GENERATORS))),
        st.integers(min_value=0, max_value=max_seed),
        st.just(scale),
    )


def constraint_sets(
    families: Optional[Sequence[str]] = None,
    *,
    max_seed: int = 10_000,
    scale: int = 24,
):
    """Strategy drawing bare :class:`~repro.encoding.ConstraintSet`\\ s."""
    return fuzz_cases(
        families, max_seed=max_seed, scale=scale
    ).map(lambda case: case.cset)


# ----------------------------------------------------------------------
# the check
# ----------------------------------------------------------------------
def solve(case: FuzzCase, solver: str, budget: Budget):
    """Encode ``case`` with the registered ``solver`` (seed 0)."""
    impl = get_solver(solver)
    options = {"nv": case.nv, "seed": 0, "fsm": case.fsm}
    return impl.solve(
        case.cset,
        options={
            k: v for k, v in options.items()
            if v is not None and k in impl.option_keys
        },
        budget=budget,
    )


def verify_result(case: FuzzCase, result, budget: Budget) -> None:
    """Assert what every encoder must honour, whatever its quality.

    The encoding is injective over exactly the case's symbols; every
    code fits the requested (or minimum) code length; a constraint the
    solver claims satisfied has no intruders; an ``optimal`` result on
    an instance constructed satisfiable satisfies every nontrivial
    constraint; and an FSM case's encoded, minimized PLA co-simulates
    with its flow table (:class:`~repro.fsm.CosimMismatch` is an
    ``AssertionError``).
    """
    at = f"{case.family}:{case.seed}"
    encoding, cset = result.encoding, case.cset
    assert sorted(encoding.symbols) == sorted(cset.symbols), (
        f"{at}: encoding does not cover the case's symbols"
    )
    assert encoding.is_injective(), f"{at}: encoding is not injective"
    nv = case.nv or cset.min_code_length()
    assert encoding.n_bits == nv, (
        f"{at}: code length {encoding.n_bits} != expected {nv}"
    )
    for s in encoding.symbols:
        code = encoding.code_of(s)
        assert 0 <= code and not code >> nv, (
            f"{at}: code of {s} does not fit {nv} bits"
        )
    claimed = getattr(result.raw, "satisfied", None)
    if isinstance(claimed, list):  # picola: the claimed-satisfied rows
        for constraint in claimed:
            assert not encoding.intruders(constraint.symbols), (
                f"{at}: claimed-satisfied constraint "
                f"{sorted(constraint.symbols)} has intruders"
            )
    if case.satisfiable and result.stats.get("optimal"):
        for constraint in cset.nontrivial():
            assert not encoding.intruders(constraint.symbols), (
                f"{at}: instance is satisfiable by construction but "
                f"the optimal solver left {sorted(constraint.symbols)} "
                "unsatisfied"
            )
    if case.fsm is not None:
        codes = {s: encoding.code_of(s) for s in encoding.symbols}
        pla = encode_fsm(case.fsm, codes, n_bits=nv)
        minimized = espresso_pla(pla, use_lastgasp=False, budget=budget)
        cosimulate(case.fsm, minimized, codes, nv, steps=128, seed=0)


def check(case: FuzzCase, solver: str = "picola") -> str:
    """Solve ``case`` under ``Budget(seconds=TIMEOUT_S)``, assert
    :func:`verify_result` and return the outcome.

    The outcome is ``"verified"``, or ``"infeasible"`` when the solver
    reports the instance infeasible, or ``"budget"`` when the budget
    runs out: those are outcomes, not findings.  Any other exception
    propagates, and hypothesis shrinks it to its ``(family, seed)``.
    """
    budget = Budget(seconds=TIMEOUT_S)
    try:
        verify_result(case, solve(case, solver, budget), budget)
    except InfeasibleError:
        return "infeasible"
    except BudgetExceeded:
        return "budget"
    return "verified"
