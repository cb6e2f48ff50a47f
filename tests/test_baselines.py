"""Tests for the NOVA-, ENC-style and trivial baseline encoders."""

import math
import random
from typing import Dict, Optional

import pytest

from repro.baselines import (
    EncBudgetExceeded,
    best_random_encoding,
    enc_encode,
    gray_encoding,
    natural_encoding,
    nova_encode,
    random_encoding,
    state_affinity,
)
from repro.baselines import enc as enc_module
from repro.baselines import nova as nova_module
from repro.encoding import (
    ConstraintSet,
    Encoding,
    FaceConstraint,
    cubes_for_constraint,
    evaluate_encoding,
)
from repro.encoding import derive_face_constraints, face_of
from repro.encoding.evaluate import cubes_for_codes
from repro.fsm import TABLE1_FSMS, load_benchmark, parse_kiss
from repro.harness import QUICK_FSMS
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import Budget, InvalidSpecError, faults


def cset_of(n, groups):
    syms = [f"s{i}" for i in range(n)]
    return ConstraintSet(
        syms, [FaceConstraint({f"s{i}" for i in g}) for g in groups]
    )


class TestSimpleEncoders:
    def test_natural(self):
        enc = natural_encoding(["a", "b", "c"])
        assert enc.codes == {"a": 0, "b": 1, "c": 2}
        assert enc.n_bits == 2

    def test_gray_adjacent_codes(self):
        enc = gray_encoding([f"s{i}" for i in range(8)])
        codes = [enc.codes[f"s{i}"] for i in range(8)]
        for a, b in zip(codes, codes[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_random_is_injective_and_seeded(self):
        syms = [f"s{i}" for i in range(9)]
        a = random_encoding(syms, seed=3)
        b = random_encoding(syms, seed=3)
        c = random_encoding(syms, seed=4)
        assert a.codes == b.codes
        assert a.is_injective()
        assert a.codes != c.codes

    def test_too_small_nv_rejected(self):
        with pytest.raises(ValueError):
            natural_encoding(["a", "b", "c"], nv=1)

    def test_best_random_scores_by_satisfaction(self):
        cs = cset_of(4, [[0, 1]])
        enc = best_random_encoding(cs, trials=16)
        assert enc.satisfies({"s0", "s1"})


class TestNova:
    def test_satisfies_easy_constraints(self):
        cs = cset_of(8, [[0, 1], [2, 3], [4, 5, 6, 7]])
        result = nova_encode(cs, seed=1)
        assert result.satisfied == 3
        assert result.encoding.is_injective()

    def test_variants(self):
        cs = cset_of(6, [[0, 1], [2, 3]])
        for variant in ("i_greedy", "i_hybrid"):
            result = nova_encode(cs, variant=variant, seed=2)
            assert result.encoding.is_injective()
            assert result.variant == variant

    def test_io_hybrid_uses_affinity(self):
        cs = cset_of(4, [])
        affinity = {("s0", "s1"): 5.0}
        result = nova_encode(
            cs, variant="io_hybrid", affinity=affinity, seed=0
        )
        # the affinity bonus should pull s0 and s1 close together
        dist = bin(
            result.encoding.code_of("s0") ^ result.encoding.code_of("s1")
        ).count("1")
        assert dist == 1

    def test_unknown_variant_rejected(self):
        cs = cset_of(4, [])
        with pytest.raises(ValueError):
            nova_encode(cs, variant="nope")

    def test_deterministic_per_seed(self):
        cs = cset_of(9, [[0, 1, 2], [3, 4]])
        a = nova_encode(cs, seed=7).encoding.codes
        b = nova_encode(cs, seed=7).encoding.codes
        assert a == b


def scan_objective(symbols, constraints, codes, nv, affinity):
    """NOVA's objective as it scanned every non-member symbol per
    constraint, before the face-occupancy count: the oracle below."""
    total = 0.0
    for c in constraints:
        mask, value = face_of((codes[s] for s in c.symbols), nv)
        ok = all(
            (code ^ value) & mask
            for s, code in codes.items()
            if s not in c.symbols
        )
        if ok:
            total += c.weight
    if affinity:
        for (a, b), w in affinity.items():
            dist = bin(codes[a] ^ codes[b]).count("1")
            total += w * (nv - dist) / (4.0 * nv)
    return total


class TestNovaObjective:
    """The face-occupancy objective equals the per-symbol scan."""

    # Table II's 19 machines are among Table I's 33
    @pytest.mark.parametrize("name", TABLE1_FSMS)
    def test_random_injective_codes(self, name):
        fsm = load_benchmark(name, seed=0)
        cset = derive_face_constraints(fsm)
        symbols = list(cset.symbols)
        constraints = cset.nontrivial()
        affinity = state_affinity(fsm)
        rng = random.Random(name)
        for extra_bits in (0, 1):
            nv = cset.min_code_length() + extra_bits
            for _ in range(10):
                codes = dict(
                    zip(symbols, rng.sample(range(1 << nv), len(symbols)))
                )
                for aff in (None, affinity):
                    args = (symbols, constraints, codes, nv, aff)
                    assert nova_module._objective(*args) == (
                        scan_objective(*args)
                    )

    @pytest.mark.parametrize("variant", ["i_hybrid", "io_hybrid"])
    @pytest.mark.parametrize("name", ["dk16", "s1", "scf"])
    def test_encodings_identical_under_scan(self, name, variant, monkeypatch):
        """Table II's NOVA runs (seed 1) give the same encoding when
        the anneal re-scores every move with the scan; every code map
        the scan sees is injective, which the occupancy test relies
        on."""
        fsm = load_benchmark(name, seed=0)
        cset = derive_face_constraints(fsm)
        affinity = state_affinity(fsm) if variant == "io_hybrid" else None
        want = nova_encode(cset, variant=variant, affinity=affinity, seed=1)
        seen = []

        def checked_scan(symbols, constraints, codes, nv, aff):
            assert len(set(codes.values())) == len(symbols)
            seen.append(1)
            return scan_objective(symbols, constraints, codes, nv, aff)

        def scan_anneal(*args, **kwargs):
            return full_recompute_anneal(
                *args, objective=checked_scan, **kwargs
            )

        monkeypatch.setattr(nova_module, "_anneal", scan_anneal)
        got = nova_encode(cset, variant=variant, affinity=affinity, seed=1)
        assert len(seen) > 1000
        assert got.encoding.codes == want.encoding.codes
        assert got.objective == want.objective


def full_recompute_anneal(
    symbols, constraints, codes, nv, rng, affinity, moves, budget=None,
    tracer=None, objective=None,
):
    """NOVA's anneal as it re-scored every constraint on every move,
    before the incremental state: verbatim apart from the pluggable
    ``objective`` and without the budget, fault and tracer hooks.  The
    oracle of the tests below."""
    if objective is None:
        objective = nova_module._objective
    codes = dict(codes)
    current = objective(symbols, constraints, codes, nv, affinity)
    best = dict(codes)
    best_obj = current
    n = len(symbols)
    all_codes = list(range(1 << nv))
    temperature = max(1.0, len(constraints) / 4.0)
    cooling = 0.995 if moves else 1.0
    for _ in range(moves):
        s = symbols[rng.randrange(n)]
        target = all_codes[rng.randrange(len(all_codes))]
        owner = None
        for t in symbols:
            if codes[t] == target:
                owner = t
                break
        old_s = codes[s]
        if owner is s:
            continue
        codes[s] = target
        if owner is not None:
            codes[owner] = old_s
        candidate = objective(symbols, constraints, codes, nv, affinity)
        delta = candidate - current
        if delta >= 0 or rng.random() < math.exp(delta / temperature):
            current = candidate
            if current > best_obj:
                best_obj = current
                best = dict(codes)
        else:
            codes[s] = old_s
            if owner is not None:
                codes[owner] = target
        temperature = max(temperature * cooling, 0.05)
    return best


class TestAnnealDraws:
    """The anneal draws ``randrange(m)`` as ``getrandbits`` calls in the
    rejection loop CPython's ``random.Random`` runs for it (3.9 through
    3.12).  These tests pin that assumption on the running Python; the
    anneal's equality with the ``randrange`` oracle above pins its use.
    """

    @staticmethod
    def below(rng, m):
        """``rng.randrange(m)`` as the anneal draws it."""
        k = m.bit_length()
        r = rng.getrandbits(k)
        while r >= m:
            r = rng.getrandbits(k)
        return r

    @pytest.mark.parametrize("seed", range(6))
    def test_getrandbits_loop_is_randrange(self, seed):
        for m in range(1, 131):
            want, got = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert self.below(got, m) == want.randrange(m), m
            assert [got.random() for _ in range(3)] == [
                want.random() for _ in range(3)
            ], m

    def test_no_symbol_to_draw(self):
        """With no symbol, the draw loop could never end; the anneal
        raises instead."""
        with pytest.raises(InvalidSpecError):
            nova_encode(ConstraintSet([]))

    @pytest.mark.parametrize("seed", range(5))
    def test_alternating_sizes(self, seed):
        """One stream alternating a symbol draw, a code draw and an
        acceptance draw, as a move does."""
        want, got = random.Random(seed), random.Random(seed)
        for n, size in ((1, 2), (3, 4), (7, 8), (27, 32), (130, 128)):
            for _ in range(50):
                pair = [self.below(got, n), self.below(got, size)]
                assert pair == [want.randrange(n), want.randrange(size)]
                assert got.random() == want.random()


class TestIncrementalAnneal:
    """The incremental anneal makes the full-recompute anneal's moves."""

    @pytest.mark.parametrize("variant", ["i_hybrid", "io_hybrid"])
    @pytest.mark.parametrize("name", TABLE1_FSMS)
    def test_table1_identical(self, name, variant, monkeypatch):
        """Every Table I constraint set (reference draw), at the
        harness seed 1: equal codes, objective and satisfied count."""
        fsm = load_benchmark(name, seed=0)
        cset = derive_face_constraints(fsm)
        affinity = state_affinity(fsm) if variant == "io_hybrid" else None
        want = nova_encode(cset, variant=variant, affinity=affinity, seed=1)
        monkeypatch.setattr(nova_module, "_anneal", full_recompute_anneal)
        got = nova_encode(cset, variant=variant, affinity=affinity, seed=1)
        assert got.encoding.codes == want.encoding.codes
        assert got.objective == want.objective
        assert got.satisfied == want.satisfied

    def test_moves_to_unused_codes(self, monkeypatch):
        """Sparse code spaces, where most moves take an unused code and
        intrude on (or leave) faces of constraints they are not in."""
        rng = random.Random(5)
        symbols = [f"s{i}" for i in range(7)]
        for trial in range(40):
            groups = [
                rng.sample(symbols, rng.randint(2, 4)) for _ in range(5)
            ]
            cset = ConstraintSet(
                symbols,
                [FaceConstraint(set(g), weight=rng.choice([1.0, 2.5]))
                 for g in groups],
            )
            affinity = {
                tuple(rng.sample(symbols, 2)): rng.random() for _ in range(4)
            } if trial % 2 else None
            variant = "io_hybrid" if affinity else "i_hybrid"
            kwargs = dict(
                nv=4 + trial % 2, variant=variant, affinity=affinity,
                seed=trial, anneal_moves=300,
            )
            want = nova_encode(cset, **kwargs)
            with monkeypatch.context() as mp:
                mp.setattr(nova_module, "_anneal", full_recompute_anneal)
                got = nova_encode(cset, **kwargs)
            assert got.encoding.codes == want.encoding.codes
            assert got.objective == want.objective

    @pytest.mark.parametrize("variant", ["i_hybrid", "io_hybrid"])
    @pytest.mark.parametrize("nv", range(1, 8))
    def test_count_field_widths(self, nv, variant, monkeypatch):
        """Constraints of 2**j - 1, 2**j and 2**j + 1 members and of all
        symbols but one, in a full code space and in sparse ones, where
        every member of a large constraint can share a code bit: the
        anneal's packed per-bit counts fill their fields to the top."""
        rng = random.Random(nv)
        sizes = {n for j in range(1, nv + 1)
                 for n in ((1 << j) - 1, 1 << j, (1 << j) + 1)}
        # the full space, one at minimum length, and sparse ones, where nv
        # exceeds the minimum and the largest constraint's size
        # (2**(nv-1) - 1 or 2**(nv-2) + 1) is no power of two
        spaces = {1 << nv, (1 << nv - 1) + 1, 1 << nv - 1,
                  (1 << max(nv - 2, 0)) + 2, 3}
        for n in sorted(k for k in spaces if 2 <= k <= 1 << nv):
            symbols = [f"s{i}" for i in range(n)]
            groups = [rng.sample(symbols, k)
                      for k in sorted(sizes | {n - 1}) if 2 <= k < n
                      for _ in range(2)]
            cset = ConstraintSet(
                symbols,
                [FaceConstraint(set(g), weight=rng.choice([1.0, 2.5]))
                 for g in groups],
            )
            affinity = {
                tuple(rng.sample(symbols, 2)): rng.random() for _ in range(4)
            } if variant == "io_hybrid" else None
            kwargs = dict(nv=nv, variant=variant, affinity=affinity,
                          seed=n, anneal_moves=400)
            want = nova_encode(cset, **kwargs)
            with monkeypatch.context() as mp:
                mp.setattr(nova_module, "_anneal", full_recompute_anneal)
                got = nova_encode(cset, **kwargs)
            assert got.encoding.codes == want.encoding.codes, n
            assert got.objective == want.objective, n
            assert got.satisfied == want.satisfied, n


class TestEnc:
    def test_improves_over_natural(self):
        cs = cset_of(8, [[0, 7], [1, 6]])  # natural numbering violates
        result = enc_encode(cs, max_minimizations=3000)
        assert result.converged
        assert result.encoding.is_injective()
        # two pair constraints are always satisfiable in B^3
        assert result.total_cubes == 2

    def test_budget_failure_nonstrict(self):
        cs = cset_of(10, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        result = enc_encode(cs, max_minimizations=5)
        assert not result.converged
        assert result.encoding.is_injective()

    def test_budget_out_on_seed_encoding(self):
        # too small to score the seed encoding once: the natural
        # encoding comes back, with its full score
        cs = cset_of(10, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        result = enc_encode(cs, max_minimizations=2)
        assert not result.converged
        assert result.encoding.codes == natural_encoding(
            list(cs.symbols), 4
        ).codes
        assert result.total_cubes == evaluate_encoding(
            result.encoding, cs
        ).total_cubes

    def test_budget_failure_strict_raises(self):
        cs = cset_of(10, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        with pytest.raises(EncBudgetExceeded):
            enc_encode(cs, max_minimizations=5, strict=True)

    def test_counts_minimizations(self):
        cs = cset_of(4, [[0, 1]])
        result = enc_encode(cs)
        assert result.minimizations > 0


#: the ENC scorer before it rejected moves on a lower bound, kept
#: verbatim as the second oracle for ``enc_encode``: every logical
#: evaluation is a memo lookup, and every miss a real minimization
class MemoScorer:
    """Per-run constraint scoring for ENC's search.

    Every score is a *logical* evaluation: it counts against
    ``max_minimizations``, ticks the external budget and, once per
    scored encoding, trips the ``enc.minimize`` fault site, in the
    order a plain loop over the constraints would.  Only the real
    minimizations are saved: each constraint is looked up in a memo
    keyed by its function exactly as :func:`cubes_for_codes` takes
    it.  The key packs, into one ``int``, a leading 1 (the length
    sentinel), the onset codes in sorted-symbol order and the bitmask
    of unused codes.  Order matters: espresso's result can depend on
    it, so two onsets holding the same codes in a different order are
    minimized apart.
    """

    def __init__(
        self,
        cset: ConstraintSet,
        nv: int,
        max_minimizations: int,
        budget: Optional[Budget],
        tracer,
    ) -> None:
        self.nv = nv
        self.constraints = [
            tuple(sorted(c.symbols)) for c in cset.nontrivial()
        ]
        self.max_minimizations = max_minimizations
        self.budget = budget
        self.tracer = tracer
        self.memo: Dict[int, int] = {}
        self.minimizations = 0
        self.hits = 0
        self.misses = 0

    def _cubes(self, i: int, codes: Dict[str, int], unused: int) -> int:
        onset = [codes[s] for s in self.constraints[i]]
        key = 1
        for code in onset:
            key = (key << self.nv) | code
        key = (key << (1 << self.nv)) | unused
        cubes = self.memo.get(key)
        if cubes is None:
            self.misses += 1
            cubes = self.memo[key] = cubes_for_codes(
                self.nv, onset, unused, tracer=self.tracer
            )
        else:
            self.hits += 1
        return cubes

    def _unused_mask(self, codes: Dict[str, int]) -> int:
        used = 0
        for code in codes.values():
            used |= 1 << code
        return ((1 << (1 << self.nv)) - 1) & ~used

    def score(self, codes: Dict[str, int]) -> int:
        """Total cubes of ``codes``, one logical evaluation each."""
        faults.trip("enc.minimize")
        unused = self._unused_mask(codes)
        total = 0
        for i in range(len(self.constraints)):
            self.minimizations += 1
            if self.minimizations > self.max_minimizations:
                raise EncBudgetExceeded(
                    f"exceeded {self.max_minimizations} constraint "
                    "minimizations"
                )
            if self.budget is not None:
                self.budget.tick(where="enc_encode")
            total += self._cubes(i, codes, unused)
        return total

    def uncounted(self, codes: Dict[str, int]) -> int:
        """Total cubes of ``codes``, outside the budget."""
        unused = self._unused_mask(codes)
        return sum(
            self._cubes(i, codes, unused)
            for i in range(len(self.constraints))
        )


def plain_enc(cset, *, seed, max_minimizations, max_passes=8, memo=False):
    """ENC's search as a plain loop, the reference for ``enc_encode``.

    Every move is scored in full and the codes change only when a
    move is accepted.  By default every move re-minimizes every
    nontrivial constraint: no memo.  ``memo=True`` scores with
    :class:`MemoScorer` instead.  Returns the final codes, the logical
    minimization count, whether the search converged, and every fully
    scored total in order.
    """
    symbols = list(cset.symbols)
    nv = cset.min_code_length()
    rng = random.Random(seed)
    constraints = cset.nontrivial()
    scorer = (
        MemoScorer(cset, nv, max_minimizations, None, NULL_TRACER)
        if memo else None
    )
    count = 0
    totals = []

    def score(codes):
        nonlocal count
        if scorer is not None:
            try:
                total = scorer.score(codes)
            finally:
                count = scorer.minimizations
            totals.append(total)
            return total
        enc = Encoding(symbols, codes, nv)
        total = 0
        for c in constraints:
            count += 1
            if count > max_minimizations:
                raise EncBudgetExceeded("budget")
            total += cubes_for_constraint(enc, c)
        totals.append(total)
        return total

    codes = dict(natural_encoding(symbols, nv).codes)
    converged = False
    try:
        best = score(codes)
        for _ in range(max_passes):
            improved = False
            moves = [
                (a, b, -1)
                for i, a in enumerate(symbols)
                for b in symbols[i + 1 :]
            ]
            used = set(codes.values())
            moves += [
                (a, None, free)
                for a in symbols
                for free in range(1 << nv)
                if free not in used
            ]
            rng.shuffle(moves)
            for a, b, free in moves:
                trial = dict(codes)
                if b is not None:
                    trial[a], trial[b] = codes[b], codes[a]
                elif free in trial.values():
                    continue
                else:
                    trial[a] = free
                total = score(trial)
                if total < best:
                    codes, best, improved = trial, total, True
            if not improved:
                break
        converged = True
    except EncBudgetExceeded:
        pass
    return codes, count, converged, totals


def reference_cset(name):
    return derive_face_constraints(load_benchmark(name, seed=0))


class TestEncMemo:
    """The memoized scorer against the plain loop."""

    # (FSM, budget): nv = 3, 4, 5, 5; the two nv = 5 runs stop on
    # their budget mid-search.  On donfile, a swap of two symbols of
    # one constraint reorders its onset but keeps its code set: the
    # memo, keyed by code set, reuses the count across the swap, and
    # the plain loop, which minimizes the reordered onset, must agree.
    CASES = [("s27", 6000), ("bbara", 6000), ("dk16", 1500),
             ("donfile", 600), ("dk16", 20000), ("donfile", 20000)]

    @pytest.mark.parametrize("name,budget", CASES)
    def test_identical_to_plain_loop(self, name, budget):
        cset = reference_cset(name)
        codes, count, converged, _ = plain_enc(
            cset, seed=1, max_minimizations=budget
        )
        result = enc_encode(cset, seed=1, max_minimizations=budget)
        assert result.encoding.codes == codes
        assert result.minimizations == count
        assert result.converged == converged
        assert result.converged or budget < 20000
        assert result.total_cubes == evaluate_encoding(
            Encoding(list(cset.symbols), codes), cset
        ).total_cubes

    @pytest.mark.parametrize("name,budget", [("s27", 150), ("bbara", 600)])
    def test_budget_blowout_returns_best_scored(self, name, budget):
        # the budget trips in the middle of a move; the half-scored
        # trial must not be returned
        cset = reference_cset(name)
        _, _, converged, totals = plain_enc(
            cset, seed=1, max_minimizations=budget
        )
        assert not converged
        result = enc_encode(cset, seed=1, max_minimizations=budget)
        assert not result.converged
        assert result.total_cubes == min(totals)
        assert evaluate_encoding(
            result.encoding, cset
        ).total_cubes == min(totals)

    def test_misses_count_real_minimizations(self, monkeypatch):
        calls = []
        real = enc_module.cubes_for_codes

        def counting(nv, onset, unused, **kwargs):
            calls.append(onset)
            return real(nv, onset, unused, **kwargs)

        monkeypatch.setattr(enc_module, "cubes_for_codes", counting)
        tracer = Tracer()
        result = enc_encode(
            reference_cset("bbara"), seed=1, max_minimizations=6000,
            tracer=tracer,
        )
        counters = tracer.counters()
        assert counters["enc.memo.misses"] == len(calls)
        assert counters["enc.memo.hits"] > 0
        assert counters["enc.memo.bounded"] > 0
        assert (counters["enc.memo.hits"] + counters["enc.memo.misses"]
                + counters["enc.memo.bounded"] == result.minimizations)

    def test_hit_rate_gauge_and_truthtable_counter(self):
        tracer = Tracer()
        enc_encode(
            reference_cset("bbara"), seed=1, max_minimizations=6000,
            tracer=tracer,
        )
        counters = tracer.counters()
        hits = counters["enc.memo.hits"]
        misses = counters["enc.memo.misses"]
        rate = tracer.gauges()["enc.memo.hit_rate"]
        assert rate["n"] == 1
        assert rate["last"] == pytest.approx(hits / (hits + misses))
        # bbara's nv = 4: every real minimization is a truth-table one
        assert counters["truthtable.minimizations"] == misses

    @pytest.mark.parametrize("name,minimizations",
                             [("bbara", 2532), ("ex3", 1212)])
    def test_logical_minimizations_unchanged(self, name, minimizations):
        tracer = Tracer()
        result = enc_encode(
            reference_cset(name), seed=1, max_minimizations=6000,
            tracer=tracer,
        )
        assert result.converged
        assert result.minimizations == minimizations
        assert tracer.counters()["enc.minimizations"] == minimizations


class TestEncBound:
    """Scoring that rejects a move on a lower bound, against the
    memoized scorer that minimized every miss."""

    # the quick FSMs and three large rows at Table I's budget (most of
    # the large ones stop on it mid-search), then dk16 and donfile run
    # to convergence
    CASES = (
        [(name, 6000) for name in QUICK_FSMS]
        + [("kirkman", 6000), ("s820", 6000), ("scf", 6000)]
        + [("dk16", 20000), ("donfile", 20000)]
    )

    @pytest.mark.parametrize("name,budget", CASES)
    def test_identical_to_memo_scorer(self, name, budget):
        cset = reference_cset(name)
        codes, count, converged, totals = plain_enc(
            cset, seed=1, max_minimizations=budget, memo=True
        )
        tracer = Tracer()
        result = enc_encode(
            cset, seed=1, max_minimizations=budget, tracer=tracer
        )
        assert result.encoding.codes == codes
        assert result.total_cubes == min(totals)
        assert result.minimizations == count
        assert result.converged == converged
        assert converged or budget == 6000
        counters = tracer.counters()
        assert (counters["enc.memo.hits"] + counters["enc.memo.misses"]
                + counters["enc.memo.bounded"] == count)
        assert counters["truthtable.minimizations"] == (
            counters["enc.memo.misses"]
        )

    def test_budget_blowout_on_seed_still_scores_it(self):
        # the budget trips while the seed encoding is being charged, so
        # nothing is minimized before ``uncounted`` scores it in full
        cs = cset_of(10, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        tracer = Tracer()
        result = enc_encode(cs, max_minimizations=2, tracer=tracer)
        counters = tracer.counters()
        assert counters["enc.memo.bounded"] == result.minimizations == 3
        assert counters["enc.memo.misses"] == 3
        assert counters["truthtable.minimizations"] == 3
        assert result.total_cubes == evaluate_encoding(
            result.encoding, cs
        ).total_cubes

    def test_bound_is_tight_on_a_face(self):
        # members 0, 1 of a 2-bit space: their face {0, 1} misses the
        # off-set {2}, so one cube covers them
        assert enc_module.cover_lower_bound(2, [1, 0], 0b0111) == 1
        # with 3 in the off-set too, 0 and 3 are incompatible only if
        # their face {0, 1, 2, 3} meets it: it does, so two cubes
        assert enc_module.cover_lower_bound(2, [0, 3], 0b1111) == 2
        # three members pairwise separated by off-set codes
        assert enc_module.cover_lower_bound(3, [0, 3, 5], 0b11111111) == 3


class TestStateAffinity:
    def test_common_fanout_earns_weight(self):
        fsm = parse_kiss(
            """
.i 1
.o 1
.r a
0 a c 0
1 a a 0
0 b c 0
1 b b 0
0 c c 1
1 c a 1
"""
        )
        affinity = state_affinity(fsm)
        assert affinity.get(("a", "b"), 0) > 0  # both go to c on 0
