"""Tests for the PICOLA core: classify, guides/Theorem I, solve, driver,
run analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PicolaOptions,
    PicolaResult,
    PrefixGroups,
    WeightPolicy,
    analyze_result,
    capacity_feasible,
    classify,
    generate_column,
    guide_constraint,
    nv_compatible,
    picola_encode,
    theorem1_cubes,
)
from repro.core import repair as repair_module
from repro.core.repair import polish_encoding
from repro.encoding import (
    ConstraintMatrix,
    ConstraintSet,
    Encoding,
    FaceConstraint,
    derive_face_constraints,
    evaluate_encoding,
)
from repro.encoding.codes import CodeSpace, code_set
from repro.fsm import TABLE1_FSMS, TABLE2_FSMS, load_benchmark
from repro.runtime import InvalidSpecError


def cset_of(n, groups):
    syms = [f"s{i}" for i in range(n)]
    return ConstraintSet(
        syms, [FaceConstraint({f"s{i}" for i in g}) for g in groups]
    )


class TestNvCompatible:
    def make_rows(self, n, a, b, nv):
        cs = cset_of(n, [a, b])
        matrix = ConstraintMatrix(cs, nv)
        return matrix.rows[0], matrix.rows[1]

    def test_disjoint_fit(self):
        # two pairs in 8 codes with 8 symbols: dc(S)=0, each pair
        # wastes nothing (dim 1 holds exactly 2)
        ra, rb = self.make_rows(8, [0, 1], [2, 3], 3)
        assert nv_compatible(ra, rb, 3, 8)

    def test_disjoint_capacity_violation(self):
        # |A|=3 needs dim 2 (wastes 1), |B|=3 too; dc(S) = 8-6 = 2: ok
        ra, rb = self.make_rows(6, [0, 1, 2], [3, 4, 5], 3)
        assert nv_compatible(ra, rb, 3, 6)
        # with 8 symbols dc(S)=0 and each triple wastes a code: fails
        ra, rb = self.make_rows(8, [0, 1, 2], [3, 4, 5], 3)
        assert not nv_compatible(ra, rb, 3, 8)

    def test_son_dimension_formula(self):
        # A = {0..3}, B = {2..5}, son = {2,3}: dims 2+2-1 = 3 <= 3
        ra, rb = self.make_rows(8, [0, 1, 2, 3], [2, 3, 4, 5], 3)
        assert nv_compatible(ra, rb, 3, 8)

    def test_son_dimension_overflow(self):
        # A = {0..4}, B = {3..7}, son = {3,4}: dims 3+3-1 = 5 > 3
        ra, rb = self.make_rows(8, [0, 1, 2, 3, 4], [3, 4, 5, 6, 7], 3)
        assert not nv_compatible(ra, rb, 3, 8)

    def test_equal_sets_compatible(self):
        ra, rb = self.make_rows(6, [0, 1, 2], [0, 1, 2], 3)
        assert nv_compatible(ra, rb, 3, 6)


class TestCapacityFeasible:
    def test_constraint_too_big_for_dc(self):
        # |L| = 5 in B^3 with 8 symbols: face dim 3 = everything ->
        # wastes 3 codes but dc(S) = 0
        cs = cset_of(8, [[0, 1, 2, 3, 4]])
        matrix = ConstraintMatrix(cs, 3)
        assert not capacity_feasible(matrix.rows[0], 3, 8)

    def test_five_of_six_in_b3_is_infeasible(self):
        # the only face holding 5 codes in B^3 is the whole cube,
        # which necessarily contains the sixth symbol
        cs = cset_of(6, [[0, 1, 2, 3, 4]])
        matrix = ConstraintMatrix(cs, 3)
        assert not capacity_feasible(matrix.rows[0], 3, 6)

    def test_fits_with_spare_codes(self):
        # |L| = 4 embeds on a 2-face with no waste
        cs = cset_of(6, [[0, 1, 2, 3]])
        matrix = ConstraintMatrix(cs, 3)
        assert capacity_feasible(matrix.rows[0], 3, 6)

    def test_agree_budget_exhausted(self):
        cs = cset_of(6, [[0, 1, 2]])  # min dim 2 -> 1 agree column max
        matrix = ConstraintMatrix(cs, 3)
        syms = list(cs.symbols)
        col = {s: 1 if s in ("s0", "s1", "s2", "s3") else 0 for s in syms}
        matrix.record_column(col)  # agree #1, s3 still an intruder
        assert not capacity_feasible(matrix.rows[0], 3, 6)


class TestClassify:
    def test_infeasible_capacity_detected_upfront(self):
        cs = cset_of(8, [[0, 1, 2, 3, 4]])
        matrix = ConstraintMatrix(cs, 3)
        bad = classify(matrix)
        assert len(bad) == 1
        assert matrix.rows[0].infeasible

    def test_satisfied_vs_incompatible(self):
        cs = cset_of(8, [[0, 1, 2, 3, 4], [5, 6, 7, 0, 1]])
        matrix = ConstraintMatrix(cs, 4)  # nv=3 would kill both
        # nv=4 is fine: no infeasibility
        assert classify(matrix) == []


class TestGuides:
    def test_guide_from_row(self):
        cs = cset_of(6, [[0, 1, 2]])
        matrix = ConstraintMatrix(cs, 3)
        syms = list(cs.symbols)
        col = {s: 1 if s in ("s0", "s1", "s2", "s3", "s4") else 0
               for s in syms}
        matrix.record_column(col)
        row = matrix.rows[0]
        assert set(row.intruders()) == {"s3", "s4"}
        guide = guide_constraint(row)
        assert guide is not None
        assert guide.is_guide()
        assert guide.symbols == frozenset({"s3", "s4"})
        assert guide.parent == frozenset({"s0", "s1", "s2"})

    def test_single_intruder_gives_no_guide(self):
        cs = cset_of(6, [[0, 1, 2]])
        matrix = ConstraintMatrix(cs, 3)
        syms = list(cs.symbols)
        col = {s: 1 if s in ("s0", "s1", "s2", "s3") else 0 for s in syms}
        matrix.record_column(col)
        assert guide_constraint(matrix.rows[0]) is None


class TestTheorem1:
    def paper_example(self):
        """Example 3/4 of the paper: 15 symbols in B^4, encoding 1c."""
        symbols = [f"s{i}" for i in range(1, 16)]
        # L4 = {s6,s7,s8,s9,s14} on face 0---; intruders {s1, s2} on
        # face 00-0 (s1=0000, s2=0010); everything else outside 0---
        codes = {
            "s1": 0b0000, "s2": 0b0010,
            "s6": 0b0001, "s7": 0b0011, "s8": 0b0101,
            "s9": 0b0111, "s14": 0b0100,
            # remaining symbols on the 1--- half
            "s3": 0b1000, "s4": 0b1001, "s5": 0b1010, "s10": 0b1011,
            "s11": 0b1100, "s12": 0b1101, "s13": 0b1110, "s15": 0b1111,
        }
        # s14=0100, s8=0101 ... face of L4 = 0---; check s1/s2 inside
        return Encoding(symbols, codes, 4)

    def test_construction_matches_paper_count(self):
        enc = self.paper_example()
        members = ["s6", "s7", "s8", "s9", "s14"]
        intruders = enc.intruders(frozenset(members))
        assert set(intruders) == {"s1", "s2"}
        cubes = theorem1_cubes(enc, members, intruders)
        assert cubes is not None
        # dim super(L) = 3, dim super(I) = 1 -> 2 cubes (Theorem I)
        assert len(cubes) == 2

    def test_cubes_cover_members_exclude_intruders(self):
        enc = self.paper_example()
        members = ["s6", "s7", "s8", "s9", "s14"]
        intruders = enc.intruders(frozenset(members))
        cubes = theorem1_cubes(enc, members, intruders)
        for s in members:
            code = enc.code_of(s)
            assert any(not (code ^ v) & m for m, v in cubes), s
        for s in intruders:
            code = enc.code_of(s)
            assert all((code ^ v) & m for m, v in cubes), s

    def test_hypothesis_failure_returns_none(self):
        # intruder supercube containing a member -> None
        enc = Encoding(
            ["a", "b", "c", "d"], {"a": 0, "b": 3, "c": 1, "d": 2}, 2
        )
        # members {a, b} span everything; intruders {c, d} supercube
        # also spans codes including members'
        got = theorem1_cubes(enc, ["a", "b"], ["c", "d"])
        assert got is None

    def test_satisfied_constraint_single_cube(self):
        enc = Encoding(
            ["a", "b", "c", "d"], {"a": 0, "b": 1, "c": 2, "d": 3}, 2
        )
        cubes = theorem1_cubes(enc, ["a", "b"], [])
        assert cubes == [(0b10, 0b00)]


class TestPrefixGroupsAndSolve:
    def test_caps(self):
        groups = PrefixGroups(list("abcdefgh"), 3)
        assert groups.cap_after_next_column() == 4

    def test_column_validity(self):
        groups = PrefixGroups(list("abcd"), 2)
        ok = {"a": 0, "b": 0, "c": 1, "d": 1}
        bad = {"a": 1, "b": 1, "c": 1, "d": 0}
        assert groups.is_valid_column(ok)
        assert not groups.is_valid_column(bad)

    def test_generate_column_is_valid_and_deterministic(self):
        cs = cset_of(10, [[0, 1, 2], [3, 4], [5, 6, 7, 8]])
        matrix = ConstraintMatrix(cs, 4)
        groups = PrefixGroups(list(cs.symbols), 4)
        c1 = generate_column(matrix, groups)
        c2 = generate_column(matrix, groups)
        assert c1 == c2
        assert groups.is_valid_column(c1)

    def test_full_run_yields_injective(self):
        cs = cset_of(9, [[0, 1], [2, 3, 4]])
        matrix = ConstraintMatrix(cs, 4)
        groups = PrefixGroups(list(cs.symbols), 4)
        for _ in range(4):
            col = generate_column(matrix, groups)
            matrix.record_column(col)
            groups.apply_column(col)
        assert all(v == 1 for v in groups.group_sizes().values())


class TestPicolaEncode:
    def test_simple_all_satisfiable(self):
        cs = cset_of(8, [[0, 1], [2, 3], [4, 5, 6, 7], [0, 1, 2, 3]])
        res = picola_encode(cs)
        assert res.encoding.is_injective()
        assert len(res.satisfied) == 4

    def test_accepts_symbols_plus_constraints(self):
        res = picola_encode(
            ["a", "b", "c", "d"], [FaceConstraint({"a", "b"})]
        )
        assert res.encoding.satisfies({"a", "b"})

    def test_rejects_double_constraints(self):
        cs = cset_of(4, [[0, 1]])
        with pytest.raises(ValueError):
            picola_encode(cs, [FaceConstraint({"s0", "s1"})])

    def test_rejects_too_small_nv(self):
        cs = cset_of(5, [[0, 1]])
        with pytest.raises(ValueError):
            picola_encode(cs, nv=2)

    def test_infeasible_constraint_guided(self):
        # 5-symbol constraint among 8 symbols in B^3 is infeasible
        cs = cset_of(8, [[0, 1, 2, 3, 4]])
        res = picola_encode(cs)
        assert len(res.infeasible) == 1
        assert res.summary().startswith("0/1")

    def test_larger_nv_allowed(self):
        cs = cset_of(8, [[0, 1, 2, 3, 4]])
        res = picola_encode(cs, nv=4)
        # with one spare bit the constraint is satisfiable
        assert res.encoding.n_bits == 4
        assert len(res.satisfied) == 1

    def test_single_symbol(self):
        res = picola_encode(["only"])
        assert res.encoding.n_bits == 1
        assert res.encoding.is_injective()

    def test_deterministic(self):
        cs = cset_of(10, [[0, 1, 2], [3, 4], [5, 6, 7, 8], [1, 5, 9]])
        a = picola_encode(cs).encoding.codes
        b = picola_encode(cs).encoding.codes
        assert a == b

    def test_options_presets(self):
        cs = cset_of(6, [[0, 1], [2, 3]])
        for preset in ("picola", "dichotomy_count", "constraint_count"):
            res = picola_encode(
                cs, options=PicolaOptions(weights=preset)
            )
            assert res.encoding.is_injective()

    def test_beam_width_one_works(self):
        cs = cset_of(8, [[0, 1, 2], [3, 4, 5]])
        res = picola_encode(
            cs, options=PicolaOptions(beam_width=1, beam_candidates=1)
        )
        assert res.encoding.is_injective()

    def test_bad_beam_rejected(self):
        cs = cset_of(4, [[0, 1]])
        with pytest.raises(ValueError):
            picola_encode(cs, options=PicolaOptions(beam_width=0))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_constraint_sets(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        syms = [f"s{i}" for i in range(n)]
        n_constraints = data.draw(st.integers(min_value=0, max_value=4))
        constraints = []
        for _ in range(n_constraints):
            size = data.draw(st.integers(min_value=2, max_value=max(2, n - 1)))
            members = data.draw(
                st.sets(
                    st.sampled_from(syms), min_size=min(size, n),
                    max_size=min(size, n),
                )
            )
            if 2 <= len(members) < n:
                constraints.append(FaceConstraint(members))
        res = picola_encode(ConstraintSet(syms, constraints))
        assert res.encoding.is_injective()
        # marks agree with geometric satisfaction
        for row in res.matrix.original_rows():
            if row.infeasible:
                continue
            assert row.satisfied() == res.encoding.satisfies(row.members)


class TestAnalyzeResult:
    def test_satisfied_diagnosis(self):
        cs = cset_of(4, [[0, 1]])
        analysis = analyze_result(picola_encode(cs))
        (diag,) = analysis.diagnoses
        assert diag.status == "satisfied"
        assert diag.intruders == ()
        assert diag.theorem1_cubes == 1
        assert "face" in diag.reason

    def test_infeasible_diagnosis_capacity(self):
        cs = cset_of(8, [[0, 1, 2, 3, 4]])  # impossible in B^3
        analysis = analyze_result(picola_encode(cs))
        (diag,) = analysis.diagnoses
        assert diag.status == "infeasible"
        assert "capacity" in diag.reason
        assert diag.intruders  # someone must sit on the face

    def test_estimated_total(self):
        cs = cset_of(8, [[0, 1], [2, 3], [0, 1, 2, 3, 4]])
        analysis = analyze_result(picola_encode(cs))
        assert analysis.estimated_total_cubes >= 3

    def test_render_mentions_every_constraint(self):
        cs = cset_of(6, [[0, 1], [2, 3, 4]])
        text = analyze_result(picola_encode(cs)).render()
        assert "s0" in text and "s2" in text
        assert "estimated implementation" in text

    def test_guide_reported(self):
        cs = cset_of(8, [[0, 1, 2, 3, 4]])
        result = picola_encode(cs)
        analysis = analyze_result(result)
        (diag,) = analysis.diagnoses
        if result.guides_added:
            assert diag.guide is not None

    def test_theorem1_estimate_consistent_with_evaluator(self):
        """The Theorem I estimate never undershoots espresso's count
        when its hypothesis holds (it is a constructive bound)."""
        from repro.encoding import cubes_for_constraint

        cs = cset_of(8, [[0, 1, 2, 3, 4], [0, 5]])
        result = picola_encode(cs)
        analysis = analyze_result(result)
        for diag in analysis.diagnoses:
            if diag.theorem1_cubes is None:
                continue
            exact = cubes_for_constraint(
                result.encoding, diag.constraint
            )
            assert exact <= diag.theorem1_cubes


class TestRepair:
    def test_polish_never_hurts_satisfaction_score(self):
        cs = cset_of(8, [[0, 1], [2, 3], [4, 5]])
        enc = Encoding.from_code_list(
            cs.symbols, [0, 7, 1, 6, 2, 5, 3, 4], 3
        )  # deliberately bad
        before = sum(
            1 for c in cs.nontrivial() if enc.satisfies(c.symbols)
        )
        polished = polish_encoding(enc, cs)
        after = sum(
            1 for c in cs.nontrivial() if polished.satisfies(c.symbols)
        )
        assert after >= before
        assert polished.is_injective()

    def test_polish_rejects_shared_codes(self):
        cs = cset_of(4, [[0, 1]])
        enc = Encoding.from_code_list(cs.symbols, [0, 1, 1, 2], 2)
        with pytest.raises(InvalidSpecError, match="one code"):
            polish_encoding(enc, cs)

    def test_polish_without_constraints_is_identity(self):
        cs = ConstraintSet(["a", "b"])
        enc = Encoding(["a", "b"], {"a": 0, "b": 1}, 1)
        assert polish_encoding(enc, cs) is enc


def scan_polish_encoding(encoding, cset, max_sweeps=4):
    """``polish_encoding`` as it scanned every constraint's face for
    the moved codes on pair swaps too, verbatim: the oracle of the test
    below."""
    _constraint_score = repair_module._constraint_score
    symbols = list(encoding.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    nv = encoding.n_bits
    codes = repair_module._injective_codes(encoding)
    constraints = cset.nontrivial()
    if not constraints:
        return encoding

    members_idx = [
        [index[s] for s in c.symbols] for c in constraints
    ]
    weights = [c.weight for c in constraints]
    touching = [[] for _ in symbols]
    for k, idxs in enumerate(members_idx):
        for i in idxs:
            touching[i].append(k)
    space = CodeSpace(nv)
    occupied = code_set(codes)

    def score(k):
        members = 0
        for m in members_idx[k]:
            members |= 1 << codes[m]
        face = space.face(members)
        n_members = len(members_idx[k])
        return face[1], _constraint_score(
            space, face, members, occupied, n_members,
            len(codes) - n_members, weights[k],
        )

    faces, scores = map(list, zip(*map(score, range(len(constraints)))))
    unused = [c for c in range(1 << nv) if not occupied >> c & 1]

    def affected(i, j, old_codes):
        ks = set(touching[i])
        if j is not None:
            ks.update(touching[j])
        moved = code_set(old_codes) | 1 << codes[i]
        if j is not None:
            moved |= 1 << codes[j]
        for k in range(len(constraints)):
            if k not in ks and faces[k] & moved:
                ks.add(k)
        return sorted(ks)

    def try_move(ks):
        delta = 0.0
        new = {}
        for k in ks:
            new[k] = score(k)
            delta += new[k][1] - scores[k]
        if delta <= 1e-9:
            return False
        for k, (face, score_k) in new.items():
            faces[k] = face
            scores[k] = score_k
        return True

    n = len(symbols)
    for _ in range(max_sweeps):
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                if not touching[i] and not touching[j]:
                    continue
                old = (codes[i], codes[j])
                codes[i], codes[j] = codes[j], codes[i]
                if try_move(affected(i, j, old)):
                    improved = True
                else:
                    codes[i], codes[j] = old
        for i in range(n):
            if not touching[i]:
                continue
            for slot in range(len(unused)):
                old_code = codes[i]
                codes[i] = unused[slot]
                occupied ^= 1 << old_code | 1 << codes[i]
                if try_move(affected(i, None, (old_code,))):
                    unused[slot] = old_code
                    improved = True
                else:
                    codes[i] = old_code
                    occupied ^= 1 << old_code | 1 << unused[slot]
        if not improved:
            break
    return Encoding.from_code_list(symbols, codes, nv)


def _check_polishes(cset, monkeypatch):
    """Every encoding PICOLA's final repair polishes on ``cset`` comes
    out as the face-scanning search left it."""
    real = repair_module.polish_encoding
    calls = []

    def checking_polish(encoding, cset):
        got = real(encoding, cset)
        want = scan_polish_encoding(encoding, cset)
        calls.append(got.codes == want.codes)
        return got

    monkeypatch.setattr(repair_module, "polish_encoding", checking_polish)
    picola_encode(cset)
    assert calls and all(calls)


@pytest.mark.parametrize("name", TABLE1_FSMS)
def test_polish_matches_face_scan(name, monkeypatch):
    """On every Table I constraint set (reference draw)."""
    fsm = load_benchmark(name, seed=0)
    _check_polishes(derive_face_constraints(fsm), monkeypatch)


@pytest.mark.parametrize("name", TABLE1_FSMS)
def test_polish_matches_face_scan_run_draw(name, monkeypatch):
    """The same on a second synthesis draw of every Table I FSM."""
    fsm = load_benchmark(name, seed=10012)
    _check_polishes(derive_face_constraints(fsm), monkeypatch)


@pytest.mark.parametrize("name", TABLE2_FSMS)
def test_polish_matches_face_scan_table2(name, monkeypatch):
    """The same on every Table II machine (reference draw)."""
    fsm = load_benchmark(name)
    _check_polishes(derive_face_constraints(fsm), monkeypatch)


def _random_polish_input(rng, n, nv, sizes, dim, spanned=True):
    """``n`` symbols in ``B^nv`` and constraints of ``sizes`` members
    (weights 1.0 or 2.5).  Two symbols sit on codes 0 and ``2**nv -
    1``, the others on random codes of a ``dim``-face whose fixed bits
    read 1, 0, 1, ... from the top: for ``dim <= nv - 2`` that face
    holds neither corner, and every symbol on it has the top bit set
    and the next one clear.  When ``spanned``, the two corners with 0,
    1 and 2 other symbols are constraints too: their face is the whole
    space, and most of their intruders lie on the small face."""
    top = (1 << nv) - 1
    base = sum(1 << b for b in range(nv - 1, dim - 1, -2))
    cluster = [base | c for c in range(1 << dim)
               if base | c not in (0, top)]
    symbols = [f"s{i}" for i in range(n)]
    codes = [0, top] + rng.sample(cluster, n - 2)
    groups = [rng.sample(symbols, k) for k in sizes if 2 <= k < n]
    if spanned:
        groups += [symbols[:2] + rng.sample(symbols[2:], min(k, n - 2))
                   for k in range(3)]
    cset = ConstraintSet(
        symbols,
        [FaceConstraint(set(g), weight=rng.choice([1.0, 2.5]))
         for g in groups],
    )
    return Encoding.from_code_list(symbols, codes, nv), cset


@pytest.mark.parametrize("nv", range(1, 8))
def test_polish_count_field_widths(nv):
    """2**j - 1, 2**j and 2**j + 1 occupied codes on one face, for
    ``n`` symbols at minimum length and one or two bits above it
    (where most tries are moves to unused codes).  Constraints on both
    corners of the space have the whole space as their face; the other
    symbols are spread over the space or packed on a small face, next
    to constraints of 2**j - 1, 2**j and 2**j + 1 members.  The
    repair's packed per-bit counts fill their fields to the top, and
    with the small face, a field that counts every intruder sits above
    one that counts none."""
    rng = random.Random(nv)
    sizes = {m for j in range(max(nv - 2, 0), nv + 1)
             for m in ((1 << j) - 1, 1 << j, (1 << j) + 1)}
    for n in sorted(m for m in sizes if 2 <= m <= 1 << nv):
        packed = (n - 2).bit_length()
        for dim in [nv, packed] if packed <= nv - 2 else [nv]:
            encoding, cset = _random_polish_input(
                rng, n, nv, sorted(sizes), dim,
            )
            got = polish_encoding(encoding, cset)
            want = scan_polish_encoding(encoding, cset)
            assert got.codes == want.codes, (n, dim)


def test_polish_accepted_move_then_tries():
    """Sparse sets where the repair accepts moves to unused codes
    (the occupied codes change; a swap keeps them) and goes on trying
    swaps and moves against the new occupancy."""
    rng = random.Random(36)
    moved = 0
    for trial in range(12):
        n = rng.randint(5, 9)
        nv = 4 + trial % 2
        encoding, cset = _random_polish_input(
            rng, n, nv, [rng.randint(2, 4) for _ in range(5)], nv,
            spanned=trial % 3 == 0,
        )
        got = polish_encoding(encoding, cset)
        want = scan_polish_encoding(encoding, cset)
        assert got.codes == want.codes, trial
        moved += set(got.codes.values()) != set(encoding.codes.values())
    assert moved >= 10
