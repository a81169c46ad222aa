from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import monocech, verify, weylact
from lclab.exactlin import kernel_basis
from lclab.monocech import (
    INFINITE,
    DimValue,
    MonomialIdeal,
    PatternShape,
    VariableContext,
    cohomology_profile,
    slice_complex,
)
from lclab.verify import exhaustive_ideals, random_battery
from lclab.weylact import (
    KoszulConvention,
    LocalCohomologyModule,
    LocalizationModule,
    NotEulerianError,
    derham_homology,
    euler_eigencheck,
    four_term_check,
    gen_eulerian_exponent,
    koszul_homology_X,
    koszul_homology_Y,
)

CTX1 = VariableContext((), ("X1",))
R1 = LocalizationModule(CTX1)  # K[X]
RX = LocalizationModule(CTX1, {0})  # K[X] with X inverted
E1 = LocalCohomologyModule(MonomialIdeal(CTX1, [(1,)]), 1)  # top torsion of (X)

CTX2 = VariableContext((), ("X1", "X2"))
R2 = LocalizationModule(CTX2)
H2 = LocalCohomologyModule(MonomialIdeal(CTX2, [(1, 0), (0, 1)]), 2)
MFREE = LocalCohomologyModule(MonomialIdeal(CTX2, [(1, 0)]), 1)

CTX_MIX = VariableContext(("Y1", "Y2"), ("X1",))
MIXED = MonomialIdeal(CTX_MIX, [(1, 1, 0), (1, 0, 1)])

CTX_Y = VariableContext(("Y1",), ("X1",))
YPLANE = MonomialIdeal(CTX_Y, [(1, 0)])


def cycle_ideal(k):
    """Edge ideal of the k-cycle in k degree-1 variables."""
    ctx = VariableContext((), tuple(f"X{j}" for j in range(1, k + 1)))
    return MonomialIdeal(
        ctx, [tuple(1 if t in (j, (j + 1) % k) else 0 for t in range(k)) for j in range(k)]
    )


C7 = cycle_ideal(7)


def fin(n):
    return DimValue(n)


def matmul(a, b, out_cols):
    if not b:
        return [[Fraction(0)] * out_cols for _ in a]
    return [
        [sum((ra[t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(out_cols)]
        for ra in a
    ]


def greedy_reps(boundary_cols, cycles):
    """Reference cycle representatives: grow a span over Fraction, kept in
    reduced row-echelon form, by the boundaries and then the cycles, and
    keep each cycle that makes it grow."""
    rows, pivots = [], []

    def add(vec):
        res = [Fraction(v) for v in vec]
        for row, p in zip(rows, pivots):
            if res[p]:
                f = res[p]
                res = [a - f * b for a, b in zip(res, row)]
        p = next((j for j, v in enumerate(res) if v), None)
        if p is None:
            return False
        res = [v / res[p] for v in res]
        for t, row in enumerate(rows):
            if row[p]:
                f = row[p]
                rows[t] = [a - f * b for a, b in zip(row, res)]
        rows.append(res)
        pivots.append(p)
        return True

    for col in boundary_cols:
        add(col)
    return [z for z in cycles if add(z)]


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def test_localization_pieces():
    assert R1.piece_dim((3,)) == 1
    assert R1.piece_dim((-1,)) == 0
    assert RX.piece_dim((-5,)) == 1
    r_part = LocalizationModule(CTX_MIX, {0})
    assert r_part.piece_dim((-2, 0, 1)) == 1
    assert r_part.piece_dim((-2, -1, 1)) == 0
    assert sorted(map(sorted, RX.patterns())) == [[], [0]]


def test_cohomology_module_dims_match_profile():
    prof = cohomology_profile(MIXED)
    mod = LocalCohomologyModule(MIXED, 2)
    for pattern in prof.patterns():
        assert mod.pattern_dim(pattern) == prof.h(pattern, 2)
    assert mod.pattern_dim(frozenset({2})) == 0


def test_slice_reps_match_greedy_span_selection():
    checked = with_boundaries = 0
    for ideal in exhaustive_ideals(3):
        nvars = ideal.context.nvars
        for i in range(len(ideal.generators) + 2):
            module = LocalCohomologyModule(ideal, i)
            for r in range(nvars + 1):
                for pattern in map(frozenset, combinations(range(nvars), r)):
                    diffs = slice_complex(module.ideal, pattern).diffs
                    level, boundary_cols, reps = module._slice_data(pattern)
                    c_i = len(level)
                    if i < len(diffs):
                        cycles = kernel_basis(diffs[i])
                    else:
                        cycles = [[int(t == s) for t in range(c_i)] for s in range(c_i)]
                    assert reps == greedy_reps(boundary_cols, cycles), (ideal, i, pattern)
                    checked += 1
                    with_boundaries += bool(reps and boundary_cols)
    assert (checked, with_boundaries) == (1718, 9)


def test_transition_identity_off_the_wall():
    mod = LocalCohomologyModule(MIXED, 1)
    # Y1 negative but not at −1: same pattern on both sides
    assert mod.transition((-2, 0, 0), 0) == [[Fraction(1)]]
    assert mod.transition((-1, 0, 0), 1) == [[Fraction(1)]]  # Y2: 0 → 1, no wall


def test_crossing_out_of_the_module_is_zero_shaped():
    mod = LocalCohomologyModule(MIXED, 1)
    # crossing Y1 at the wall leaves the only contributing pattern
    assert mod.transition((-1, 0, 0), 0) == []
    with pytest.raises(ValueError):
        mod.mult_crossing(frozenset({1}), 0)


def test_derham_transition_scalars():
    assert R2.derham_transition((3, 1), 0) == [[Fraction(3)]]
    assert R2.derham_transition((0, 1), 0) == []  # target piece is zero
    assert RX.derham_transition((-2,), 0) == [[Fraction(-2)]]
    with pytest.raises(ValueError):
        LocalizationModule(CTX_MIX).derham_transition((0, 0, 0), 0)  # Y variable


def test_coarse_dimension():
    assert [E1.coarse_dimension(n) for n in (-2, -1, 0)] == [fin(1), fin(1), fin(0)]
    assert [R2.coarse_dimension(n) for n in (-1, 0, 2)] == [fin(0), fin(1), fin(3)]
    assert [H2.coarse_dimension(n) for n in (-3, -2, -1)] == [fin(2), fin(1), fin(0)]
    assert MFREE.coarse_dimension(0) is INFINITE
    assert LocalizationModule(CTX_Y).coarse_dimension(0) is INFINITE


# ---------------------------------------------------------------------------
# Euler operator
# ---------------------------------------------------------------------------


def test_euler_frozen_examples():
    assert euler_eigencheck(R2, (2, 0)) == 2
    assert euler_eigencheck(RX, (-3,)) == -3
    assert euler_eigencheck(H2, (-1, -1)) == -2
    assert gen_eulerian_exponent(R2, (2, 0)) == 1
    assert gen_eulerian_exponent(RX, (-1,)) == 1
    mixed1 = LocalCohomologyModule(MIXED, 1)
    assert euler_eigencheck(mixed1, (-1, 0, 0)) == 0
    assert gen_eulerian_exponent(mixed1, (-1, 0, 0)) == 1


def test_euler_rejects_zero_piece():
    with pytest.raises(ValueError):
        euler_eigencheck(R1, (-1,))
    with pytest.raises(ValueError):
        gen_eulerian_exponent(E1, (0,))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_euler_diagonal_everywhere(data):
    module = data.draw(
        st.sampled_from(
            [R1, RX, E1, R2, H2, MFREE, LocalCohomologyModule(MIXED, 1), LocalCohomologyModule(MIXED, 2)]
        )
    )
    nvars = module.context.nvars
    alpha = tuple(
        data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars)
    )
    if module.piece_dim(alpha) == 0:
        return
    assert euler_eigencheck(module, alpha) == module.context.coarse_degree(alpha)
    assert gen_eulerian_exponent(module, alpha) == 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_transition_squares_commute(data):
    module = data.draw(
        st.sampled_from(
            [
                R2,
                H2,
                MFREE,
                LocalizationModule(CTX_MIX, {0, 1}),
                LocalCohomologyModule(MIXED, 1),
                LocalCohomologyModule(MIXED, 2),
            ]
        )
    )
    nvars = module.context.nvars
    alpha = tuple(
        data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars)
    )
    v = data.draw(st.integers(min_value=0, max_value=nvars - 1))
    w = data.draw(st.integers(min_value=0, max_value=nvars - 1))

    def bump(a, u):
        return tuple(x + 1 if t == u else x for t, x in enumerate(a))

    end_dim = module.piece_dim(bump(bump(alpha, v), w))
    via_v = matmul(module.transition(bump(alpha, v), w), module.transition(alpha, v), module.piece_dim(alpha))
    via_w = matmul(module.transition(bump(alpha, w), v), module.transition(alpha, w), module.piece_dim(alpha))
    assert len(via_v) == len(via_w) == end_dim
    assert via_v == via_w


# ---------------------------------------------------------------------------
# Koszul / de Rham homology (frozen values)
# ---------------------------------------------------------------------------


def test_koszul_X_m1_concentration():
    for n in range(-10, 11):
        assert koszul_homology_X(R1, 0, n) == (fin(0), fin(1) if n == 0 else fin(0))
        assert koszul_homology_X(E1, 0, n) == (fin(1) if n == 0 else fin(0), fin(0))


def test_derham_m1_concentration():
    for n in range(-10, 11):
        assert derham_homology(R1, 0, n) == (fin(1) if n == -1 else fin(0), fin(0))
        assert derham_homology(E1, 0, n) == (fin(0), fin(1) if n == -1 else fin(0))


def test_koszul_X_on_top_torsion_m2():
    # kernel of X2 concentrated along the negative tail
    for n in range(-4, 2):
        expected_h1 = fin(1) if n <= -1 else fin(0)
        assert koszul_homology_X(H2, 1, n) == (expected_h1, fin(0))


def test_derham_partial2_on_polynomials_m2():
    # ker ∂2 on homogeneous polynomials: the X1-power alone, from degree −1 on
    for n in range(-4, 4):
        expected_h1 = fin(1) if n >= -1 else fin(0)
        assert derham_homology(R2, 1, n) == (expected_h1, fin(0))


def test_koszul_X2_on_free_line_module():
    # components of the (X1)-torsion in two variables modulo X2
    for n in range(-4, 3):
        expected_h0 = fin(1) if n <= -1 else fin(0)
        assert koszul_homology_X(MFREE, 1, n) == (fin(0), expected_h0)


def test_koszul_on_degree_zero_variable():
    # R = K[Y][X], multiplication by Y: torsion-free, cokernel K[X]
    ring = LocalizationModule(CTX_Y)
    for n in range(-3, 4):
        h1, h0 = koszul_homology_X(ring, 0, n)
        assert h1 == fin(0)
        assert h0 == (fin(1) if n >= 0 else fin(0))


def test_koszul_infinite_with_witness():
    mod = LocalCohomologyModule(MIXED, 1)
    h1, h0 = koszul_homology_X(mod, 0, 2)
    assert h1 is INFINITE and h0 == fin(0)
    # the wall at pattern {Y1} keeps a kernel, counted over infinitely many
    # multidegrees
    assert mod.pattern_dim({0}) - mod.crossing_rank({0}, 0) > 0
    assert koszul_homology_X(mod, 0, -1) == (fin(0), fin(0))


# ---------------------------------------------------------------------------
# slice data and crossing ranks are computed once per module and shared
# across degrees
# ---------------------------------------------------------------------------

SHARED_IDEALS = pytest.mark.parametrize(
    "ideal",
    [C7, *random_battery(count=12, seed=5)],
    ids=["C7", *(f"battery-5-{t}" for t in range(12))],
)


@SHARED_IDEALS
def test_shared_module_matches_fresh_modules(ideal):
    ctx = ideal.context
    degrees = range(-4, 5)
    for i in range(len(ideal.generators) + 1):
        shared = LocalCohomologyModule(ideal, i)
        if not shared.patterns():
            continue
        for v in range(ctx.nvars):
            kinds = [koszul_homology_X] + ([derham_homology] if v in ctx.x_indices else [])
            for homology in kinds:
                for n in degrees:
                    fresh = homology(LocalCohomologyModule(ideal, i), v, n)
                    assert homology(shared, v, n) == fresh, (i, v, n, homology.__name__)


@SHARED_IDEALS
def test_crossings_after_a_degree_range_match_a_fresh_module(ideal):
    ctx = ideal.context
    checked = 0
    for i in range(len(ideal.generators) + 1):
        module = LocalCohomologyModule(ideal, i)
        for v in range(ctx.nvars):
            for n in range(-6, 7):
                koszul_homology_X(module, v, n)
        for pattern in module.patterns():
            for v in range(ctx.nvars):
                source = pattern | {v}
                fresh = LocalCohomologyModule(ideal, i)
                assert module.mult_crossing(source, v) == fresh.mult_crossing(source, v), (i, pattern, v)
                fresh = LocalCohomologyModule(ideal, i)
                assert module.crossing_rank(source, v) == fresh.crossing_rank(source, v), (i, pattern, v)
                checked += 1
    assert checked or not cohomology_profile(ideal).by_pattern


def test_mutating_a_crossing_leaves_the_module_intact():
    module = LocalCohomologyModule(MIXED, 2)
    pattern = frozenset({0, 1, 2})
    expected = [list(row) for row in module.mult_crossing(pattern, 0)]
    assert len(expected) == 1 and len(expected[0]) == 1 and expected[0][0] != 0
    got = module.mult_crossing(pattern, 0)
    got[0][0] += 7
    got.append([Fraction(5)])
    assert module.mult_crossing(pattern, 0) == expected


def test_koszul_over_a_degree_range_builds_each_crossing_once(monkeypatch):
    solves = []
    ranks = []
    built = Counter()
    real_solve = weylact.solve_columns
    real_rank = weylact.rank_fraction_rows
    real_build = LocalCohomologyModule.mult_crossing

    def counting_solve(columns, target):
        solves.append(target)
        return real_solve(columns, target)

    def counting_rank(rows):
        ranks.append(rows)
        return real_rank(rows)

    def counting_build(self, pattern, v):
        built[pattern, v] += 1
        return real_build(self, pattern, v)

    monkeypatch.setattr(weylact, "solve_columns", counting_solve)
    monkeypatch.setattr(weylact, "rank_fraction_rows", counting_rank)
    monkeypatch.setattr(LocalCohomologyModule, "mult_crossing", counting_build)
    module = LocalCohomologyModule(C7, 4)
    koszul_homology_X(module, 0, -6)
    after_first_degree = len(solves)
    assert after_first_degree > 0
    for n in range(-5, 7):  # 13 degrees in all
        koszul_homology_X(module, 0, n)
    assert len(solves) == after_first_degree
    assert built and set(built.values()) == {1}
    # one rank per (pattern, v) crossing, however many degrees read it
    assert len(ranks) == len(built)


@pytest.mark.parametrize(
    "ideal, i, v", [(C7, 4, 0), (C7, 4, 3), (cycle_ideal(8), 5, 0), (MIXED, 2, 0)], ids=["C7-X1", "C7-X4", "C8-X1", "mixed-Y1"]
)
def test_koszul_over_a_degree_range_finds_each_alive_family_once(monkeypatch, ideal, i, v):
    found, read = Counter(), Counter()
    real_alive = monocech._alive_masks
    real_slice_data = LocalCohomologyModule._slice_data

    def counting_alive(supports, pattern):
        found[supports, pattern] += 1
        return real_alive(supports, pattern)

    def counting_slice_data(self, pattern):
        read[pattern] += 1
        return real_slice_data(self, pattern)

    monkeypatch.setattr(monocech, "_alive_masks", counting_alive)
    monkeypatch.setattr(LocalCohomologyModule, "_slice_data", counting_slice_data)
    module = LocalCohomologyModule(ideal, i)
    for n in range(-6, 7):
        koszul_homology_X(module, v, n)
    # one alive family per pattern whose slice data the crossings read, and
    # each pattern's slice data read once
    assert found and set(found.values()) == {1}
    assert set(read.values()) == {1}
    assert len(found) == len(read)


def test_euler_check_builds_each_matrix_once(monkeypatch):
    built = Counter()
    real_euler = weylact._euler_matrix

    def counting_euler(module, alpha):
        built[module.ideal, module.i, alpha] += 1
        return real_euler(module, alpha)

    monkeypatch.setattr(weylact, "_euler_matrix", counting_euler)
    expected = 0
    for ideal in [MIXED, YPLANE, MonomialIdeal(CTX2, [(1, 0), (0, 1)])]:
        report = verify.VerificationReport()
        shapes = verify._check_shapes(ideal, report)
        verify._check_euler(ideal, shapes, report)
        assert report.passed, report.to_json()
        for i, shape in shapes.items():
            if shape is not PatternShape.EMPTY:
                # two multidegrees per nonzero pattern
                expected += 2 * len(LocalCohomologyModule(ideal, i).patterns())
    assert expected > 0
    assert len(built) == expected
    assert set(built.values()) == {1}


def _euler_by_products(module, alpha):
    """Σ X_v ∂_v as the plain sum of full matrix products."""
    dim = module.piece_dim(alpha)
    total = weylact._zero_rows(dim, dim)
    for v in sorted(module.context.x_indices):
        down = module.derham_transition(alpha, v)
        back = module.transition(tuple(a - (t == v) for t, a in enumerate(alpha)), v)
        total = weylact._mat_add(total, weylact._matmul(back, down, dim))
    return total


class _JordanModule(weylact.PatternModulePresentation):
    """Two-dimensional pieces whose derivative is a Jordan block, so the
    Euler sum needs a real product."""

    def pattern_dim(self, pattern):
        return 2

    def mult_crossing(self, pattern, v):
        return [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]

    def derham_transition(self, alpha, v):
        return [[Fraction(alpha[v]), Fraction(1)], [Fraction(0), Fraction(alpha[v])]]


def test_euler_matrix_matches_the_full_products():
    modules = [_JordanModule(CTX2)] + [
        LocalCohomologyModule(ideal, i)
        for ideal in exhaustive_ideals(3)
        for i in range(len(ideal.generators) + 1)
    ]
    checked = 0
    for module in modules:
        for alpha in product(range(-2, 3), repeat=module.context.nvars):
            if module.piece_dim(alpha):
                assert weylact._euler_matrix(module, alpha) == _euler_by_products(module, alpha)
                checked += 1
    assert checked > 1000


def test_maps_off_the_crossings_are_integer_rows():
    modules = [
        LocalCohomologyModule(ideal, i)
        for ideal in exhaustive_ideals(3)
        for i in range(len(ideal.generators) + 1)
    ] + [
        LocalizationModule(ctx, inverted)
        for ctx in (CTX1, CTX2, CTX_MIX)
        for r in range(ctx.nvars + 1)
        for inverted in combinations(range(ctx.nvars), r)
    ]
    checked = 0
    for module in modules:
        ctx = module.context
        for alpha in product(range(-2, 3), repeat=ctx.nvars):
            if not module.piece_dim(alpha):
                continue
            maps = [module.transition(alpha, v) for v in range(ctx.nvars) if alpha[v] != -1]
            maps += [module.derham_transition(alpha, v) for v in sorted(ctx.x_indices)]
            maps.append(weylact._euler_matrix(module, alpha))
            assert all(type(x) is int for rows in maps for row in rows for x in row), (
                module, alpha,
            )
            checked += 1
    assert checked > 1000


def test_euler_check_builds_no_crossings(monkeypatch):
    # the crossing is only reached at α_v = 0, where the derivative is zero
    crossings = Counter()
    real_crossing = LocalCohomologyModule.mult_crossing

    def counting_crossing(module, pattern, v):
        crossings[module.ideal, module.i, frozenset(pattern), v] += 1
        return real_crossing(module, pattern, v)

    monkeypatch.setattr(LocalCohomologyModule, "mult_crossing", counting_crossing)
    checked = 0
    for ideal in [*exhaustive_ideals(3), *random_battery(count=60, seed=5)]:
        report = verify.VerificationReport()
        shapes = verify._check_shapes(ideal, report)
        verify._check_euler(ideal, shapes, report)
        assert report.passed, report.to_json()
        checked += any(shape is not PatternShape.EMPTY for shape in shapes.values())
    assert checked > 50
    assert not crossings


# ---------------------------------------------------------------------------
# four-term sequences
# ---------------------------------------------------------------------------


def test_four_term_frozen():
    assert four_term_check(R1, 0, "derham", -1) is True
    assert four_term_check(E1, 0, "mult", 0) is True
    assert four_term_check(H2, 1, "mult", -1) is True
    with pytest.raises(ValueError):
        four_term_check(R1, 0, "divided", 0)


def test_four_term_all_probed_degrees():
    modules = [R1, RX, E1, R2, H2]
    for module in modules:
        for v in sorted(module.context.x_indices):
            for kind in ("mult", "derham"):
                for n in range(-10, 11):
                    assert four_term_check(module, v, kind, n) in (True, None)


def test_four_term_skips_on_infinite():
    assert four_term_check(MFREE, 1, "mult", 0) is None


def test_convention_offsets():
    assert KoszulConvention.MULT_SOURCE_OFFSET == -1
    assert KoszulConvention.DERHAM_SOURCE_OFFSET == 1


# ---------------------------------------------------------------------------
# socle extraction
# ---------------------------------------------------------------------------


def test_socle_yplane():
    for n in range(0, 11):
        assert koszul_homology_Y(YPLANE, 1, n) == fin(1)
    for n in range(-10, 0):
        assert koszul_homology_Y(YPLANE, 1, n) == fin(0)


def test_socle_free_components_vanish():
    ctx = VariableContext(("Y1",), ("X1", "X2"))
    free = MonomialIdeal(ctx, [(0, 1, 0), (0, 0, 1)])
    for n in (-3, -2, 0, 2):
        assert koszul_homology_Y(free, 2, n) == fin(0)


def test_socle_mixed_vanishes_both_indices():
    # Y1 multiplies the corner classes isomorphically, so no socle survives
    for i in (1, 2):
        for n in (-2, -1, 0, 1):
            assert koszul_homology_Y(MIXED, i, n) == fin(0)


def test_socle_rejects_no_y():
    with pytest.raises(ValueError):
        koszul_homology_Y(MonomialIdeal(CTX2, [(1, 0)]), 1, 0)
