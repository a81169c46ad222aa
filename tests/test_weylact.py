from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import weylact
from lclab.exactlin import kernel_basis
from lclab.monocech import (
    INFINITE,
    DimValue,
    MonomialIdeal,
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
    koszul_contributions,
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
                    data = module._slice_data(pattern)
                    c_i = len(data.level_basis)
                    if i < len(diffs):
                        cycles = kernel_basis(diffs[i])
                    else:
                        cycles = [[int(t == s) for t in range(c_i)] for s in range(c_i)]
                    assert data.reps == greedy_reps(data.boundary_cols, cycles), (ideal, i, pattern)
                    checked += 1
                    with_boundaries += bool(data.reps and data.boundary_cols)
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
    contribs = list(koszul_contributions(mod, 0, 2))
    assert any(
        which == "H1" and pattern == frozenset({0}) and count.is_infinite
        for which, pattern, _w, count in contribs
    )
    assert koszul_homology_X(mod, 0, -1) == (fin(0), fin(0))


# ---------------------------------------------------------------------------
# crossings are built once per (pattern, v) and shared across degrees
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ideal",
    [C7, *random_battery(count=12, seed=5)],
    ids=["C7", *(f"battery-5-{t}" for t in range(12))],
)
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
    built = Counter()
    real_solve = weylact.solve_columns
    real_build = LocalCohomologyModule._build_crossing

    def counting_solve(columns, target):
        solves.append(target)
        return real_solve(columns, target)

    def counting_build(self, pattern, v):
        built[pattern, v] += 1
        return real_build(self, pattern, v)

    monkeypatch.setattr(weylact, "solve_columns", counting_solve)
    monkeypatch.setattr(LocalCohomologyModule, "_build_crossing", counting_build)
    module = LocalCohomologyModule(C7, 4)
    koszul_homology_X(module, 0, -6)
    after_first_degree = len(solves)
    assert after_first_degree > 0
    for n in range(-5, 7):  # 13 degrees in all
        koszul_homology_X(module, 0, n)
    assert len(solves) == after_first_degree
    assert built and set(built.values()) == {1}


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
