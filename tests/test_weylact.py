from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import monocech, verify, weylact
from lclab.monocech import (
    INFINITE,
    CohomologyProfile,
    DimValue,
    MonomialIdeal,
    PatternShape,
    VariableContext,
    cohomology_profile,
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


def test_transition_identity_off_the_wall():
    mod = LocalCohomologyModule(MIXED, 1)
    # Y1 negative but not at −1: same pattern on both sides
    assert mod.transition((-2, 0, 0), 0) == [[Fraction(1)]]
    assert mod.transition((-1, 0, 0), 1) == [[Fraction(1)]]  # Y2: 0 → 1, no wall


def test_crossing_out_of_the_module_is_zero_shaped():
    mod = LocalCohomologyModule(MIXED, 1)
    # crossing Y1 at the wall leaves the only contributing pattern
    assert mod.crossing_rank({0}, 0) == 0
    with pytest.raises(ValueError):
        mod.crossing_rank(frozenset({1}), 0)
    # the module carries crossing ranks, not crossing matrices
    with pytest.raises(NotImplementedError, match="crossing ranks, not matrices"):
        mod.transition((-1, 0, 0), 0)


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
                LocalizationModule(CTX2, {0}),
                LocalizationModule(CTX2, {0, 1}),
                LocalizationModule(CTX_MIX, {0, 1}),
                LocalizationModule(CTX_MIX, {1, 2}),
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
# crossing ranks are computed once per module and shared across degrees
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
                assert module.crossing_rank(source, v) == fresh.crossing_rank(source, v), (i, pattern, v)
                checked += 1
    assert checked or not cohomology_profile(ideal).by_pattern


def test_koszul_over_a_degree_range_builds_each_crossing_once(monkeypatch):
    calls = Counter()
    built = Counter()
    real_rank = weylact.rank
    real_kernel = weylact.kernel_basis
    real_build = LocalCohomologyModule.image_rank

    def counting_rank(matrix):
        calls["rank"] += 1
        return real_rank(matrix)

    def counting_kernel(matrix):
        calls["kernel_basis"] += 1
        return real_kernel(matrix)

    def counting_build(self, pattern, variables):
        built[pattern, tuple(variables)] += 1
        return real_build(self, pattern, variables)

    monkeypatch.setattr(weylact, "rank", counting_rank)
    monkeypatch.setattr(weylact, "kernel_basis", counting_kernel)
    monkeypatch.setattr(LocalCohomologyModule, "image_rank", counting_build)
    module = LocalCohomologyModule(C7, 4)
    koszul_homology_X(module, 0, -6)
    after_first_degree = dict(calls)
    assert after_first_degree["rank"] > 0 and after_first_degree["kernel_basis"] > 0
    for n in range(-5, 7):  # 13 degrees in all
        koszul_homology_X(module, 0, n)
    assert calls == after_first_degree
    # one rank per (pattern, v) crossing, however many degrees read it
    assert built and set(built.values()) == {1}
    assert all(len(variables) == 1 for _, variables in built)


@pytest.mark.parametrize(
    "ideal, i, v", [(C7, 4, 0), (C7, 4, 3), (cycle_ideal(8), 5, 0), (MIXED, 2, 0)], ids=["C7-X1", "C7-X4", "C8-X1", "mixed-Y1"]
)
def test_koszul_over_a_degree_range_finds_each_alive_family_once(monkeypatch, ideal, i, v):
    found = Counter()
    real_alive = monocech._alive_masks

    def counting_alive(supports, pattern):
        found[supports, pattern] += 1
        return real_alive(supports, pattern)

    monkeypatch.setattr(monocech, "_alive_masks", counting_alive)
    module = LocalCohomologyModule(ideal, i)
    for n in range(-6, 7):
        koszul_homology_X(module, v, n)
    # each slice a crossing builds finds its alive family once
    assert found and set(found.values()) == {1}


@pytest.mark.parametrize(
    "pattern, k, message",
    [({0, 1, 2}, 2, "1 cocycle classes, not 2"), ({1, 2}, 1, "image rank 2 out of range")],
    ids=["source-rank", "target-rank"],
)
def test_a_profile_fault_fails_the_crossing_check(pattern, k, message):
    # one rank of the profile off by one, at the source or at the target of
    # the crossing of Y1 out of {Y1, Y2, X1}, whose true rank is 1
    module = LocalCohomologyModule(MIXED, 2)
    assert module.crossing_rank({0, 1, 2}, 0) == 1
    real = module.profile
    dims = list(real.by_pattern[frozenset(pattern)])
    dims[k] += 1
    broken = LocalCohomologyModule(MIXED, 2)
    broken.profile = CohomologyProfile(
        real.ideal, real.gen_count, {**real.by_pattern, frozenset(pattern): tuple(dims)}
    )
    with pytest.raises(AssertionError, match=rf"{message}.* at pattern \[0, 1, 2\]"):
        broken.crossing_rank({0, 1, 2}, 0)


def _les_ranks(h_sub, h_whole, c):
    """Ranks of H^k(A) → H^k(B), k = 0..g, read off the long exact
    sequence of a subcomplex C(A) ⊂ C(B) whose quotient has cohomology c:
    ρ_0 = h^0(A) and ρ_{k+1} = h^{k+1}(A) + h^k(B) − ρ_k − c_k.  The last
    connecting map must vanish, since there is no H^{g+1}(A)."""
    rho = [h_sub[0]]
    for k in range(len(c) - 1):
        rho.append(h_sub[k + 1] + h_whole[k] - rho[k] - c[k])
    assert c[-1] - h_whole[-1] + rho[-1] == 0
    return rho


def test_crossing_ranks_match_the_long_exact_sequences():
    # a crossing (P, v) is the map induced by C(A) ⊂ C(B), A = alive(P) and
    # B = alive(P∖v), with quotient complex C(B∖A); two Y-crossings at once
    # are the middle map of the Mayer–Vietoris sequence of C(B1), C(B2),
    # which meet in C(A) and span C(B1 ∪ B2).  Neither route chooses a
    # cocycle or calls kernel_basis.
    pairs = nonzero = corners = stacked = 0
    for ideal in [*exhaustive_ideals(4), *random_battery(count=400, seed=9, max_nvars=7)]:
        ideal = monocech.normalize(ideal)
        g = len(ideal.supports)
        profile = cohomology_profile(ideal)
        modules = [LocalCohomologyModule(ideal, k) for k in range(g + 1)]

        def alive(pattern):
            return monocech._alive_masks(ideal.supports, pattern)

        def dims(pattern):
            return [profile.h(pattern, k) for k in range(g + 1)]

        for pattern in profile.patterns():
            for v in pattern:
                target = pattern - {v}
                quotient = monocech._cech_dims(alive(target) & ~alive(pattern), g)
                rho = _les_ranks(dims(pattern), dims(target), quotient)
                assert [m.crossing_rank(pattern, v) for m in modules] == rho, (ideal, pattern, v)
                pairs += 1
                nonzero += sum(map(bool, rho))
            for y1, y2 in combinations(sorted(pattern & ideal.context.y_indices), 2):
                b1, b2 = alive(pattern - {y1}), alive(pattern - {y2})
                assert b1 & b2 == alive(pattern)
                both = [a + b for a, b in zip(dims(pattern - {y1}), dims(pattern - {y2}))]
                rho = _les_ranks(dims(pattern), both, monocech._cech_dims(b1 | b2, g))
                assert [m.image_rank(pattern, (y1, y2)) for m in modules] == rho, (ideal, pattern)
                corners += 1
                # the stacked rank beats every single crossing rank
                stacked += any(
                    r > max(m.crossing_rank(pattern, y1), m.crossing_rank(pattern, y2))
                    for r, m in zip(rho, modules)
                )
    assert (pairs, nonzero, corners, stacked) == (17370, 9068, 3626, 162)


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
    # the full products cross the walls, so only modules that carry
    # crossing matrices take part
    modules = [_JordanModule(CTX2)] + [
        LocalizationModule(ctx, inverted)
        for ctx in (CTX1, CTX2, CTX_MIX)
        for r in range(ctx.nvars + 1)
        for inverted in combinations(range(ctx.nvars), r)
    ]
    checked = 0
    for module in modules:
        for alpha in product(range(-2, 3), repeat=module.context.nvars):
            if module.piece_dim(alpha):
                assert weylact._euler_matrix(module, alpha) == _euler_by_products(module, alpha)
                checked += 1
    # 25 Jordan points and 8 + 64 + 512 localization points
    assert checked == 609


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
