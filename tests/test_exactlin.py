import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab.exactlin import (
    ExactMatrix,
    FiniteComplex,
    IntegerPolynomial,
    binom_ext,
    cohomology_dims,
    kernel_basis,
    rank,
    rank_fraction_rows,
    solve_columns,
)
from lclab.monocech import slice_complex
from lclab.verify import exhaustive_ideals


def gauss_kernel(matrix):
    """Reference kernel: Gauss–Jordan over Fraction, then each vector
    scaled to the primitive integer one (free coordinate positive)."""
    m, n = matrix.nrows, matrix.ncols
    rows = [[Fraction(v) for v in r] for r in matrix.to_rows()]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        scale = math.lcm(*(f.denominator for f in vec))
        ints = [int(f * scale) for f in vec]
        g = math.gcd(*ints)
        basis.append([v // g for v in ints])
    return basis


def gauss_solve(columns, target):
    """Reference solve: Gauss–Jordan over Fraction on the augmented
    matrix, free coefficients set to zero; None when inconsistent."""
    n, k = len(target), len(columns)
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(n)]
    r = 0
    piv_of_col = {}
    for c in range(k):
        p = next((i for i in range(r, n) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_of_col[c] = r
        r += 1
    if any(aug[i][k] for i in range(r, n)):
        return None
    sol = [Fraction(0)] * k
    for c, i in piv_of_col.items():
        sol[c] = aug[i][k]
    return sol


def gauss_rank(rows):
    """Independent rank oracle: plain Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, m):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=6):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    return rows


def test_rank_frozen_examples():
    assert rank(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(ExactMatrix.from_rows([[1, 2], [3, 4]])) == 2
    assert rank(ExactMatrix.from_rows([[0, 0], [0, 0]])) == 0
    assert rank(ExactMatrix(0, 5)) == 0
    assert rank(ExactMatrix(5, 0)) == 0
    # needs a row swap and a column skip
    assert rank(ExactMatrix.from_rows([[0, 0, 3], [0, 0, 6], [0, 1, 0]])) == 2
    # larger entries exercise the fraction-free division
    assert (
        rank(ExactMatrix.from_rows([[100, 99, 98], [99, 98, 97], [98, 97, 96]])) == 2
    )


@settings(max_examples=300)
@given(int_matrices())
def test_rank_matches_gauss_oracle(rows):
    assert rank(ExactMatrix.from_rows(rows)) == gauss_rank(rows)


@given(int_matrices())
def test_rank_transpose_invariant(rows):
    a = ExactMatrix.from_rows(rows)
    assert rank(a) == rank(a.transpose())


@given(int_matrices(), st.randoms(use_true_random=False))
def test_rank_permutation_invariant(rows, rng):
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rank(ExactMatrix.from_rows(shuffled)) == rank(
        ExactMatrix.from_rows(rows)
    )


def test_compose_shapes_and_values():
    a = ExactMatrix.from_rows([[1, 0], [0, 2], [3, 0]])
    b = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    ab = a.compose(b)
    assert ab.to_rows() == [[1, 1, 0], [0, 2, 2], [3, 3, 0]]
    with pytest.raises(ValueError):
        a.compose(a)


def test_complex_rejects_bad_shapes_and_nonzero_composition():
    d0 = ExactMatrix.from_rows([[1], [1]])
    with pytest.raises(ValueError):
        FiniteComplex([1, 3], [d0])
    d1 = ExactMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        FiniteComplex([1, 2, 1], [d0, d1])  # d1∘d0 = [1] != 0


def test_cohomology_of_short_exact_segment():
    # 0 -> K -> K^2 -> K -> 0 with d0 = (1,1)^T, d1 = (1,-1): exact
    d0 = ExactMatrix.from_rows([[1], [1]])
    d1 = ExactMatrix.from_rows([[1, -1]])
    c = FiniteComplex([1, 2, 1], [d0, d1])
    assert cohomology_dims(c) == (0, 0, 0)


def test_cohomology_zero_differentials():
    z = ExactMatrix(2, 3)
    c = FiniteComplex([3, 2], [z])
    assert cohomology_dims(c) == (3, 2)


@st.composite
def random_complexes(draw):
    """Random three-level complex C^0 -> C^1 -> C^2 built to satisfy d∘d=0."""
    n0 = draw(st.integers(min_value=0, max_value=4))
    n1 = draw(st.integers(min_value=1, max_value=4))
    rows0 = draw(
        st.lists(
            st.lists(small_ints, min_size=n0, max_size=n0), min_size=n1, max_size=n1
        )
    )
    d0 = ExactMatrix.from_rows(rows0, ncols=n0)
    ker = kernel_basis(d0.transpose())  # rows annihilating im(d0)
    picks = draw(st.lists(st.sampled_from(ker), max_size=3)) if ker else []
    d1 = ExactMatrix.from_rows(picks, ncols=n1) if picks else ExactMatrix(0, n1)
    return FiniteComplex([n0, n1, len(picks)], [d0, d1])


@given(random_complexes())
def test_euler_characteristic_telescopes(c):
    """Alternating sum of cohomology equals alternating sum of level dims."""
    hs = cohomology_dims(c)
    lhs = sum((-1) ** p * h for p, h in enumerate(hs))
    rhs = sum((-1) ** p * n for p, n in enumerate(c.levels))
    assert lhs == rhs


def test_binom_ext_frozen_values():
    assert binom_ext(5, 2) == 10
    assert binom_ext(0, 0) == 1
    assert binom_ext(2, 5) == 0
    assert binom_ext(-1, 3) == -1
    assert binom_ext(-1, 4) == 1
    assert binom_ext(-3, 2) == 6
    assert binom_ext(-2, 1) == -2


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=8))
def test_binom_ext_pascal_rule(a, k):
    assert binom_ext(a, k) == binom_ext(a - 1, k) + binom_ext(a - 1, k - 1)


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=0, max_value=8))
def test_binom_ext_is_falling_factorial_over_factorial(a, k):
    num = 1
    for t in range(k):
        num *= a - t
    assert binom_ext(a, k) == Fraction(num, math.factorial(k))


def test_integer_polynomial_basic():
    # p(n) = binom(n+1, 1) = n + 1, valid for n >= 0
    p = IntegerPolynomial([0, 1], "ge", 0)
    assert p.degree == 1
    assert p.evaluate(4) == 5
    assert p.render() == "n + 1"


def test_integer_polynomial_negative_tail_render():
    # q(n) = -binom(n+1,1) = -n - 1: the m=2 single-tail multiplicity
    q = IntegerPolynomial([0, -1], "le", -2)
    assert q.evaluate(-5) == 4
    assert q.render() == "-n - 1"


def test_integer_polynomial_zero():
    z = IntegerPolynomial([], "ge", 0)
    assert z.degree is None
    assert z.is_zero()
    assert z.render() == "0"
    assert IntegerPolynomial([0, 0], "ge", 0) == z


def test_integer_polynomial_power_coeffs_match_evaluation():
    p = IntegerPolynomial([Fraction(1), Fraction(-2), Fraction(3, 1)], "ge", 0)
    pc = p.power_coeffs()
    for n in range(-4, 5):
        assert sum(a * n**e for e, a in enumerate(pc)) == p.evaluate(n)


@given(int_matrices())
def test_kernel_basis_annihilated_and_counts(rows):
    a = ExactMatrix.from_rows(rows)
    basis = kernel_basis(a)
    assert len(basis) == a.ncols - rank(a)
    dense = a.to_rows()
    for vec in basis:
        assert any(vec)
        for row in dense:
            assert sum(x * y for x, y in zip(row, vec)) == 0
    # basis vectors are independent
    assert rank(ExactMatrix.from_rows(basis, ncols=a.ncols)) == len(basis)


@settings(max_examples=300)
@given(int_matrices(max_dim=7))
def test_kernel_basis_matches_fraction_gauss(rows):
    a = ExactMatrix.from_rows(rows)
    assert kernel_basis(a) == gauss_kernel(a)


def test_kernel_basis_matches_fraction_gauss_on_slice_coboundaries():
    checked = 0
    for ideal in exhaustive_ideals(3):
        nvars = ideal.context.nvars
        for r in range(nvars + 1):
            for pattern in combinations(range(nvars), r):
                for d in slice_complex(ideal, frozenset(pattern)).diffs:
                    assert kernel_basis(d) == gauss_kernel(d)
                    checked += 1
    assert checked == 786


def test_kernel_basis_edge_shapes():
    assert kernel_basis(ExactMatrix(0, 3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(ExactMatrix(2, 0)) == []
    assert kernel_basis(ExactMatrix.from_rows([[2, 4, -6]])) == [[-2, 1, 0], [3, 0, 1]]
    assert kernel_basis(ExactMatrix.from_rows([[-3, 2], [6, -4]])) == [[2, 3]]


def test_solve_columns_round_trip():
    cols = [[1, 0, 2], [0, 1, 1]]
    target = [3, -1, 5]  # 3*c0 - 1*c1
    sol = solve_columns(cols, target)
    assert sol == [3, -1]
    assert solve_columns(cols, [0, 0, 1]) is None


@st.composite
def solve_systems(draw):
    """Columns with zero and dependent ones mixed in, and a target that is
    either in their span or an arbitrary (often inconsistent) vector."""
    n = draw(st.integers(min_value=0, max_value=6))
    vec = st.lists(small_ints, min_size=n, max_size=n)
    columns = draw(st.lists(vec, max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["zero", "combo"]))
        if kind == "zero" or not columns:
            extra = [0] * n
        else:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            s, t = draw(small_ints), draw(small_ints)
            extra = [s * x + t * y for x, y in zip(a, b)]
        columns.insert(draw(st.integers(min_value=0, max_value=len(columns))), extra)
    if draw(st.booleans()):
        coeffs = draw(st.lists(small_ints, min_size=len(columns), max_size=len(columns)))
        target = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(n)]
    else:
        target = draw(vec)
    return columns, target


@settings(max_examples=400)
@given(solve_systems())
def test_solve_columns_matches_fraction_gauss(system):
    columns, target = system
    expected = gauss_solve(columns, target)
    got = solve_columns(columns, target)
    assert got == expected
    if got is not None:
        assert all(isinstance(x, Fraction) for x in got)
        for i, t in enumerate(target):
            assert sum(x * col[i] for x, col in zip(got, columns)) == t


def test_solve_columns_edge_shapes():
    assert solve_columns([], []) == []
    assert solve_columns([], [0, 0]) == []
    assert solve_columns([], [0, 1]) is None
    assert solve_columns([[], []], []) == [0, 0]
    # a zero column and a repeated column get coefficient zero
    assert solve_columns([[0, 0], [2, 4], [2, 4]], [3, 6]) == [0, Fraction(3, 2), 0]
    assert solve_columns([[2, 4]], [3, 5]) is None


def test_rank_fraction_rows_matches_int_rank():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(2, 1)],
        [Fraction(2, 1), Fraction(4, 3)],
    ]
    assert rank_fraction_rows(rows) == 2
    assert rank_fraction_rows([]) == 0
    assert rank_fraction_rows([[0, 0], [0, 0]]) == 0
