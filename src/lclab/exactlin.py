"""Exact linear algebra over the integers and rationals.

Everything in here is exact: matrices carry Python ints (arbitrary
precision), and ranks come from one fraction-free echelon routine on
integer rows, its forward pass.  The package calls ``rank`` alone.
Three routines no part of the package calls, ``kernel_basis``,
``solve_columns`` and ``rank_fraction_rows`` (with the back step
``_back`` the first two share), stay only because the benchmark's span
tracer (bench/tracer.py) wraps them by name.  Rationals
(``fractions.Fraction``) appear only in the binomial-basis polynomials
and in the last two.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactMatrix:
    """An integer matrix stored sparsely as ``{(row, col): entry}``.

    Rows index the target, columns the source, so a matrix represents a
    map from K^ncols to K^nrows acting on column vectors.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        cleaned = {}
        for (i, j), v in (entries or {}).items():
            if not isinstance(v, int):
                raise TypeError(f"entry at {(i, j)} is not an int: {v!r}")
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry index {(i, j)} outside {nrows}x{ncols}")
            if v:
                cleaned[(i, j)] = v
        self.entries = cleaned

    @classmethod
    def from_rows(cls, rows, ncols=None):
        """Build from a dense list of rows (lists of ints)."""
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(nrows, ncols, entries)

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self):
        return ExactMatrix(
            self.ncols, self.nrows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def compose(self, other):
        """self @ other (apply ``other`` first)."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}"
            )
        acc = {}
        # group other's entries by row so we only touch nonzeros
        by_row = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                acc[(i, j)] = acc.get((i, j), 0) + u * v
        return ExactMatrix(self.nrows, other.ncols, acc)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"


class FiniteComplex:
    """A finite cochain complex of finite-dimensional K-vector spaces.

    ``levels[p]`` is dim C^p and ``diffs[p]`` the differential
    C^p -> C^{p+1} (so diffs[p] is levels[p+1] x levels[p]).  d∘d = 0 is
    checked at construction.
    """

    __slots__ = ("levels", "diffs")

    def __init__(self, levels, diffs):
        levels = tuple(int(x) for x in levels)
        diffs = tuple(diffs)
        if len(diffs) != max(len(levels) - 1, 0):
            raise ValueError("need exactly one differential between consecutive levels")
        for p, d in enumerate(diffs):
            if d.ncols != levels[p] or d.nrows != levels[p + 1]:
                raise ValueError(
                    f"differential {p} has shape {d.nrows}x{d.ncols}, "
                    f"expected {levels[p + 1]}x{levels[p]}"
                )
        for p in range(len(diffs) - 1):
            if not diffs[p + 1].compose(diffs[p]).is_zero():
                raise ValueError(f"d∘d != 0 between levels {p} and {p + 2}")
        self.levels = levels
        self.diffs = diffs

    def __len__(self):
        return len(self.levels)

    def __repr__(self):
        return f"FiniteComplex(levels={list(self.levels)})"


def cohomology_dims(complex_):
    """Cohomology dimensions (h^0, ..., h^top) of a FiniteComplex.

    h^p = dim C^p - rank d^p - rank d^{p-1}: kill boundaries, keep cycles.
    """
    ranks = [rank(d) for d in complex_.diffs]
    out = []
    for p, c in enumerate(complex_.levels):
        r_out = ranks[p] if p < len(ranks) else 0
        r_in = ranks[p - 1] if p > 0 else 0
        h = c - r_out - r_in
        assert h >= 0, "rank bookkeeping broke"
        out.append(h)
    return tuple(out)


def binom_ext(a, k):
    """Binomial coefficient a*(a-1)*...*(a-k+1)/k! for any integer a, k >= 0.

    This is the Pascal extension: binom_ext(-1, 3) == -1, and for a < 0
    generally binom_ext(a, k) == (-1)^k * C(-a+k-1, k).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if a >= 0:
        return math.comb(a, k)
    sign = -1 if k % 2 else 1
    return sign * math.comb(-a + k - 1, k)


class IntegerPolynomial:
    """A polynomial in one integer variable, kept in the binomial basis.

    Coefficients ``coeffs[j]`` are exact rationals multiplying
    binom_ext(n + j, j); values are integers on the validity half-line
    (``side`` is "le" or "ge", with inclusive ``bound``).
    """

    __slots__ = ("coeffs", "side", "bound")

    def __init__(self, coeffs, side, bound):
        if side not in ("le", "ge"):
            raise ValueError("side must be 'le' or 'ge'")
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.side = side
        self.bound = int(bound)

    @property
    def degree(self):
        """Largest basis index with nonzero coefficient; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def evaluate(self, n):
        return sum(
            (c * binom_ext(n + j, j) for j, c in enumerate(self.coeffs)),
            Fraction(0),
        )

    def power_coeffs(self):
        """Coefficients [a0, a1, ...] with p(n) = sum a_t * n^t, as Fractions."""
        acc = [Fraction(0)] * max(len(self.coeffs), 1)
        for j, c in enumerate(self.coeffs):
            # expand binom(n+j, j) = (n+1)(n+2)...(n+j) / j!
            poly = [Fraction(1)]
            for t in range(1, j + 1):
                nxt = [Fraction(0)] * (len(poly) + 1)
                for e, a in enumerate(poly):
                    nxt[e] += a * t
                    nxt[e + 1] += a
                poly = nxt
            fact = Fraction(1, math.factorial(j))
            for e, a in enumerate(poly):
                acc[e] += c * fact * a
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        return acc

    def render(self, var="n"):
        """Human form in the power basis, e.g. '-n - 1' or '0'."""
        coeffs = self.power_coeffs()
        if all(a == 0 for a in coeffs):
            return "0"
        parts = []
        for e in range(len(coeffs) - 1, -1, -1):
            a = coeffs[e]
            if a == 0:
                continue
            mag = abs(a)
            if e == 0:
                term = f"{mag}"
            else:
                v = var if e == 1 else f"{var}^{e}"
                term = v if mag == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, IntegerPolynomial):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.side == other.side
            and self.bound == other.bound
        )

    def __hash__(self):
        return hash((self.coeffs, self.side, self.bound))

    def __repr__(self):
        cmp = "<=" if self.side == "le" else ">="
        return f"IntegerPolynomial({self.render()} for n {cmp} {self.bound})"


# ---------------------------------------------------------------------------
# The elimination core.  Everything runs on Python ints: a row is cleared
# by ``piv*row_i - t*row_r`` and then divided by its content, so every
# row stays a nonzero multiple of the matching row over Q.  ``rank`` uses
# the forward pass alone; kernels and solves read pivots and the back step
# off the same pass.
# ---------------------------------------------------------------------------


def _primitive(row):
    """Divide an integer row by the gcd of its entries (zero rows unchanged)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _forward(rows):
    """Fraction-free forward elimination of a list of integer rows.

    Returns ``(echelon, pivots)``: the nonzero rows of a row-echelon form,
    each primitive, and the pivot column of each.  A column is a pivot
    column exactly when it is not in the span of the columns before it.
    The input rows are not modified.
    """
    rows = [row for row in rows if any(row)]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv_row = rows[r] = _primitive(rows[r])
        piv = piv_row[c]
        for i in range(r + 1, m):
            t = rows[i][c]
            if t:
                rows[i] = _primitive([piv * a - t * b for a, b in zip(rows[i], piv_row)])
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _back(rows, pivots):
    """Clear every pivot column above its pivot, in place.

    Afterwards each row of ``_forward``'s echelon form is a primitive
    multiple of the matching row of the reduced echelon form over Q.
    """
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        piv_row = rows[r]
        piv = piv_row[c]
        for i in range(r):
            t = rows[i][c]
            if t:
                rows[i] = _primitive([piv * a - t * b for a, b in zip(rows[i], piv_row)])
    return rows


def rank(matrix):
    """Rank of an ExactMatrix over the rationals: the pivot count of the
    fraction-free forward pass (no back elimination)."""
    return len(_forward(matrix.to_rows())[1])


def kernel_basis(matrix):
    """Integer basis of the right kernel of an ExactMatrix.

    Returned as a list of length-ncols int vectors, one per free column
    in increasing order.  Each row of the reduced echelon form is a
    nonzero multiple of the matching row over Q, so each returned vector
    is the primitive one with a positive entry on its free column: the
    same basis Gauss over Q gives.
    """
    n = matrix.ncols
    rows, pivots = _forward(matrix.to_rows())
    _back(rows, pivots)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(n) if c not in pivot_set):
        # vec[pc] = -row[fc] / row[pc], scaled by the lcm of the pivots used
        used = [(row, pc) for row, pc in zip(rows, pivots) if row[fc]]
        scale = math.lcm(*(row[pc] for row, pc in used))
        vec = [0] * n
        vec[fc] = scale
        for row, pc in used:
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(vec))
    return basis


def rank_fraction_rows(rows):
    """Rank of a matrix given as rows of Fractions (or ints).

    Each row is scaled by its denominator lcm — this changes nothing about
    the row space — and the integer rank is taken by ``rank``.
    """
    scaled = []
    for row in rows:
        row = [Fraction(v) for v in row]
        denoms = [f.denominator for f in row if f]
        s = math.lcm(*denoms) if denoms else 1
        scaled.append([int(f * s) for f in row])
    if not scaled or not scaled[0]:
        return 0
    return rank(ExactMatrix.from_rows(scaled))


def solve_columns(columns, target):
    """Solve sum_j x_j * columns[j] == target for integer columns and target.

    Returns the coefficients as Fractions, or None if the system is
    inconsistent.  The columns are to be linearly independent, so that a
    consistent system has exactly one answer; were they not, the answer
    given would be the one that is zero on every non-pivot column.
    """
    k = len(columns)
    aug = [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    rows, pivots = _forward(aug)
    if pivots and pivots[-1] == k:
        return None
    _back(rows, pivots)
    sol = [Fraction(0)] * k
    for row, c in zip(rows, pivots):
        sol[c] = Fraction(row[k], row[c])
    return sol
