"""Operator actions on pattern-presented modules.

Modules here are given by one finite-dimensional piece per sign pattern
(the piece at a multidegree α depends only on N(α)) together with the
transition maps induced by multiplying with a variable or applying a
partial derivative.  Away from the walls α_v = −1 (for multiplication)
and α_v = 0 (for derivatives) every transition is an isomorphism, so
kernels and cokernels live on finitely many walls and the homology of
the one-variable two-term complexes aggregates wall data with lattice
counts.  That reduction is what makes Koszul/de Rham homology and socle
extraction exact and fast.
"""

from __future__ import annotations

from itertools import combinations

from .exactlin import kernel_basis, pivot_columns, rank_fraction_rows, solve_columns
from .monocech import (
    DimValue,
    _complex_from_basis,
    cohomology_profile,
    degree_count,
    normalize,
    slice_basis,
    x_lattice_count,
)


class NotEulerianError(AssertionError):
    """The Euler operator failed to act as expected on a piece.

    For modules built from monomial data this must never fire.
    """


class KoszulConvention:
    """Grading offsets for one-variable Koszul and de Rham homology.

    Fixed once, globally, by back-reading the four-term exact sequences
    relating a module to its kernels and cokernels:

      H1(v; M)_j  = ker(v: M_{j-deg v} -> M_j),  H0(v; M)_j = coker at M_j
      H1(dv; M)_j = ker(dv: M_{j+1} -> M_j),     H0(dv; M)_j = coker at M_j

    so multiplication by a degree-1 variable reads M_{j-1} -> M_j, a
    degree-0 variable reads M_j -> M_j, and a derivative reads
    M_{j+1} -> M_j.  Every homology routine in this module uses these
    offsets and nothing else.
    """

    MULT_SOURCE_OFFSET = -1  # times deg(v): kernel of v sits deg(v) below j
    DERHAM_SOURCE_OFFSET = +1  # kernel of dv sits one degree above j


# ---------------------------------------------------------------------------
# small exact matrix helpers (integer rows, rational only after a solve)
# ---------------------------------------------------------------------------


def _zero_rows(nr, nc):
    return [[0] * nc for _ in range(nr)]


def _scaled_identity(n, c):
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(a, b, out_cols):
    """a @ b with explicit column count so empty factors keep their shape."""
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(out_cols)] for row in a]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# module presentations
# ---------------------------------------------------------------------------


class PatternModulePresentation:
    """Base for modules with pattern-indexed pieces and wall transitions.

    Subclasses provide ``pattern_dim``, ``patterns`` and the crossing
    matrices; everything else (crossing ranks, generic transitions,
    derivatives, coarse dimensions) is derived here.
    """

    def __init__(self, context):
        self.context = context
        self._euler = None  # (α, Euler matrix) of the last α checked
        self._ranks = {}  # (pattern, v) -> rank of mult_crossing(pattern, v)

    def pattern_dim(self, pattern):
        raise NotImplementedError

    def patterns(self):
        """All patterns with a nonzero piece, in a deterministic order."""
        raise NotImplementedError

    def mult_crossing(self, pattern, v):
        """Matrix of multiplication by v across the wall α_v = −1.

        Maps the piece at ``pattern`` (which contains v) to the piece at
        pattern ∖ {v}; integer rows, rational only after a solve.
        """
        raise NotImplementedError

    def crossing_rank(self, pattern, v):
        """Rank of mult_crossing(pattern, v), computed once per (pattern, v):
        a crossing does not depend on the degree, so every degree of a
        homology query reads the same rank."""
        key = (frozenset(pattern), v)
        if key not in self._ranks:
            self._ranks[key] = rank_fraction_rows(self.mult_crossing(*key))
        return self._ranks[key]

    def piece_dim(self, alpha):
        return self.pattern_dim(self.context.sign_pattern(alpha))

    def transition(self, alpha, v):
        """Multiplication by variable v: piece(α) → piece(α + e_v).

        Depends only on (N(α), v, whether α_v = −1): off the wall the two
        patterns agree and the monomial identification is the identity.
        """
        alpha = tuple(alpha)
        pattern = self.context.sign_pattern(alpha)
        if alpha[v] == -1:
            return self.mult_crossing(pattern, v)
        return _scaled_identity(self.pattern_dim(pattern), 1)

    def derham_transition(self, alpha, v):
        """Derivative along a degree-1 variable: piece(α) → piece(α − e_v).

        The scalar is the source exponent α_v, so the wall α_v = 0 carries
        the zero map (derivative of something constant in v) and
        everything else is a scalar isomorphism.
        """
        alpha = tuple(alpha)
        if v not in self.context.x_indices:
            raise ValueError("derivatives are only taken in degree-1 variables")
        pattern = self.context.sign_pattern(alpha)
        if alpha[v] == 0:
            return _zero_rows(self.pattern_dim(pattern | {v}), self.pattern_dim(pattern))
        return _scaled_identity(self.pattern_dim(pattern), alpha[v])

    def coarse_dimension(self, n):
        """K-dimension of the whole coarse-degree-n component."""
        ctx = self.context
        total = DimValue(0)
        for pattern in self.patterns():
            count = degree_count(ctx.d, ctx.m, len(pattern & ctx.x_indices), n)
            total = total + count.scaled(self.pattern_dim(pattern))
        return total


class LocalizationModule(PatternModulePresentation):
    """The ring localized at a set of variables: one-dimensional pieces.

    piece(α) = K exactly when every non-inverted exponent is nonnegative,
    i.e. when N(α) ⊆ inverted; every defined multiplication is the
    identity on the monomial basis.  inverted = ∅ is the ring itself.
    """

    def __init__(self, context, inverted=()):
        super().__init__(context)
        self.inverted = frozenset(inverted)
        if not self.inverted <= frozenset(range(context.nvars)):
            raise ValueError("inverted set contains unknown variable indices")

    def pattern_dim(self, pattern):
        return 1 if frozenset(pattern) <= self.inverted else 0

    def patterns(self):
        inv = sorted(self.inverted)
        return [
            frozenset(c) for r in range(len(inv) + 1) for c in combinations(inv, r)
        ]

    def mult_crossing(self, pattern, v):
        pattern = frozenset(pattern)
        src = self.pattern_dim(pattern)
        tgt = self.pattern_dim(pattern - {v})
        if src and tgt:
            return [[1]]
        return _zero_rows(tgt, src)

    def __repr__(self):
        names = self.context.names
        inv = ",".join(names[v] for v in sorted(self.inverted))
        return f"LocalizationModule({{{inv}}})"


class LocalCohomologyModule(PatternModulePresentation):
    """An index-i torsion cohomology module of a monomial ideal, presented
    pattern-wise with explicit cohomology-class bases.

    Per pattern the piece gets a basis of integer cycle vectors chosen to
    extend the boundary space; wall crossings are computed by pushing a
    representative through the chain-level inclusion of alive subsets and
    re-expressing it modulo boundaries in the target basis.

    Each crossing reads the slice data of its two patterns; the module
    keeps only crossing ranks (in the base class), which every degree of a
    homology query reuses.  A crossing matrix is built whenever it is asked
    for and belongs to the caller.

    Every index is accepted: one outside 0..g (g the generator count) has
    no nonzero pattern in the profile, so it reads as the zero module, as
    in every subcommand.
    """

    def __init__(self, ideal, i):
        ideal = normalize(ideal)
        super().__init__(ideal.context)
        self.ideal = ideal
        self.i = i
        self.profile = cohomology_profile(ideal)

    def pattern_dim(self, pattern):
        return self.profile.h(pattern, self.i)

    def patterns(self):
        return [c.pattern for c in self.profile.contributors(self.i)]

    def _slice_data(self, pattern):
        """(level, boundary_cols, reps) of one pattern: the alive subsets of
        the middle level, a basis of the boundary space and cycle
        representatives on top of it, in the basis of that level."""
        i = self.i
        basis = slice_basis(self.ideal, pattern)
        diffs = _complex_from_basis(basis).diffs
        level = basis[i] if i < len(basis) else []
        c_i = len(level)
        if i < len(diffs):
            cycles = kernel_basis(diffs[i])
        else:
            # top level: everything is a cycle
            cycles = [[1 if t == s else 0 for t in range(c_i)] for s in range(c_i)]
        boundaries = diffs[i - 1].transpose().to_rows() if 1 <= i <= len(diffs) else []
        # a column counts when it is outside the span of the columns before
        # it: the boundaries that count are a basis of the boundary space,
        # and the cycles that count are the new classes
        nb = len(boundaries)
        pivots = pivot_columns(boundaries + cycles)
        boundary_cols = [boundaries[p] for p in pivots if p < nb]
        reps = [cycles[p - nb] for p in pivots if p >= nb]
        if len(reps) != self.pattern_dim(pattern):
            raise AssertionError(
                f"cohomology basis size {len(reps)} disagrees with rank count "
                f"{self.pattern_dim(pattern)} at pattern {sorted(pattern)}"
            )
        return level, boundary_cols, reps

    def mult_crossing(self, pattern, v):
        pattern = frozenset(pattern)
        if v not in pattern:
            raise ValueError("crossing needs the variable negative on the source side")
        target = pattern - {v}
        src_dim = self.pattern_dim(pattern)
        tgt_dim = self.pattern_dim(target)
        if src_dim == 0 or tgt_dim == 0:
            return _zero_rows(tgt_dim, src_dim)
        src_level, _, src_reps = self._slice_data(pattern)
        tgt_level, boundary_cols, tgt_reps = self._slice_data(target)
        position = {sigma: t for t, sigma in enumerate(tgt_level)}
        nb = len(boundary_cols)
        columns = boundary_cols + tgt_reps
        out_cols = []
        for z in src_reps:
            # the alive family only grows when the pattern shrinks, so the
            # chain map is the basis inclusion of subsets
            image = [0] * len(tgt_level)
            for coeff, sigma in zip(z, src_level):
                if coeff:
                    image[position[sigma]] = coeff
            sol = solve_columns(columns, image)
            if sol is None:
                raise AssertionError(
                    f"crossing image escaped the cycle space at {sorted(pattern)} -> {sorted(target)}"
                )
            out_cols.append(sol[nb:])
        return [[out_cols[j][r] for j in range(src_dim)] for r in range(tgt_dim)]

    def __repr__(self):
        return f"LocalCohomologyModule({self.ideal!r}, i={self.i})"


# ---------------------------------------------------------------------------
# Euler operator
# ---------------------------------------------------------------------------


def _euler_matrix(module, alpha):
    """Σ X_v ∂_v on piece(α): over each degree-1 variable, the product of
    the derivative and the multiplication back, summed on integer rows.

    The wall crossing back, rational only after its solve, is only reached
    at α_v = 0, where the derivative is zero, so a zero derivative skips
    the term before the crossing is built."""
    ctx = module.context
    dim = module.piece_dim(alpha)
    total = _zero_rows(dim, dim)
    for v in sorted(ctx.x_indices):
        down = module.derham_transition(alpha, v)
        if not any(any(row) for row in down):
            continue
        alpha_down = tuple(a - 1 if t == v else a for t, a in enumerate(alpha))
        back = module.transition(alpha_down, v)
        total = _mat_add(total, _matmul(back, down, dim))
    return total


def _euler_action(module, alpha):
    """The Euler matrix at α, built once for the checks that read it in a
    row (euler_eigencheck, then gen_eulerian_exponent) and kept on the
    module until another α is asked for."""
    if module._euler is None or module._euler[0] != alpha:
        module._euler = (alpha, _euler_matrix(module, alpha))
    return module._euler[1]


def euler_eigencheck(module, alpha):
    """Verify Σ X_v ∂_v acts as a scalar on piece(α) and return the scalar.

    The scalar must be the coarse degree (the sum of the degree-1
    exponents); anything else raises NotEulerianError.
    """
    alpha = tuple(alpha)
    dim = module.piece_dim(alpha)
    if dim == 0:
        raise ValueError("piece is zero; no eigenvalue to check")
    coarse = module.context.coarse_degree(alpha)
    expected = _scaled_identity(dim, coarse)
    if _euler_action(module, alpha) != expected:
        raise NotEulerianError(f"Euler action at {alpha} is not the scalar {coarse}")
    return coarse


def gen_eulerian_exponent(module, alpha):
    """Least a with (E − coarse degree)^a vanishing on piece(α).

    Equals 1 for every module built from monomial data (the action is
    already diagonal); computed honestly by powering the defect matrix.
    """
    alpha = tuple(alpha)
    dim = module.piece_dim(alpha)
    if dim == 0:
        raise ValueError("piece is zero")
    coarse = module.context.coarse_degree(alpha)
    defect = _mat_add(_euler_action(module, alpha), _scaled_identity(dim, -coarse))
    power = defect
    a = 1
    while any(any(row) for row in power):
        power = _matmul(power, defect, dim)
        a += 1
        if a > dim:
            raise NotEulerianError(f"(E - {coarse}) is not nilpotent at {alpha}")
    return a


# ---------------------------------------------------------------------------
# one-variable Koszul and de Rham homology
# ---------------------------------------------------------------------------


def _remaining_count(ctx, v, pattern, n):
    """Multidegree count over the variables other than v with the given
    pattern on them and coarse degree n."""
    y_count = ctx.d - (1 if v < ctx.d else 0)
    m = ctx.m - (1 if v >= ctx.d else 0)
    k = len(frozenset(pattern) & ctx.x_indices - {v})
    return degree_count(y_count, m, k, n)


def koszul_homology_X(module, v, n):
    """(dim H1, dim H0) of multiplication by variable v at coarse degree n.

    Cited convention: KoszulConvention (kernel of v: M_{n−deg v} → M_n and
    cokernel at M_n).  Kernels live on walls where the source pattern
    contains v, cokernels where the target pattern omits it.  The per-wall
    coarse offsets of a kernel (−deg v, then +deg v back from the negative
    exponent) cancel, so both sides count the remaining variables at target
    degree n.  Works for either variable block; the name keeps the degree-1
    case, the main one, in front.
    """
    ctx = module.context
    h1 = h0 = DimValue(0)
    for pattern in module.patterns():
        dim = module.pattern_dim(pattern)
        if v in pattern:
            ker = dim - module.crossing_rank(pattern, v)
            if ker:
                h1 = h1 + _remaining_count(ctx, v, pattern - {v}, n).scaled(ker)
        else:
            coker = dim - module.crossing_rank(pattern | {v}, v)
            if coker:
                h0 = h0 + _remaining_count(ctx, v, pattern, n).scaled(coker)
    return h1, h0


def derham_homology(module, v, n):
    """(dim H1, dim H0) of the derivative along v at coarse degree n.

    Kernels are whole pieces on the wall α_v = 0 (coarse n+1, per
    KoszulConvention), cokernels whole pieces on the wall α_v = −1 at
    coarse n; both remainders sit at coarse degree n+1 after removing v.
    """
    ctx = module.context
    if v not in ctx.x_indices:
        raise ValueError("derivatives are only taken in degree-1 variables")
    h1 = h0 = DimValue(0)
    for pattern in module.patterns():
        dim = module.pattern_dim(pattern)
        if v in pattern:
            h0 = h0 + _remaining_count(ctx, v, pattern - {v}, n + 1).scaled(dim)
        else:
            h1 = h1 + _remaining_count(ctx, v, pattern, n + 1).scaled(dim)
    return h1, h0


def four_term_check(module, v, kind, n):
    """Alternating-sum check of the four-term sequence at degree n.

    For kind "mult": 0 → H1(v)_n → M_{n−deg v} → M_n → H0(v)_n → 0.
    For kind "derham": 0 → H1(∂v)_n → M_{n+1} → M_n → H0(∂v)_n → 0.
    Returns True/False, or None (skip) when any of the four dimensions is
    infinite.
    """
    ctx = module.context
    if kind == "mult":
        h1, h0 = koszul_homology_X(module, v, n)
        deg_v = 1 if v in ctx.x_indices else 0
        m_prev = module.coarse_dimension(n + KoszulConvention.MULT_SOURCE_OFFSET * deg_v)
    elif kind == "derham":
        h1, h0 = derham_homology(module, v, n)
        m_prev = module.coarse_dimension(n + KoszulConvention.DERHAM_SOURCE_OFFSET)
    else:
        raise ValueError(f"kind must be 'mult' or 'derham', not {kind!r}")
    m_here = module.coarse_dimension(n)
    dims = (h1, m_prev, m_here, h0)
    if any(x.is_infinite for x in dims):
        return None
    return h1.value - m_prev.value + m_here.value - h0.value == 0


# ---------------------------------------------------------------------------
# Y-corner socle
# ---------------------------------------------------------------------------


def koszul_homology_Y(ideal, i, n):
    """Dimension of the top Koszul homology in all degree-0 variables of
    the index-i cohomology module, at coarse degree n.

    Away from the all-(−1) corner some Y-transition is an isomorphism, so
    only corner multidegrees contribute; there the joint kernel is the
    nullspace of the stacked crossing matrices, weighted by the count of
    degree-1 exponent tails.
    """
    module = LocalCohomologyModule(ideal, i)
    ctx = module.context
    if ctx.d == 0:
        raise ValueError("no degree-0 variables to take Koszul homology in")
    y_all = ctx.y_indices
    total = DimValue(0)
    for pattern in module.patterns():
        if not y_all <= pattern:
            continue
        dim = module.pattern_dim(pattern)
        stacked = []
        for j in sorted(y_all):
            stacked.extend(module.mult_crossing(pattern, j))
        socle = dim - rank_fraction_rows(stacked)
        if socle:
            k = len(pattern & ctx.x_indices)
            total = total + x_lattice_count(ctx.m, k, n).scaled(socle)
    return total
