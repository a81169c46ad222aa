"""Correctness checks for the benchmark's lclab commands.

Fixed instances are checked by the SHA-256 digest of their ``--json``
output against ``references.json`` (captured from the seed commit).
Seeded instances have no stored answer, so their outputs are checked
against each other and against ``lclab.verify.window_oracle``:

- ``pattern --all``: every reported contributor's rank equals the
  oracle's slice rank at one multidegree with exactly that sign
  pattern.  This is a consistency check only: the oracle still shares
  ``monocech._cech_dims`` with the engine.
- ``dim``, ``hilbert``, ``support`` (d = 0): recomputed from the
  oracle-checked contributors with the lattice-point counts.
- ``koszul``: the four-term sequence 0 -> H1 -> M_src -> M_n -> H0 -> 0
  wherever all four dimensions are finite.

Every check raises CheckError with a one-line reason.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


class CheckError(Exception):
    pass


def digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def ideal_from_spec(spec):
    from lclab.monocech import MonomialIdeal, VariableContext

    context = VariableContext(tuple(spec["deg0_vars"]), tuple(spec["deg1_vars"]))
    generators = []
    for text in spec["generators"]:
        exps = [0] * context.nvars
        for factor in text.split("*"):
            exps[context.index_of(factor)] += 1
        generators.append(exps)
    return MonomialIdeal(context, generators)


def _expect(ok, reason):
    if not ok:
        raise CheckError(reason)


def check_pattern(spec, payload):
    """Check ``pattern --all`` output; return {i: [(k, rank), ...]}."""
    from lclab.verify import window_oracle

    _expect(payload.get("ideal") == spec, "echoed ideal differs from the spec")
    ideal = ideal_from_spec(spec)
    names = ideal.context.names
    deg1 = set(spec["deg1_vars"])
    rows = payload["patterns"]
    _expect([row["i"] for row in rows] == list(range(len(rows))), "indices are not 0..top")
    contributors = {}
    for row in rows:
        i = row["i"]
        found = []
        for c in row["contributors"]:
            pattern = set(c["pattern"])
            _expect(c["k"] == len(pattern & deg1), f"i={i}: k disagrees with the pattern")
            alpha = [-1 if name in pattern else 0 for name in names]
            oracle = window_oracle(ideal, i, alpha)
            _expect(c["rank"] == oracle, f"i={i} {sorted(pattern)}: rank {c['rank']}, oracle {oracle}")
            found.append((c["k"], c["rank"]))
        _expect(row["shape"] == _shape(found, len(deg1)), f"i={i}: shape {row['shape']}")
        contributors[i] = found
    return contributors


def _shape(found, m):
    ks = {k for k, _rank in found}
    if any(0 < k < m for k in ks) or (m == 1 and ks == {0, 1}):
        return "AllZ"
    if ks == {0, m}:
        return "TwoTails"
    return {(0,): "NonnegOnly", (m,): "NegTailOnly", (): "Empty"}[tuple(ks)]


# lattice_count and _binom_ext restate lclab's x_lattice_count and
# binom_ext on purpose: a check should not run the code it checks.


def lattice_count(m, k, n):
    """Points of Z^m with a fixed set of k negative coordinates summing to
    n; None when infinite."""
    if k == 0:
        return math.comb(n + m - 1, m - 1) if n >= 0 else 0
    if k == m:
        return math.comb(-n - 1, m - 1) if n <= -m else 0
    return None


def coarse_dim(found, m, n):
    """Dimension at coarse degree n (d = 0) from (k, rank) contributors."""
    total = 0
    for k, rank in found:
        count = lattice_count(m, k, n)
        if count is None:
            return None
        total += count * rank
    return total


def _as_dim(value):
    _expect(value == "infinite" or (isinstance(value, int) and value >= 0), f"bad dimension {value!r}")
    return None if value == "infinite" else value


def check_dim(found, m, payload):
    for row in payload["dims"]:
        want = coarse_dim(found, m, row["n"])
        _expect(_as_dim(row["dim"]) == want, f"n={row['n']}: dim {row['dim']}, expected {want}")


def _binom_ext(a, k):
    if a >= 0:
        return math.comb(a, k)
    return (-1) ** k * math.comb(-a + k - 1, k)


def _evaluate(poly, n):
    coeffs = [Fraction(c) for c in poly["binomial_coeffs"]]
    return sum(c * _binom_ext(n + j, j) for j, c in enumerate(coeffs))


def check_hilbert(found, m, payload):
    if any(0 < k < m for k, _rank in found):
        _expect(payload.get("infinite") is True, "finite polynomials despite a mixed pattern")
        return
    for n in range(-m - 3, -m + 1):
        _expect(_evaluate(payload["f"], n) == coarse_dim(found, m, n), f"f({n}) is wrong")
    for n in range(0, 4):
        _expect(_evaluate(payload["g"], n) == coarse_dim(found, m, n), f"g({n}) is wrong")


def check_support(found, m, payload):
    """d = 0: the only candidate prime is (0), present iff the piece is nonzero."""
    for row in payload["supports"]:
        n = row["n"]
        active = any(lattice_count(m, k, n) != 0 for k, _rank in found)
        want = ([[]], 0) if active else ([], -1)
        _expect((row["min_primes"], row["support_dim"]) == want, f"n={n}: support {row}")


def check_koszul(found, m, payload):
    offset = -1 if payload["kind"] == "mult" else 1
    for row in payload["koszul"]:
        n = row["n"]
        h1, h0 = _as_dim(row["h1"]), _as_dim(row["h0"])
        source, here = coarse_dim(found, m, n + offset), coarse_dim(found, m, n)
        if source is not None:
            _expect(h1 is not None and h1 <= source, f"n={n}: H1 exceeds its source")
        if here is not None:
            _expect(h0 is not None and h0 <= here, f"n={n}: H0 exceeds its target")
        if None not in (h1, h0, source, here):
            _expect(h1 - source + here - h0 == 0, f"n={n}: four-term sum is not zero")


def check_verify(payload):
    report = payload["report"]
    _expect(report["passed"] is True and report["counts"]["fail"] == 0, f"verify failed: {report['counts']}")
