"""Command-line surface: ideal-spec files, queries, and verification runs.

Spec files are JSON documents with exactly these three fields::

    {
      "deg0_vars": ["Y1", "Y2"],
      "deg1_vars": ["X1"],
      "generators": ["Y1*Y2", "Y1*X1"]
    }

Monomials follow the grammar ``term := VAR ("^" POSINT)?``,
``monomial := term ("*" term)*``; repeating a variable multiplies
(exponents add); every variable must be declared.  Parse errors carry
file, line and column, and exit with code 2.

Exit codes: 0 success, 1 verification failure, 2 bad input or usage,
141 when the reader closes standard output early (128 + SIGPIPE, as a
shell reports a writer that SIGPIPE killed).
JSON output (``--json``) is byte-stable for fixed input, carries a
``schema_version`` field, and renders infinite dimensions as the string
``"infinite"``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys

from .monocech import (
    InfiniteDimsError,
    MonomialIdeal,
    UnitIdealError,
    VariableContext,
    hilbert_pair,
    normalize,
    pattern_report,
    piece_dimension,
    strand_dimension,
    support_dim,
    support_min_primes,
)
from .verify import (
    VerificationReport,
    random_battery,
    run_corpus,
    theorem_suite,
)
from .weylact import LocalCohomologyModule, derham_homology, koszul_homology_X

SCHEMA_VERSION = 1


class CliError(Exception):
    """A user-facing failure with a fixed exit code (no traceback)."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# spec-file parsing
# ---------------------------------------------------------------------------

_SPEC_KEYS = frozenset({"deg0_vars", "deg1_vars", "generators"})
_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_POSINT_RE = re.compile(r"[1-9][0-9]*")


class _MonomialError(Exception):
    def __init__(self, offset, message):
        super().__init__(message)
        self.offset = offset
        self.message = message


def _parse_monomial(text, context):
    """Exponent tuple for one monomial string; offsets in errors are 0-based."""
    exps = [0] * context.nvars
    pos, end = 0, len(text)

    def skip_ws():
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    skip_ws()
    if pos == end:
        raise _MonomialError(pos, "empty monomial")
    while True:
        match = _VAR_RE.match(text, pos)
        if not match:
            raise _MonomialError(pos, "expected a variable name")
        name = match.group()
        try:
            v = context.index_of(name)
        except KeyError:
            raise _MonomialError(pos, f"undeclared variable {name!r}") from None
        pos = match.end()
        skip_ws()
        exponent = 1
        if pos < end and text[pos] == "^":
            pos += 1
            skip_ws()
            match = _POSINT_RE.match(text, pos)
            if not match:
                raise _MonomialError(pos, "expected a positive exponent after '^'")
            try:
                exponent = int(match.group())
            except ValueError:  # more digits than int() converts
                raise _MonomialError(pos, "exponent has too many digits") from None
            pos = match.end()
            skip_ws()
        exps[v] += exponent
        if pos == end:
            return tuple(exps)
        if text[pos] != "*":
            raise _MonomialError(pos, "expected '*' between factors")
        pos += 1
        skip_ws()
        if pos == end:
            raise _MonomialError(pos, "dangling '*'")


def _locate_generator(raw, k, gen_text):
    """(line, column) of generator k's opening quote in the raw file, or None
    when the key or the literal is not written as json.dumps writes it.

    Only the value of the last "generators" key is searched (the one the
    parser keeps), one string literal at a time, so an equal string
    elsewhere in the file is never taken for it.  In a file json.loads
    accepted with known keys only, a plain "generators" followed by a
    colon is that key, and its list holds strings only, so whitespace and
    one comma lie between two of them."""
    keys = list(re.finditer(r'"generators"\s*:\s*\[', raw))
    if not keys:
        return None
    decoder, end = json.JSONDecoder(), keys[-1].end()
    for _ in range(k + 1):
        at = re.compile(r"[\s,]*").match(raw, end).end()
        end = decoder.raw_decode(raw, at)[1]
    if raw[at:end] != json.dumps(gen_text):
        return None
    line = raw.count("\n", 0, at) + 1
    column = at - (raw.rfind("\n", 0, at) + 1) + 1
    return line, column


def _require_name_list(doc, key, path):
    if key not in doc:
        raise CliError(2, f"{path}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise CliError(2, f"{path}: field {key!r} must be a list of strings")
    for name in value:
        if not _VAR_RE.fullmatch(name):
            raise CliError(2, f"{path}: invalid variable name {name!r} in {key!r}")
    return value


def parse_spec(path):
    """Read and validate a spec file into a MonomialIdeal (exit code 2 on error)."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CliError(2, f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(2, f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(2, f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise CliError(2, f"{path}: JSON nested too deeply to read") from None
    except ValueError:  # an integer literal longer than int() converts
        raise CliError(2, f"{path}: a number has too many digits") from None
    if not isinstance(doc, dict):
        raise CliError(2, f"{path}: top level must be an object")
    unknown = sorted(set(doc) - _SPEC_KEYS)
    if unknown:
        raise CliError(
            2,
            f"{path}: unknown field(s) {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(sorted(_SPEC_KEYS))})",
        )
    deg0 = _require_name_list(doc, "deg0_vars", path)
    deg1 = _require_name_list(doc, "deg1_vars", path)
    if not deg1:
        raise CliError(2, f"{path}: deg1_vars must be nonempty (no degree-1 variables)")
    generators = doc.get("generators")
    if not isinstance(generators, list) or not all(isinstance(x, str) for x in generators):
        raise CliError(2, f"{path}: field 'generators' must be a list of strings")
    if not generators:
        raise CliError(2, f"{path}: generators must be nonempty")
    try:
        context = VariableContext(tuple(deg0), tuple(deg1))
    except ValueError as exc:
        raise CliError(2, f"{path}: {exc}") from None
    exponents = []
    for k, gen_text in enumerate(generators):
        try:
            exponents.append(_parse_monomial(gen_text, context))
        except _MonomialError as exc:
            where = _locate_generator(raw, k, gen_text)
            if where is not None:
                line, column = where
                prefix = f"{path}:{line}:{column + 1 + exc.offset}"
            else:
                prefix = f"{path}: generator {k + 1}, column {exc.offset + 1}"
            raise CliError(2, f"{prefix}: {exc.message}") from None
    try:
        return MonomialIdeal(context, exponents)
    except (UnitIdealError, ValueError) as exc:
        raise CliError(2, f"{path}: {exc}") from None


def emit_spec(ideal):
    """Canonical spec-file text for an ideal; parsing it back round-trips."""
    return json.dumps(ideal.spec_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# shared rendering
# ---------------------------------------------------------------------------


def _banner(ideal):
    ctx = ideal.context
    gens = ", ".join(ideal.render_generator(j) for j in range(len(ideal.generators)))
    ring = f"K[{','.join(ctx.deg0)}]" if ctx.deg0 else "K"
    return f"({gens}) in {ring}[{','.join(ctx.deg1)}]"


def _names(ctx, pattern):
    return [ctx.names[v] for v in sorted(pattern)]


def _emit(args, payload, ideal=None, human=None):
    if args.json:
        envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
        if ideal is not None:
            envelope["ideal"] = ideal.spec_dict()
        envelope.update(payload)
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        if ideal is not None:
            print(f"ideal: {_banner(ideal)}")
        for line in human or []:
            print(line)


def _poly_json(poly):
    return {
        "binomial_coeffs": [
            int(c) if c.denominator == 1 else str(c) for c in poly.coeffs
        ],
        "side": poly.side,
        "bound": poly.bound,
        "render": poly.render(),
    }


def _poly_human(poly):
    cmp = "<=" if poly.side == "le" else ">="
    return f"{poly.render()}  for n {cmp} {poly.bound}"


# ---------------------------------------------------------------------------
# flag plumbing
# ---------------------------------------------------------------------------

_RANGE_RE = re.compile(r"(-?\d+)(?:\.\.(-?\d+))?$")
MAX_DEGREES = 10_000  # most degrees one -n LO..HI may span
MAX_RANDOM = 10_000  # most ideals one verify --random N may check


def _parse_degrees(text):
    match = _RANGE_RE.fullmatch(text)
    if not match:
        raise CliError(2, f"bad degree {text!r} (use an integer or LO..HI)")
    try:
        lo = int(match.group(1))
        hi = lo if match.group(2) is None else int(match.group(2))
    except ValueError:  # more digits than int() converts
        raise CliError(2, "degree has too many digits") from None
    if lo > hi:
        raise CliError(2, f"empty degree range {text!r}")
    if hi - lo >= MAX_DEGREES:
        raise CliError(
            2, f"degree range {text!r} spans {hi - lo + 1} degrees; at most {MAX_DEGREES} allowed"
        )
    return list(range(lo, hi + 1))


def _parse_strand(text, ctx):
    if not re.fullmatch(r"-?\d+(,-?\d+)*", text):
        raise CliError(2, f"bad strand {text!r} (comma-separated integers)")
    try:
        strand = tuple(int(part) for part in text.split(","))
    except ValueError:  # more digits than int() converts
        raise CliError(2, "strand entry has too many digits") from None
    if len(strand) != ctx.d:
        raise CliError(2, f"strand needs {ctx.d} entries (one per degree-0 variable)")
    return strand


_VALUE_FLAGS = {"-n", "--degree", "--strand"}


def _absorb_negative_values(argv):
    """Merge negative values into their flags so argparse keeps them as values
    (supports ``-n -5``, ``-n -5..5`` and ``--strand -1,0``)."""
    out, k = [], 0
    while k < len(argv):
        token = argv[k]
        nxt = argv[k + 1] if k + 1 < len(argv) else None
        if token in _VALUE_FLAGS and nxt and len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
            out.append(token + nxt if not token.startswith("--") else f"{token}={nxt}")
            k += 2
        else:
            out.append(token)
            k += 1
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_pattern(args):
    ideal = parse_spec(args.spec)
    ctx = ideal.context
    if args.all:
        indices = list(range(len(normalize(ideal).supports) + 1))
    else:
        indices = [args.cohomdeg]
    rows, lines = [], []
    for i in indices:
        report = pattern_report(ideal, i)
        rows.append(
            {
                "i": i,
                "shape": report.shape.value,
                "degrees": report.describe(),
                "contributors": [
                    {"pattern": _names(ctx, c.pattern), "rank": c.rank, "k": c.k}
                    for c in report.contributors
                ],
            }
        )
        detail = "; ".join(
            f"pattern {{{','.join(_names(ctx, c.pattern))}}} rank {c.rank}"
            for c in report.contributors
        )
        lines.append(f"i={i}: {report.describe()}" + (f"   [{detail}]" if detail else ""))
    _emit(args, {"patterns": rows}, ideal, lines)
    return 0


def cmd_dim(args):
    ideal = parse_spec(args.spec)
    ctx = ideal.context
    degrees = _parse_degrees(args.degree)
    if ctx.d >= 1 and args.strand is None:
        raise CliError(
            2,
            "degree-0 variables present: pick a strand with "
            "--strand (K-dimensions are taken at a fixed degree-0 multidegree)",
        )
    if ctx.d == 0 and args.strand is not None:
        raise CliError(2, "--strand needs degree-0 variables")
    payload = {"cohomdeg": args.cohomdeg}
    if args.strand is not None:
        strand = _parse_strand(args.strand, ctx)
        payload["strand"] = list(strand)
        values = [strand_dimension(ideal, args.cohomdeg, strand, n) for n in degrees]
    else:
        values = [piece_dimension(ideal, args.cohomdeg, n) for n in degrees]
    payload["dims"] = [
        {"n": n, "dim": value.to_json()} for n, value in zip(degrees, values)
    ]
    lines = [f"i={args.cohomdeg} n={n}: {value.to_json()}" for n, value in zip(degrees, values)]
    _emit(args, payload, ideal, lines)
    return 0


def cmd_hilbert(args):
    ideal = parse_spec(args.spec)
    if ideal.context.d != 0:
        raise CliError(
            2, "growth polynomials need d = 0 (dimensions are modules otherwise)"
        )
    try:
        f, g = hilbert_pair(ideal, args.cohomdeg)
    except InfiniteDimsError as exc:
        _emit(
            args,
            {"cohomdeg": args.cohomdeg, "infinite": True, "reason": str(exc)},
            ideal,
            [f"i={args.cohomdeg}: no finite growth polynomials ({exc})"],
        )
        return 0
    _emit(
        args,
        {"cohomdeg": args.cohomdeg, "f": _poly_json(f), "g": _poly_json(g)},
        ideal,
        [f"f: {_poly_human(f)}", f"g: {_poly_human(g)}"],
    )
    return 0


def _render_prime(ctx, prime):
    return "(" + (",".join(_names(ctx, prime)) or "0") + ")"


def cmd_support(args):
    ideal = parse_spec(args.spec)
    ctx = ideal.context
    rows, lines = [], []
    for n in _parse_degrees(args.degree):
        primes = sorted(tuple(sorted(t)) for t in support_min_primes(ideal, args.cohomdeg, n))
        dim = support_dim(ideal, args.cohomdeg, n)
        rows.append(
            {
                "n": n,
                "min_primes": [_names(ctx, t) for t in primes],
                "support_dim": dim,
            }
        )
        if primes:
            shown = ", ".join(_render_prime(ctx, t) for t in primes)
            lines.append(f"i={args.cohomdeg} n={n}: primes {shown}; dim {dim}")
        else:
            lines.append(f"i={args.cohomdeg} n={n}: zero piece; dim {dim}")
    _emit(args, {"cohomdeg": args.cohomdeg, "supports": rows}, ideal, lines)
    return 0


def cmd_koszul(args):
    ideal = parse_spec(args.spec)
    ctx = ideal.context
    try:
        v = ctx.index_of(args.var)
    except KeyError as exc:
        raise CliError(2, exc.args[0]) from None
    if args.kind == "derham" and v not in ctx.x_indices:
        raise CliError(2, "derivatives are only taken in degree-1 variables")
    degrees = _parse_degrees(args.degree)
    module = LocalCohomologyModule(ideal, args.cohomdeg)
    homology = koszul_homology_X if args.kind == "mult" else derham_homology
    rows, lines = [], []
    for n in degrees:
        h1, h0 = homology(module, v, n)
        rows.append({"n": n, "h1": h1.to_json(), "h0": h0.to_json()})
        lines.append(f"n={n}: H1={h1.to_json()} H0={h0.to_json()}")
    payload = {
        "cohomdeg": args.cohomdeg,
        "var": args.var,
        "kind": args.kind,
        "koszul": rows,
    }
    _emit(args, payload, ideal, lines)
    return 0


def cmd_verify(args):
    chosen = [x for x in (args.spec, "corpus" if args.corpus else None, args.random) if x is not None]
    if len(chosen) != 1:
        raise CliError(2, "pick exactly one of: a spec file, --corpus, or --random N")
    if args.seed is not None and args.random is None:
        raise CliError(2, "--seed only applies to --random N")
    ideal = None
    if args.corpus:
        report = run_corpus()
    elif args.random is not None:
        if args.random < 1:
            raise CliError(2, "--random needs a positive count")
        if args.random > MAX_RANDOM:
            raise CliError(2, f"--random {args.random} is too many ideals; at most {MAX_RANDOM} allowed")
        report = VerificationReport()
        for member in random_battery(count=args.random, seed=args.seed or 0):
            report.extend(theorem_suite(member))
    else:
        ideal = parse_spec(args.spec)
        report = theorem_suite(ideal)
    lines = []
    for result in report.results:
        lines.append(f"[{result.status.upper():4}] {result.name} — {result.statement}")
        if result.status == "fail" and result.witness is not None:
            lines.append(f"       witness: {json.dumps(result.witness, sort_keys=True)}")
    counts = report.counts()
    lines.append(f"passed: {counts['pass']}  failed: {counts['fail']}  skipped: {counts['skip']}")
    _emit(args, {"report": report.to_json()}, ideal, lines)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_cohomdeg(sub):
    sub.add_argument("-i", "--cohomdeg", type=int, required=True, metavar="I",
                     help="cohomological index")


def _add_degree(sub):
    sub.add_argument("-n", "--degree", required=True, metavar="N",
                     help="coarse degree, or inclusive range LO..HI")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lclab",
        description="Exact graded pieces of monomial local cohomology.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_text, spec="required"):
        sub = commands.add_parser(name, help=help_text)
        if spec == "required":
            sub.add_argument("spec", help="ideal spec file (JSON)")
        elif spec == "optional":
            sub.add_argument("spec", nargs="?", help="ideal spec file (JSON)")
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        return sub

    sub = subcommand("pattern", "nonvanishing shape and contributors per index")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-i", "--cohomdeg", type=int, metavar="I", help="one index")
    group.add_argument("--all", action="store_true", help="every index up to the generator count")

    sub = subcommand("dim", "exact piece dimensions at given degrees")
    _add_cohomdeg(sub)
    _add_degree(sub)
    sub.add_argument("--strand", metavar="A,B,...",
                     help="fixed degree-0 multidegree (required when deg0_vars is nonempty)")

    sub = subcommand("hilbert", "growth polynomials for the two tails (d = 0)")
    _add_cohomdeg(sub)

    sub = subcommand("support", "minimal support primes and support dimension")
    _add_cohomdeg(sub)
    _add_degree(sub)

    sub = subcommand("koszul", "multiplication / derivative homology at given degrees")
    _add_cohomdeg(sub)
    _add_degree(sub)
    sub.add_argument("--var", required=True, metavar="NAME", help="variable to act by")
    sub.add_argument("--kind", required=True, choices=("mult", "derham"),
                     help="act by multiplication or by the derivative")

    sub = subcommand("verify", "structural checks on a spec, the corpus, or random ideals",
                     spec="optional")
    sub.add_argument("--corpus", action="store_true", help="run the built-in worked examples")
    sub.add_argument("--random", type=int, metavar="N", help="check N seeded random ideals")
    sub.add_argument("--seed", type=int, metavar="S", help="seed for --random (default 0)")

    return parser


_DISPATCH = {
    "pattern": cmd_pattern,
    "dim": cmd_dim,
    "hilbert": cmd_hilbert,
    "support": cmd_support,
    "koszul": cmd_koszul,
    "verify": cmd_verify,
}


def main(argv=None):
    argv = _absorb_negative_values(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        # flushed here, so that a closed stdout fails inside the try and not
        # at interpreter exit
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"lclab: {exc.message}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull when
        # the interpreter flushes at exit
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # a stdout with no file descriptor
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141


def run():
    """Console entry point: exit with :func:`main`'s code.

    The heap is frozen on the way out, so the collections at interpreter
    exit skip the objects the command made instead of walking them all;
    ``atexit`` hooks still run.  :func:`main` itself does not freeze: a
    caller that goes on running would keep its cyclic garbage for good.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()
