"""Run one lclab command in this process with a span at every layer boundary.

    python3 bench/tracer.py OUT.json pattern spec.json --all --json

Each listed public function is replaced by a timing wrapper in every
lclab module that binds it: the ``from``-imports bind copies (``cli``
from ``monocech``, ``weylact`` from ``exactlin``, ``verify`` from
``monocech``), and a copy left unwrapped would hide its calls.  A few
hot internals are wrapped as counters only: they add to the counts of
the innermost open span instead of opening one.  Spans stay in memory
and go to OUT.json when the command ends; stdout and the exit code are
the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spans import COUNTS, END

SRC = Path(__file__).resolve().parents[1] / "src"

# Home module -> functions timed as spans (named "module.function").
TIMED = {
    "cli": ("main", "parse_spec", "build_parser"),
    "monocech": (
        "normalize",
        "cohomology_profile",
        "pattern_report",
        "piece_nonzero",
        "piece_dimension",
        "strand_dimension",
        "hilbert_pair",
        "localize",
        "support_min_primes",
        "support_dim",
        "slice_complex",
        "slice_basis",
    ),
    "exactlin": ("rank", "kernel_basis", "solve_columns", "rank_fraction_rows"),
    "weylact": (
        "koszul_homology_X",
        "derham_homology",
        "koszul_homology_Y",
        "euler_eigencheck",
        "gen_eulerian_exponent",
    ),
    "verify": (
        "oracle_compare",
        "window_oracle",
        "theorem_suite",
        "run_golden_case",
        "run_corpus",
        "random_ideal",
    ),
}

# Cell counts read from the arguments at the boundary.
CELLS = {"exactlin.rank": lambda args: args[0].nrows * args[0].ncols}

# Home module -> {function: counts(args, result)} for counter-only wrappers.
COUNTED = {
    "monocech": {
        # one call per sign pattern a profile enumerates
        "_cech_dims": lambda args, dims: {"cech_calls": 1, "cech_nonzero": int(any(dims))},
    },
    "exactlin": {
        # one call per complex actually built (the _cech_dims cache missed)
        "cohomology_dims": lambda args, dims: {
            "complexes": 1,
            "complex_cells": sum(args[0].levels),
        },
    },
    "verify": {"_alive_by_divisibility": lambda args, alive: {"windows": 1}},
}


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def timed(self, name, fn, cells=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            counts = {"cells": cells(args)} if cells else None
            span = [name, clock(), None, stack[-1] if stack else None, counts]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def counted(self, fn, count):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            span = spans[stack[-1]]
            if span[COUNTS] is None:
                span[COUNTS] = {}
            for key, n in count(args, result).items():
                span[COUNTS][key] = span[COUNTS].get(key, 0) + n
            return result

        return wrapper


def install(tracer):
    """Swap every binding of each listed function for its wrapper."""
    modules = [m for name, m in sys.modules.items() if name == "lclab" or name.startswith("lclab.")]
    wrappers = []
    for home, names in TIMED.items():
        module = sys.modules[f"lclab.{home}"]
        for name in names:
            span = f"{home}.{name}"
            wrappers.append((getattr(module, name), tracer.timed(span, getattr(module, name), CELLS.get(span))))
    for home, table in COUNTED.items():
        module = sys.modules[f"lclab.{home}"]
        for name, count in table.items():
            wrappers.append((getattr(module, name), tracer.counted(getattr(module, name), count)))
    for original, wrapper in wrappers:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main(argv):
    out, command = argv[0], argv[1:]
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from lclab import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = None
    try:
        code = cli.main(command)
        return code
    finally:
        sys.stdout.flush()
        record = {"command": command, "import_s": import_s, "exit": code, "spans": tracer.spans}
        Path(out).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
