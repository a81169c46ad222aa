"""Span bookkeeping for the traced run: self times and per-layer metrics.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index
of the enclosing span in the same command's list (None for the root) and
``counts`` a dict of counters recorded at that boundary, or None.  The
command a span belongs to is the file it came from; ``aggregate`` takes
one list per command.
"""

from __future__ import annotations

NAME, START, END, PARENT, COUNTS = range(5)

# Per-layer time metrics: the self time of these spans, summed.
LAYER_TIMES = {
    "monocech.profile_s": ("monocech.cohomology_profile",),
    "monocech.slice_s": ("monocech.slice_complex", "monocech.slice_basis"),
    "monocech.normalize_s": ("monocech.normalize",),
    "monocech.query_s": (
        "monocech.pattern_report",
        "monocech.piece_nonzero",
        "monocech.piece_dimension",
        "monocech.strand_dimension",
        "monocech.hilbert_pair",
        "monocech.localize",
        "monocech.support_min_primes",
        "monocech.support_dim",
    ),
    "exactlin.rank_s": ("exactlin.rank",),
    "exactlin.solve_s": ("exactlin.solve_columns",),
    "exactlin.kernel_s": ("exactlin.kernel_basis",),
    "exactlin.frac_rank_s": ("exactlin.rank_fraction_rows",),
    "weylact.koszul_s": ("weylact.koszul_homology_X",),
    "weylact.derham_s": ("weylact.derham_homology",),
    "weylact.socle_s": ("weylact.koszul_homology_Y",),
    "weylact.euler_s": ("weylact.euler_eigencheck", "weylact.gen_eulerian_exponent"),
    "verify.oracle_s": ("verify.oracle_compare", "verify.window_oracle"),
    "verify.suite_s": (
        "verify.theorem_suite",
        "verify.run_golden_case",
        "verify.run_corpus",
        "verify.random_ideal",
    ),
    "cli.parse_s": ("cli.parse_spec", "cli.build_parser"),
    "cli.self_s": ("cli.main",),
}

ROOT = "cli.main"


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover (children are clipped to the parent)."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        inner = [(max(k[START], start), min(k[END], end)) for k in kids]
        out.append((end - start) - covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def _count(span, key):
    counts = span[COUNTS]
    return counts.get(key, 0) if counts else 0


def aggregate(commands):
    """Per-layer metrics over a pass, given one span list per command."""
    times = dict.fromkeys(LAYER_TIMES, 0.0)
    owner = {name: metric for metric, names in LAYER_TIMES.items() for name in names}
    counts = {
        "monocech.patterns_enumerated": 0,
        "useful": 0,
        "monocech.normalize_calls": 0,
        "exactlin.complexes": 0,
        "exactlin.complex_cells": 0,
        "exactlin.rank_calls": 0,
        "exactlin.rank_cells": 0,
        "exactlin.rank_max_cells": 0,
        "exactlin.solve_calls": 0,
        "verify.window_calls": 0,
    }
    main_s = 0.0
    for spans in commands:
        for span, self_s in zip(spans, self_times(spans)):
            name = span[NAME]
            if name in owner:
                times[owner[name]] += self_s
            if name == ROOT:
                main_s += span[END] - span[START]
            elif name == "monocech.cohomology_profile":
                counts["monocech.patterns_enumerated"] += _count(span, "cech_calls")
                counts["useful"] += _count(span, "cech_nonzero")
            elif name == "monocech.normalize":
                counts["monocech.normalize_calls"] += 1
            elif name == "exactlin.rank":
                cells = _count(span, "cells")
                counts["exactlin.rank_calls"] += 1
                counts["exactlin.rank_cells"] += cells
                counts["exactlin.rank_max_cells"] = max(counts["exactlin.rank_max_cells"], cells)
            elif name == "exactlin.solve_columns":
                counts["exactlin.solve_calls"] += 1
            counts["exactlin.complexes"] += _count(span, "complexes")
            counts["exactlin.complex_cells"] += _count(span, "complex_cells")
            counts["verify.window_calls"] += _count(span, "windows")
    useful = counts.pop("useful")
    enumerated = counts["monocech.patterns_enumerated"]
    counts["monocech.useful_pattern_ratio"] = useful / enumerated if enumerated else 0.0
    return {**times, **counts, "trace.main_s": main_s}
