"""Spec-file generator for the lclab benchmark.

Edge ideals of graphs: one generator ``A*B`` per edge.  Vertices chosen
as degree-0 variables are named Y1..Yd in vertex order, the others
X1..Xm.  Fixed instances (cycles C_n, complete graphs K_n) do not depend
on the seed; seeded instances (which cycle vertices are degree-0, random
graphs) come from ``random.Random`` keyed by the seed and a tag, so the
same seed always writes the same files.

    python3 bench/instances.py --seed 7 --out bench/.out/specs
"""

from __future__ import annotations

import argparse
import json
import random
from itertools import combinations
from pathlib import Path


def cycle_edges(n):
    return [(v, (v + 1) % n) for v in range(n)]


def complete_edges(n):
    return list(combinations(range(n), 2))


def edge_spec(nvertices, edges, deg0=()):
    """Spec dict of the edge ideal; ``deg0`` lists the degree-0 vertices.

    Factors are written in variable order (Y block first), the way lclab
    echoes an ideal back, so a command's ``ideal`` field equals the spec.
    """
    y_vertices = sorted(set(deg0))
    x_vertices = [v for v in range(nvertices) if v not in y_vertices]
    order = y_vertices + x_vertices
    names = {v: f"Y{j + 1}" for j, v in enumerate(y_vertices)}
    names.update({v: f"X{j + 1}" for j, v in enumerate(x_vertices)})
    return {
        "deg0_vars": [names[v] for v in y_vertices],
        "deg1_vars": [names[v] for v in x_vertices],
        "generators": [
            "*".join(names[v] for v in sorted(edge, key=order.index)) for edge in edges
        ],
    }


def seeded_rng(seed, tag):
    return random.Random(f"lclab-bench:{seed}:{tag}")


def cycle_with_deg0(n, d, seed, tag):
    """C_n with ``d`` seeded vertices made degree-0."""
    rng = seeded_rng(seed, tag)
    return edge_spec(n, cycle_edges(n), rng.sample(range(n), d))


def random_graph(seed, tag, n, edges=7):
    """Seeded graph on ``n`` vertices with exactly ``edges`` edges and no
    isolated vertex (d = 0).

    Edge and vertex counts are fixed because cost grows about 8x per
    generator and 2x per variable; the seed only moves which edges.
    """
    rng = seeded_rng(seed, tag)
    pool = complete_edges(n)
    while True:
        chosen = sorted(rng.sample(pool, edges))
        if len({v for edge in chosen for v in edge}) == n:
            return edge_spec(n, chosen)


def write_spec(spec, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return path


def fixed_specs():
    """Seed-independent instances by file stem."""
    out = {}
    for n in range(6, 10):
        out[f"C{n}"] = edge_spec(n, cycle_edges(n))
    for n in (4, 5):
        out[f"K{n}"] = edge_spec(n, complete_edges(n))
    out["C7-d2"] = edge_spec(7, cycle_edges(7), deg0=(0, 3))
    return out


def seeded_specs(seed):
    """Seed-dependent instances by file stem: C7 once and C8 three times
    with two seeded degree-0 vertices, and one random graph on each of 6,
    7 and 8 vertices."""
    cycles = (("C7-y2", 7), ("C8-y2", 8), ("C8-y2b", 8), ("C8-y2c", 8))
    out = {stem: cycle_with_deg0(n, 2, seed, stem) for stem, n in cycles}
    for n in (6, 7, 8):
        out[f"G{n}"] = random_graph(seed, f"G{n}", n)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the spec files")
    args = parser.parse_args(argv)
    specs = {**fixed_specs(), **seeded_specs(args.seed)}
    for stem, spec in specs.items():
        print(write_spec(spec, Path(args.out) / f"{stem}.json"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
