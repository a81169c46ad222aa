"""lclab benchmark: real ``python -m lclab ... --json`` commands, timed from outside.

    python3 bench/run.py --workload pattern-edge --seed 1 --seconds 40 --trace 0

Every command runs in a fresh interpreter, one at a time: a closed loop
with one client.  That is what a CLI user waits for, and it keeps every
command cold, so no in-process cache carries over between commands.
The program is the checkout's own ``src/lclab``; child processes run
with ``LCLAB_THREADS`` unset and a fixed ``PYTHONHASHSEED``.

A run repeats passes of its workload while another pass still fits in
``--seconds`` (at least two passes).  Pass p draws its seeded instances
from (seed, p), so a run averages over several inputs; ``wall_s`` is
the mean pass wall time of the run.  Every output is checked (see
check.py).  The last line of stdout is the result JSON:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, per-layer
metrics from a traced pass (bench/tracer.py) next to an untraced pass of
the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import check
import instances
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
MODULES = ("cli", "monocech", "exactlin", "weylact", "verify")
SETUP_REPEATS = 11
HARD_LIMIT_S = 170.0  # the whole run, checks included, ends within this


@dataclass
class Command:
    """One lclab invocation: ``argv`` after ``python -m lclab``.

    ``ref`` keys the reference digest of a fixed instance; ``check``
    validates the parsed output of a seeded one.
    """

    argv: list
    ref: str = None
    check: object = None


@dataclass
class Result:
    latency: float
    code: int
    stdout: bytes
    maxrss_kb: int
    spans: list = None
    error: str = None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _fixed(path, label, *args):
    argv = [args[0], str(path), *args[1:]]
    return Command(argv, ref=" ".join([args[0], label, *args[1:]]))


def pattern_edge(fixed, seeded, seed):
    """``pattern --all`` on C6-C9 and K4-K5 (d = 0), then C7 once and C8
    three times with two seeded degree-0 vertices.

    The extra C8s put the median command inside the C8-sized group, not
    at its edge next to the sub-second commands, where it jumps.
    """
    commands = [_fixed(fixed[s], s, "pattern", "--all", "--json") for s in ("C6", "C7", "C8", "C9", "K4", "K5")]
    for stem in ("C7-y2", "C8-y2", "C8-y2b", "C8-y2c"):
        path, spec = seeded[stem]
        commands.append(
            Command(["pattern", str(path), "--all", "--json"], check=lambda p, spec=spec: check.check_pattern(spec, p))
        )
    return commands


# (case file, index, per-case queries): d = 0 cases also get hilbert
_CASES = (
    ("maximal-x2", 2, (("dim", "-n", "-4..4"), ("hilbert",), ("koszul", "-n", "-4..4", "--var", "X1", "--kind", "mult"))),
    ("free-line", 1, (("dim", "-n", "-4..4"), ("hilbert",), ("koszul", "-n", "-4..4", "--var", "X1", "--kind", "derham"))),
    ("mixed-pinch", 2, (("dim", "-n", "-4..4", "--strand", "-1,-1"), ("support", "-n", "-4..4"),
                        ("koszul", "-n", "-4..4", "--var", "Y1", "--kind", "mult"))),
    ("y-plane", 1, (("dim", "-n", "-4..4", "--strand", "-1"), ("support", "-n", "-4..4"),
                    ("koszul", "-n", "-4..4", "--var", "X1", "--kind", "derham"))),
    ("cross-tails", 2, (("dim", "-n", "-4..4", "--strand", "-1,-1"), ("support", "-n", "-4..4"),
                        ("koszul", "-n", "-4..4", "--var", "Y1", "--kind", "mult"))),
)

GRAPH_I = 4  # nonzero on most 7-edge graphs
GRAPH_QUERIES = (
    ("dim", check.check_dim, ("-n", "-5..5")),
    ("hilbert", check.check_hilbert, ()),
    ("support", check.check_support, ("-n", "-5..5")),
    ("koszul", check.check_koszul, ("-n", "-5..5", "--var", "X1", "--kind", "mult")),
    ("koszul", check.check_koszul, ("-n", "-5..5", "--var", "X1", "--kind", "derham")),
)


def query_walls(fixed, seeded, seed):
    """Wall-crossing and degree queries: C8 at i = 5, C7 with d = 2 at
    i = 4, every case file, and three seeded random graphs."""
    commands = []
    for kind in ("mult", "derham"):
        commands.append(_fixed(fixed["C8"], "C8", "koszul", "-i", "5", "-n", "-12..8", "--var", "X1", "--kind", kind, "--json"))
    c7 = fixed["C7-d2"]
    for args in (
        ("dim", "-n", "-6..6", "--strand", "-1,-1"),
        ("support", "-n", "-6..6"),
        ("koszul", "-n", "-6..6", "--var", "X1", "--kind", "mult"),
        ("koszul", "-n", "-6..6", "--var", "Y1", "--kind", "mult"),
        ("koszul", "-n", "-6..6", "--var", "X1", "--kind", "derham"),
    ):
        commands.append(_fixed(c7, "C7-d2", args[0], "-i", "4", *args[1:], "--json"))
    for name, i, queries in _CASES:
        path = Path("cases") / f"{name}.json"
        for args in queries:
            commands.append(_fixed(ROOT / path, str(path), args[0], "-i", str(i), *args[1:], "--json"))
    for stem in ("G6", "G7", "G8"):
        path, spec = seeded[stem]
        m = len(spec["deg1_vars"])
        found = {}

        def pattern_check(payload, spec=spec, found=found):
            found.update(check.check_pattern(spec, payload))

        def query_check(payload, fn, found=found, m=m):
            if GRAPH_I not in found:
                raise check.CheckError("the graph's pattern output did not check out")
            fn(found[GRAPH_I], m, payload)

        commands.append(Command(["pattern", str(path), "--all", "--json"], check=pattern_check))
        for sub, fn, args in GRAPH_QUERIES:
            commands.append(
                Command([sub, str(path), "-i", str(GRAPH_I), *args, "--json"],
                        check=lambda p, fn=fn, qc=query_check: qc(p, fn))
            )
    return commands


VERIFY_COUNT = 50
# 5-variable ideals by generator count, held fixed in every battery (see
# verify_seed); 2 each is near the mean of 50/6/5 = 1.7
VERIFY_HEAVY = {4: 2, 5: 2}


def verify_seed(rng):
    """The next derived seed whose ``verify --random 50`` battery holds
    exactly VERIFY_HEAVY 5-variable ideals with 4 and 5 generators.

    Those ideals carry the oracle's 5^5-point box over 16-32 generator
    subsets: a tenth of the ideals, about half the time (0.14 s and
    0.29 s each on a 2-vCPU VM, against 0.005-0.06 s for most others).
    Their count in a battery is roughly Poisson, which swung the time of
    a run by 6% (CV) between seeds; holding it fixed cuts that to about
    2% in a cost model.
    The draw looks only at the generated ideals, never at a timing.
    """
    from lclab.verify import random_battery

    while True:
        seed = rng.randrange(10**6)
        heavy = Counter(
            len(ideal.generators)
            for ideal in random_battery(count=VERIFY_COUNT, seed=seed)
            if ideal.context.nvars == 5
        )
        if all(heavy[g] == n for g, n in VERIFY_HEAVY.items()):
            return seed


def verify_random(fixed, seeded, seed):
    """Three ``verify --random 50`` commands with seeds derived from the
    benchmark seed and pass (see verify_seed), then ``verify --corpus``.

    A pass is short (about 6 s) so a run packs several of them and
    averages over more seeded ideals.
    """
    rng = random.Random(f"lclab-bench:{seed}:verify")
    commands = [
        Command(["verify", "--random", str(VERIFY_COUNT), "--seed", str(verify_seed(rng)), "--json"],
                check=check.check_verify)
        for _ in range(3)
    ]
    commands.append(Command(["verify", "--corpus", "--json"], ref="verify --corpus --json"))
    return commands


WORKLOADS = {"pattern-edge": pattern_edge, "query-walls": query_walls, "verify-random": verify_random}


def write_specs(workdir, seed):
    """Fixed spec paths by stem, and seeded (path, spec) pairs by stem."""
    fixed = {s: instances.write_spec(spec, workdir / f"{s}.json") for s, spec in instances.fixed_specs().items()}
    seeded = {
        s: (instances.write_spec(spec, workdir / f"{s}.json"), spec)
        for s, spec in instances.seeded_specs(seed).items()
    }
    return fixed, seeded


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env():
    """The caller's environment minus LCLAB_THREADS and every PYTHON*
    setting, so interpreter start-up (bytecode cache included) does not
    depend on who runs the benchmark."""
    env = {k: v for k, v in os.environ.items() if k != "LCLAB_THREADS" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def execute(argv, env, workdir, timeout):
    """Run one process to completion; stdout, exit code and peak RSS."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, proc.returncode, out_path.read_bytes(), usage.ru_maxrss


def run_pass(commands, env, workdir, deadline, traced):
    """Run every command once; past the deadline each is killed at once
    and fails on its exit code."""
    results = []
    start = time.perf_counter()
    for k, cmd in enumerate(commands):
        if traced:
            spans_path = workdir / f"spans-{k}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "lclab", *cmd.argv]
        latency, code, stdout, rss = execute(argv, env, workdir, deadline - time.perf_counter())
        result = Result(latency, code, stdout, rss)
        if traced and code == 0:
            result.spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        results.append(result)
    return time.perf_counter() - start, results


def check_results(commands, results, references):
    for cmd, res in zip(commands, results):
        try:
            if res.code != 0:
                raise check.CheckError(f"exit code {res.code}")
            if cmd.ref is not None:
                if check.digest(res.stdout) != references.get(cmd.ref):
                    raise check.CheckError("output digest differs from the reference")
            else:
                cmd.check(json.loads(res.stdout))
        except (check.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            res.error = f"{' '.join(cmd.argv)}: {exc}"


def measure_setup(env, workdir):
    """Median time for a fresh interpreter to import lclab (after one
    warm-up that also confirms the import comes from this checkout)."""
    code = "import lclab, sys; sys.stdout.write(lclab.__file__)"
    _, rc, stdout, _ = execute([sys.executable, "-c", code], env, workdir, 60)
    if rc != 0 or Path(stdout.decode()).resolve() != SRC / "lclab" / "__init__.py":
        raise SystemExit(f"bench: lclab does not import from {SRC}")
    times = [execute([sys.executable, "-c", "import lclab"], env, workdir, 60)[0] for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics and environment
# ---------------------------------------------------------------------------


def loc(path):
    """Non-blank lines that are not only a comment."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def environment():
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "lclab").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "loadavg": list(os.getloadavg()),
    }


def end_to_end(setup_s, walls, results):
    # wall_s is the mean pass: a shared 2-vCPU VM flips between a fast and
    # a slow speed (1.4-2x apart) for seconds to minutes, so a median of
    # a few passes jumps between the two while the mean moves smoothly
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
    }


def per_layer(traced_passes, overheads):
    layers = [spans.aggregate([r.spans for r in results if r.spans]) for results in traced_passes]
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (statistics.median(layer[name] for layer in layers), unit)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    for module in MODULES:
        metrics[f"{module}.loc"] = (loc(SRC / "lclab" / f"{module}.py"), "lines")
    return metrics


def shares(metrics):
    """Acceptance shares of the time spent inside ``cli.main``."""
    main = metrics["trace.main_s"][0] or 1.0

    def share(*names):
        return sum(metrics[n][0] for n in names) / main

    return {
        "profile+rank": share("monocech.profile_s", "exactlin.rank_s"),
        "solve+kernel": share("exactlin.solve_s", "exactlin.kernel_s"),
        "rank": share("exactlin.rank_s"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description="lclab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lclab" / "__init__.py").is_file():
        print(f"bench: no lclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    env = child_env()
    started = time.perf_counter()
    hard_deadline = started + HARD_LIMIT_S
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = measure_setup(env, workdir)
        build = WORKLOADS[args.workload]
        walls, all_results, traced_passes, overheads = [], [], [], []
        # two untraced passes at least, so wall_s is never a single pass;
        # a traced run pairs one untraced pass with one traced pass
        min_passes = 1 if args.trace else 2
        measure_start = time.perf_counter()
        longest = 0.0
        while True:
            group_start = time.perf_counter()
            pass_seed = f"{args.seed}/{len(walls)}"
            commands = build(*write_specs(workdir / "specs", pass_seed), pass_seed)
            wall, results = run_pass(commands, env, workdir, hard_deadline, traced=False)
            check_results(commands, results, references)
            walls.append(wall)
            all_results += results
            if args.trace:
                traced_wall, traced = run_pass(commands, env, workdir, hard_deadline, traced=True)
                check_results(commands, traced, references)
                all_results += traced
                traced_passes.append(traced)
                overheads.append(traced_wall - wall)
            now = time.perf_counter()
            longest = max(longest, now - group_start)
            if now + longest > hard_deadline:
                break
            if len(walls) >= min_passes and now - measure_start + longest > args.seconds:
                break

        failures = [r.error for r in all_results if r.error]
        attempted = len(all_results)
        if args.trace:
            metrics = per_layer(traced_passes, overheads)
            last = traced_passes[-1]
            trace_file = OUT / f"spans-{args.workload}-{args.seed}.json"
            trace_file.write_text(
                json.dumps({"commands": [{"command": c.argv, "spans": r.spans} for c, r in zip(commands, last)]}),
                encoding="utf-8",
            )
        else:
            metrics = end_to_end(setup_s, walls, all_results)
        info = environment()
        info.update(
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            passes=len(walls),
            commands_per_pass=len(commands),
            fail_ratio=len(failures) / attempted,
            # printed, not gated: single ~1 s commands are bimodal on a
            # shared host, so a median of a few of them jumps between modes
            cmd_p50_s=statistics.median(r.latency for r in all_results),
        )
        if args.trace:
            info["shares_of_main"] = shares(metrics)
        for error in failures[:10]:
            print(f"FAIL {error}")
        print("env " + json.dumps(info, sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(
                {
                    "env": info,
                    "result": result,
                    "failures": failures,
                    "pass_walls": walls,
                    "latencies": [round(r.latency, 4) for r in all_results],
                },
                indent=1,
            ),
            encoding="utf-8",
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
