"""Write bench/references.json: output digests of the fixed-instance commands.

    python3 bench/capture_references.py

Run it on the commit whose answers are the reference (the seed commit of
the benchmark).  Seeded commands are skipped: check.py validates those
on every run instead.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run


def main():
    env = run.child_env()
    workdir = run.OUT / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    references = {}
    try:
        for build in run.WORKLOADS.values():
            for cmd in build(*run.write_specs(workdir / "specs", "0/0"), "0/0"):
                if cmd.ref is None or cmd.ref in references:
                    continue
                _, code, stdout, _ = run.execute([sys.executable, "-m", "lclab", *cmd.argv], env, workdir, 600)
                if code != 0:
                    raise SystemExit(f"{cmd.ref}: exit code {code}")
                references[cmd.ref] = check.digest(stdout)
                print(cmd.ref, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.BENCH / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(references)} references -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
