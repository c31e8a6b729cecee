#!/usr/bin/env python3
"""Run the cnproj benchmark on one checkout and write ``BENCH_<label>.json``.

    python3 scripts/bench.py --label LABEL [--root CHECKOUT]

For every workload of the checkout's ``BENCHMARK.json`` this runs the
checkout's ``perfbench/run.py`` twice at seed 0, for the benchmark's
``run_seconds``: ``--trace 0`` for the end-to-end rows (cpu_s, wall_s,
setup_s, peak_rss_mb) and ``--trace 1`` for the per-layer counts and self
times.  It writes ``BENCH_<label>.json`` to the top of this checkout.  The
file records the measured checkout's commit, whether its ``src/`` differs
from that commit, a sha256 of the ``src/cnproj`` sources and their line
count (``src_lines``), from which a change's net line count is read, and
``dont_write_bytecode``: ``sys.flags.dont_write_bytecode`` in a process
started as the runs are (PYTHONDONTWRITEBYTECODE reaches them; ``-B`` given
to this script does not).  When it is true, every worker compiles the
sources, so ``setup_s`` and ``peak_rss_mb`` grow with them.

A file is one run per workload: a trajectory point, not evidence of a gain.
Per-layer counts compare exactly across files; end-to-end rows do not, since
on a shared 2-vCPU machine the same run drifts by up to about 2x over
minutes.  A timing gain needs alternating parent/change runs of
``perfbench/run.py`` taken in one period.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]
SEED = 0  # perfbench's default, and the seed whose fingerprint includes the DOT sha256


def _git(root: pathlib.Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _sources(root: pathlib.Path) -> list[pathlib.Path]:
    return sorted((root / "src" / "cnproj").glob("*.py"))


def source_sha256(root: pathlib.Path) -> str:
    """sha256 over the relative paths and bytes of src/cnproj/*.py."""
    digest = hashlib.sha256()
    for path in _sources(root):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_lines(root: pathlib.Path) -> int:
    """Line count of src/cnproj/*.py, as ``wc -l`` counts it."""
    return sum(path.read_bytes().count(b"\n") for path in _sources(root))


def runs_write_no_bytecode() -> bool:
    """``sys.flags.dont_write_bytecode`` of a child started like the benchmark runs."""
    probe = "import sys; print(int(sys.flags.dont_write_bytecode))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    return proc.stdout.strip() == "1"


def run_benchmark(root: pathlib.Path, workload: str, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=pathlib.Path, default=HERE,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    rows = {}
    for name in (w["name"] for w in spec["workloads"]):
        timed = run_benchmark(root, name, seconds, trace=0)
        traced = run_benchmark(root, name, seconds, trace=1)
        attempted = timed["attempted"] + traced["attempted"]
        failed = timed["failed"] + traced["failed"]
        rows[name] = {
            "end_to_end": {k: v["value"] for k, v in timed["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "correct": timed["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
        }
    report = {
        "label": args.label,
        "commit": _git(root, "rev-parse", "HEAD"),
        "src_differs_from_commit": bool(_git(root, "status", "--porcelain", "--", "src")),
        "src_sha256": source_sha256(root),
        "src_lines": source_lines(root),
        "dont_write_bytecode": runs_write_no_bytecode(),
        "command": spec["command"],
        "seed": SEED,
        "seconds": seconds,
        "workloads": rows,
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
