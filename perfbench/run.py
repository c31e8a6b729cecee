#!/usr/bin/env python3
"""The cnproj benchmark.

    python3 perfbench/run.py --workload sgldim-a6-q --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/rationale.json``):
``sgldim-a6-q``, ``sgldim-a6-gf2`` and ``ar-a6-n5``.  The seed picks an
isomorphic relabelling of the a6 fixture (``workloads.generate``).

Every sample is a fresh single-threaded ``worker.py`` process, and samples
run one at a time.  With ``--trace 0`` the run first times ``SETUP_PROBES``
set-up-only processes, then takes samples for about ``--seconds``, and
reports medians of ``cpu_s``, ``wall_s``, ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` it takes one untraced
sample and two traced ones (``layertrace.py``), requires the two traced
samples to agree on every count, and reports the per-layer metrics.

Every sample's answer is checked against the unchanged engine's fingerprint;
a mismatch, an exception or a timeout counts as failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
TRACED_SAMPLES = 2
DEADLINE_S = 170.0      # every run must end within 180 s


class Run:
    """The samples of one benchmark run, with their failures."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.field, self.kind = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        with open(os.path.join(ROOT, workloads.FIXTURE), encoding="utf-8") as fh:
            text, self.perm = workloads.generate(fh.read(), self.field, seed)
        os.makedirs(WORK, exist_ok=True)
        self.alg_path = os.path.join(WORK, f"{workload}-s{seed}.alg")
        self.spans_stem = os.path.join(WORK, f"spans-{workload}-s{seed}")
        with open(self.alg_path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def child(self, mode: str, *extra: str, counted: bool = True) -> dict | None:
        """Run one worker process to completion; None if it failed."""
        self.attempted += counted
        cmd = [sys.executable, WORKER, mode, self.kind, self.alg_path, *extra]
        label = f"{mode} #{self.attempted}"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.failures.append(f"{label}: no time left before the deadline")
            return None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label}: killed at the {DEADLINE_S:.0f} s deadline")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.failures.append(f"{label}: exit {proc.returncode}: {' | '.join(tail)}")
            return None
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if "fingerprint" in res:
            bad = workloads.mismatches(self.kind, res["fingerprint"], self.perm, self.seed)
            if bad:
                self.failures.append(f"{label}: wrong answer: {'; '.join(bad)}")
                return None
        return res

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def tail_percentile(values):
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def report(name: str, unit: str, values) -> float:
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_txt = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile has 10 samples beyond it"
    print(f"  {name:<12} median {med:.6g} {unit}; {tail_txt}; n={len(values)}")
    return med


def untraced(run: Run, spec: dict) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        res = run.child("setup")
        if res:
            setups.append(res["setup_s"])
    samples, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        res = run.child("sample")
        durations.append(time.monotonic() - t0)
        if res:
            samples.append(res)
            setups.append(res["setup_s"])
            print(f"  sample {len(durations)}: cpu {res['cpu_s']:.3f} s, wall "
                  f"{res['wall_s']:.3f} s, setup {res['setup_s']:.4f} s, "
                  f"rss {res['peak_rss_mb']:.1f} MB")
        # start another sample only if it would end within half a sample of
        # the budget, so that a run's sample count does not flip with noise
        elapsed = time.monotonic() - start
        expected = statistics.median(durations)
        if elapsed + expected / 2 > run.seconds or expected > run.time_left():
            break
    if not samples:
        return {}
    values = {
        "cpu_s": [s["cpu_s"] for s in samples],
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": setups,
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    return {m["name"]: {"value": report(m["name"], m["unit"], values[m["name"]]),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]}


def traced(run: Run, spec: dict) -> dict:
    base = run.child("sample")
    runs = [run.child("trace", f"{run.spans_stem}-{k}.bin") for k in range(TRACED_SAMPLES)]
    if base is None or None in runs:
        return {}
    counts = runs[0]["counts"]
    for k, other in enumerate(runs[1:], start=2):
        diff = sorted(key for key in counts if other["counts"].get(key) != counts[key])
        if diff:
            run.failures.append(f"traced sample {k}: counts differ from sample 1: {diff}")
    values = dict(counts)
    for key in runs[0]["self_s"]:
        values[key] = statistics.median(r["self_s"][key] for r in runs)
    traced_cpu = statistics.median(r["cpu_s"] for r in runs)
    values["trace.overhead_frac"] = traced_cpu / base["cpu_s"] - 1
    print(f"  untraced cpu {base['cpu_s']:.3f} s; traced cpu "
          + ", ".join(f"{r['cpu_s']:.3f}" for r in runs) + " s; spans "
          f"{counts['trace.spans']} per traced sample, written to {run.spans_stem}-*.bin")
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for rel in ("src/cnproj/__init__.py", workloads.FIXTURE, "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            print(f"perfbench: {rel} is missing; run from a full cnproj checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    run = Run(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed {args.seed} ({run.perm.describe()}), "
          f"trace {args.trace}, {args.seconds} s")
    # compiles cnproj's bytecode on the first run in a checkout; not measured
    if run.child("setup", counted=False) is None:
        print(f"perfbench: cannot import cnproj: {run.failures[-1]}", file=sys.stderr)
        return 1
    metrics = traced(run, spec) if args.trace else untraced(run, spec)
    for msg in run.failures:
        print(f"  FAILED {msg}")
    print(f"  fail_frac    {len(run.failures)}/{run.attempted} = "
          f"{len(run.failures) / run.attempted:.3f} (failed runs / runs attempted)")
    if not metrics:
        print("perfbench: too few samples succeeded to report metrics", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
