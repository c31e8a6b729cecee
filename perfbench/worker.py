"""One benchmark sample in a fresh process; prints one JSON line.

    python3 perfbench/worker.py MODE KIND ALG_FILE [SPANS_FILE]

MODE is ``setup`` (import and load only), ``sample`` (untraced timed call)
or ``trace`` (timed call under ``layertrace``).  KIND is ``sgldim`` or
``ar``.  ``setup_s`` covers ``import cnproj``, ``load_algebra`` and the
``build_algebra`` it performs; ``cpu_s`` and ``wall_s`` cover the library
call that produces the answer; ``peak_rss_mb`` is this process's
``ru_maxrss``.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    mode, kind, alg_path = argv[:3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    tracer = None
    t0 = time.perf_counter()
    from cnproj import algfile, arquiver, exports, sgldim
    if mode == "trace":
        import layertrace
        tracer = layertrace.LayerTrace()
        tracer.install()
    _, alg = algfile.load_algebra(alg_path)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if mode != "setup":
        import workloads
        c0, w0 = time.process_time(), time.perf_counter()
        result = workloads.run(kind, alg, (sgldim, arquiver, exports))
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
            out["counts"] = tracer.counts()
            out["self_s"] = tracer.self_times()
            tracer.write_spans(argv[3])
        out["fingerprint"] = workloads.fingerprint(kind, result)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
