"""Command line front end.

Exit codes: 0 success, 1 usage or parse error, 2 resource or cap failure,
3 invariant failure (the check command).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import exports
from .algfile import load_algebra
from .arquiver import build_ar_quiver, derived_window, gamma_bar, require_characteristic_zero
from .checks import run_check_battery
from .errors import (
    AlgebraFileError,
    AmbiguousAnchor,
    CapExceeded,
    CnprojError,
    EtaZero,
    NoAnchorFound,
    NotClosed,
    SearchSpaceTooLarge,
)
from .sgldim import compute_sgldim, sgldim_fast


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cnproj", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sg = sub.add_parser("sgldim", help="strong global dimension by window growth")
    sg.add_argument("file")
    sg.add_argument("--max-n", type=int, default=16)
    sg.add_argument("--fast", action="store_true")
    sg.add_argument("--seedless", action="store_true",
                    help="accepted for interface stability; all runs are deterministic")

    aq = sub.add_parser("ar-quiver", help="Auslander-Reiten quiver of C_n")
    aq.add_argument("file")
    aq.add_argument("--n", type=int, required=True)
    aq.add_argument("--dot")
    aq.add_argument("--json")
    aq.add_argument("--seedless", action="store_true")

    dq = sub.add_parser("derived-quiver", help="window of the derived AR quiver")
    dq.add_argument("file")
    dq.add_argument("--t-min", type=int, default=-1)
    dq.add_argument("--t-max", type=int, default=1)
    dq.add_argument("--dot")
    dq.add_argument("--seedless", action="store_true")

    ck = sub.add_parser("check", help="invariant battery (CI entry point)")
    ck.add_argument("file")
    ck.add_argument("--n", type=int, required=True)
    ck.add_argument("--oracle", choices=("gf2", "gf3"))
    ck.add_argument("--bound", type=int, default=2)
    ck.add_argument("--seedless", action="store_true")
    return p


def _algebra_echo(model) -> dict:
    return {
        "vertices": list(model.vertices),
        "arrows": [list(a) for a in model.arrows],
        "relations": [list(r) for r in model.relations],
        "field": model.field,
    }


def cmd_sgldim(args) -> int:
    model, alg = load_algebra(args.file)
    if args.max_n < 2:  # the window loop starts at n = 2
        raise _UsageError("--max-n must be >= 2")
    t0 = time.monotonic()
    report = (sgldim_fast if args.fast else compute_sgldim)(alg, max_n=args.max_n)
    ms = int((time.monotonic() - t0) * 1000)
    print(f"algebra: {args.file} ({len(model.vertices)} vertices, "
          f"{len(model.arrows)} arrows, {len(model.relations)} relations, "
          f"field={model.field})")
    print("window  classes  violators")
    for n, count, viol in report.per_window:
        print(f"{n:>6}  {count:>7}  {viol:>9}")
    if not report.terminated:
        print(report.cap_note)
        print(f"time: {ms} ms")
        return 2
    print(f"s.gl.dim = {report.sgldim}; m0 = {report.m0}")
    print(f"witness: {report.witness_line()}")
    print(f"time: {ms} ms")
    return 0


def cmd_ar_quiver(args) -> int:
    model, alg = load_algebra(args.file)
    if args.n < 2:
        raise _UsageError("--n must be >= 2")
    t0 = time.monotonic()
    q = build_ar_quiver(alg, args.n)
    ms = int((time.monotonic() - t0) * 1000)
    print(f"AR quiver of C_{args.n}: {q.class_count()} classes, "
          f"{sum(q.arrows.values())} arrows, {len(q.conflations)} conflations "
          f"({ms} ms)")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(exports.ar_quiver_to_dot(q))
        print(f"dot: {args.dot}")
    if args.json:
        payload = exports.ar_quiver_payload(q)
        doc = exports.run_report("ar-quiver", _algebra_echo(model), payload, ms,
                                 q.universe.closed)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(exports.dump_json(doc))
        print(f"json: {args.json}")
    return 0


def cmd_derived_quiver(args) -> int:
    model, alg = load_algebra(args.file)
    if args.t_min > args.t_max:
        raise _UsageError("--t-min must be <= --t-max")
    require_characteristic_zero(alg)
    t0 = time.monotonic()
    report = compute_sgldim(alg)
    if not report.terminated:
        print(report.cap_note)
        return 2
    eta = report.sgldim
    if eta == 0:
        # semisimple fallback: the derived quiver is a discrete set of points
        print("EtaZero: semisimple case; the derived AR quiver is a disjoint "
              "union of translates of one point per simple:")
        for t in range(args.t_min, args.t_max + 1):
            for v in sorted(model.vertices):
                print(f"  (P{v}, {t})")
        return 2
    q = build_ar_quiver(alg, eta + 1, universe=report.universes.get(eta + 1))
    gb = gamma_bar(q)
    dw = derived_window(gb, args.t_min, args.t_max)
    ms = int((time.monotonic() - t0) * 1000)
    print(f"eta = {eta}; Gamma-bar has {gb.vertex_count()} classes; "
          f"window t in [{args.t_min}, {args.t_max}]: {len(dw.vertices)} vertices, "
          f"{len(dw.arrows)} arrows ({ms} ms)")
    for note in dw.notes:
        print(f"note: {note}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(exports.derived_window_to_dot(dw))
        print(f"dot: {args.dot}")
    return 0


def cmd_check(args) -> int:
    _, alg = load_algebra(args.file)
    if args.n < 2:
        raise _UsageError("--n must be >= 2")
    if args.bound < 1:  # no complex with at most 0 summands per cell is a class
        raise _UsageError("--bound must be >= 1")
    report = run_check_battery(alg, args.n, oracle=args.oracle, bound=args.bound)
    width = max(len(e.name) for e in report.entries)
    for e in report.entries:
        mark = "PASS" if e.ok else "FAIL"
        detail = f"  ({e.detail})" if e.detail else ""
        print(f"[{mark}] {e.name:<{width}}{detail}")
    return 0 if report.ok() else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sgldim":
            return cmd_sgldim(args)
        if args.command == "ar-quiver":
            return cmd_ar_quiver(args)
        if args.command == "derived-quiver":
            return cmd_derived_quiver(args)
        if args.command == "check":
            return cmd_check(args)
        raise _UsageError(f"unknown command {args.command}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AlgebraFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (CapExceeded, NotClosed, SearchSpaceTooLarge, NoAnchorFound,
            AmbiguousAnchor, EtaZero) as exc:
        print(f"resource/cap failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CnprojError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
