#!/usr/bin/env python3
"""Regenerate the golden DOT files under tests/golden.

Run after an intentional change to canonical ordering or labels, then review
the diff before committing.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cnproj.algfile import load_algebra  # noqa: E402
from cnproj.arquiver import build_ar_quiver  # noqa: E402
from cnproj.exports import ar_quiver_to_dot  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
CASES = [
    ("point.alg", 2, "point_n2.dot"),
    ("a2.alg", 2, "a2_n2.dot"),
    ("a3_relation.alg", 2, "a3_n2.dot"),
    ("a6_relations.alg", 3, "a6_n3.dot"),
]


def main():
    golden = ROOT / "tests" / "golden"
    golden.mkdir(exist_ok=True)
    for alg_name, n, out_name in CASES:
        _, alg = load_algebra(str(ROOT / "tests" / "fixtures" / alg_name))
        q = build_ar_quiver(alg, n)
        (golden / out_name).write_text(ar_quiver_to_dot(q), encoding="utf-8")
        print(f"wrote {out_name}: {q.class_count()} classes, "
              f"{sum(q.arrows.values())} arrows")


if __name__ == "__main__":
    main()
