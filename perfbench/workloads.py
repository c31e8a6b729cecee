"""The benchmark's workloads: seeded inputs, the timed library call, and the
fingerprint each run must reproduce.

Every workload starts from the six-vertex worked example
``tests/fixtures/a6_relations.alg``.  Seed 0 is the fixture as written; any
other seed renames the vertex ids and the arrow names by a permutation drawn
from ``random.Random(seed)``, which gives an isomorphic algebra.  Only the
generated algebra file reaches cnproj.

The expected values below were produced by the unchanged engine.  Values
that do not depend on the labels are checked for every seed; the witness is
checked after mapping it back to the fixture's labels, and the DOT bytes are
checked at seed 0 only (node ids hash the labels).
"""

from __future__ import annotations

import hashlib
import random

FIXTURE = "tests/fixtures/a6_relations.alg"

SGLDIM_EXPECTED = {
    "sgldim": 4,
    "m0": 6,
    "table": [[2, 24, 6], [3, 47, 5], [4, 73, 3], [5, 100, 1], [6, 127, 0]],
    "terminated": True,
    "cap_note": None,
    "all_closed": True,
    # support cells of the witness P6 -> P5 -> P3 -> P2 -> P1
    "witness": [[6], [5], [3], [2], [1]],
}

AR_EXPECTED = {
    "classes": 100,
    "arrows": 165,
    "conflations": 70,
    "multiplicities": [1] * 165,      # every arrow of Gamma has multiplicity 1
    "all_certified": True,
    "closed": True,
    "dot_lines": 339,
    "payload_sizes": [100, 165, 70, 70],
}
AR_DOT_SHA256_SEED0 = "4d564e56cdedd41e964ee8ee719fbb03e6ea67009413d8016cf1a2247c65715c"


# workload name -> (field of the generated algebra, timed call)
WORKLOADS = {
    "sgldim-a6-q": ("rational", "sgldim"),
    "sgldim-a6-gf2": ("gf2", "sgldim"),
    "ar-a6-n5": ("rational", "ar"),
}


class Relabelling:
    """A seeded renaming of vertex ids and arrow names; seed 0 is the identity."""

    def __init__(self, vertices, arrows, seed: int):
        vertices = list(vertices)
        arrows = list(arrows)
        if seed == 0:
            self.vertex = {v: v for v in vertices}
            self.arrow = {a: a for a in arrows}
        else:
            rng = random.Random(seed)
            self.vertex = dict(zip(vertices, rng.sample(vertices, len(vertices))))
            self.arrow = dict(zip(arrows, rng.sample(arrows, len(arrows))))
        self.vertex_back = {new: old for old, new in self.vertex.items()}

    def describe(self) -> str:
        vs = " ".join(f"{a}>{b}" for a, b in self.vertex.items())
        arrows = " ".join(f"{a}>{b}" for a, b in self.arrow.items())
        return f"vertices {vs}; arrows {arrows}"


def generate(fixture_text: str, field: str, seed: int) -> tuple[str, Relabelling]:
    """The fixture renamed by the seed's permutation, with ``field`` set."""
    vertices, arrows = [], []
    for raw in fixture_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key, _, rest = line.partition(":")
        if key.strip() == "vertices":
            vertices = [int(tok) for tok in rest.split()]
        elif key.startswith("arrow "):
            arrows.append(key[len("arrow "):].strip())
    perm = Relabelling(vertices, arrows, seed)
    out = []
    for raw in fixture_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key, _, rest = line.partition(":")
        key = key.strip()
        if not line:
            out.append(raw)
        elif key == "vertices":
            out.append("vertices: " + " ".join(str(perm.vertex[int(t)]) for t in rest.split()))
        elif key.startswith("arrow "):
            name = key[len("arrow "):].strip()
            src, dst = (int(t) for t in rest.split("->"))
            out.append(f"arrow {perm.arrow[name]}: {perm.vertex[src]} -> {perm.vertex[dst]}")
        elif key == "relation":
            out.append("relation: " + " ".join(perm.arrow[t] for t in rest.split()))
        elif key == "field":
            continue
        else:
            raise ValueError(f"unexpected fixture line {raw!r}")
    out.append(f"field: {field}")
    return "\n".join(out) + "\n", perm


def run(kind: str, alg, cnproj_modules) -> object:
    """The timed library call.  Module attributes are read at call time so
    that a tracer's replacement bindings are used."""
    sgldim, arquiver, exports = cnproj_modules
    if kind == "sgldim":
        return sgldim.compute_sgldim(alg)
    q = arquiver.build_ar_quiver(alg, 5)
    return q, exports.ar_quiver_to_dot(q), exports.ar_quiver_payload(q)


def fingerprint(kind: str, result) -> dict:
    """Label-free summary of a result, plus the labelled parts as recorded."""
    if kind == "sgldim":
        w = result.witness
        witness = None
        if w is not None:
            sup = w.support()
            witness = [sorted(c) for c in w.cells[sup[0] - 1:sup[1]]]
        return {
            "sgldim": result.sgldim,
            "m0": result.m0,
            "table": [list(row) for row in result.per_window],
            "terminated": result.terminated,
            "cap_note": result.cap_note,
            "all_closed": all(u.closed for u in result.universes.values()),
            "witness": witness,
        }
    q, dot, payload = result
    return {
        "classes": q.class_count(),
        "arrows": sum(q.arrows.values()),
        "conflations": len(q.conflations),
        "multiplicities": sorted(q.arrows.values()),
        "all_certified": all(c.certified for c in q.conflations.values()),
        "closed": q.universe.closed,
        "dot_lines": dot.count("\n"),
        "payload_sizes": [len(payload["vertices"]), len(payload["arrows"]),
                          len(payload["conflations"]), len(payload["tau"])],
        "dot_sha256": hashlib.sha256(dot.encode()).hexdigest(),
    }


def mismatches(kind: str, fp: dict, perm: Relabelling, seed: int) -> list[str]:
    """Differences between a fingerprint and the unchanged engine's values."""
    got = dict(fp)
    if kind == "sgldim":
        expected = SGLDIM_EXPECTED
        if got["witness"] is not None:
            got["witness"] = [sorted(perm.vertex_back[v] for v in c) for c in got["witness"]]
    else:
        expected = dict(AR_EXPECTED)
        sha = got.pop("dot_sha256")
        if seed == 0:
            expected["dot_sha256"] = AR_DOT_SHA256_SEED0
            got["dot_sha256"] = sha
    return [f"{k}: got {got.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if got.get(k) != v]
