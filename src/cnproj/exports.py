"""Deterministic DOT and JSON serialisations of quivers and reports.

Node ids are short content hashes of the canonical class serialisation, and
all vertex/edge listings are sorted, so repeated runs produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json

from .arquiver import ARQuiver, DerivedWindow

SCHEMA_VERSION = 1


def _class_hash(rep) -> str:
    return hashlib.sha1(repr(rep.serial_key()).encode()).hexdigest()[:12]


def _flags(q: ARQuiver, i: int) -> str:
    out = ""
    if q.en_projective[i]:
        out += "P"
    if q.en_injective[i]:
        out += "I"
    return out


def ar_quiver_to_dot(q: ARQuiver) -> str:
    reps = q.universe.representatives
    ids = {i: "c" + _class_hash(reps[i]) for i in range(len(reps))}
    order = sorted(range(len(reps)), key=lambda i: reps[i].serial_key())
    lines = ["digraph ar_quiver {", "  rankdir=LR;", "  node [shape=box];"]
    for i in order:
        label = reps[i].label()
        fl = _flags(q, i)
        if fl:
            label += f" [{fl}]"
        lines.append(f'  {ids[i]} [label="{label}"];')
    edges = sorted(((ids[i], ids[j], m) for (i, j), m in q.arrows.items()))
    for src, dst, m in edges:
        attr = f' [label="{m}"]' if m > 1 else ""
        lines.append(f"  {src} -> {dst}{attr};")
    taus = sorted((ids[z], ids[x]) for z, x in q.tau.items())
    for z, x in taus:
        lines.append(f"  {z} -> {x} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ar_quiver_payload(q: ARQuiver) -> dict:
    reps = q.universe.representatives
    order = sorted(range(len(reps)), key=lambda i: reps[i].serial_key())
    idx_of = {i: k for k, i in enumerate(order)}
    vertices = []
    for i in order:
        vertices.append({
            "id": "c" + _class_hash(reps[i]),
            "label": reps[i].label(),
            "cells": [sorted(c) for c in reps[i].cells],
            "enProjective": q.en_projective[i],
            "enInjective": q.en_injective[i],
            "projInjective": q.proj_injective[i],
        })
    arrows = sorted(
        ({"source": idx_of[i], "target": idx_of[j], "multiplicity": m}
         for (i, j), m in q.arrows.items()),
        key=lambda a: (a["source"], a["target"]))
    conflations = sorted(
        ({"x": idx_of[c.x_idx], "z": idx_of[c.z_idx],
          "middle": sorted(idx_of[s] for s in c.y_summands),
          "certified": c.certified}
         for c in q.conflations.values()),
        key=lambda c: c["z"])
    tau = sorted(({"from": idx_of[z], "to": idx_of[x]} for z, x in q.tau.items()),
                 key=lambda t: t["from"])
    return {
        "window": q.window,
        "closed": q.universe.closed,
        "vertices": vertices,
        "arrows": arrows,
        "conflations": conflations,
        "tau": tau,
    }


def derived_window_to_dot(dw: DerivedWindow) -> str:
    q = dw.gb.quiver
    reps = q.universe.representatives
    lines = ["digraph derived_window {", "  rankdir=LR;", "  node [shape=box];"]

    def vid(i, t):
        return f"c{_class_hash(reps[i])}_t{t}".replace("-", "m")

    for (i, t) in sorted(dw.vertices, key=lambda v: (v[1], reps[v[0]].serial_key())):
        lines.append(f'  {vid(i, t)} [label="({reps[i].label()}, {t})"];')
    for (a, b, m) in sorted(dw.arrows,
                            key=lambda e: (e[0][1], reps[e[0][0]].serial_key(),
                                           e[1][1], reps[e[1][0]].serial_key())):
        attr = f' [label="{m}"]' if m > 1 else ""
        lines.append(f"  {vid(*a)} -> {vid(*b)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def run_report(command: str, algebra_echo: dict, payload: dict, timing_ms: int,
               certified: bool) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "algebra": algebra_echo,
        "payload": payload,
        "timingMs": timing_ms,
        "certified": certified,
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
