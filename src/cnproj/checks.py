"""The invariant battery behind the check command (the CI entry point)."""

from __future__ import annotations

from dataclasses import dataclass

from .arquiver import (
    build_ar_quiver,
    check_window_stability,
    classify_irreducible_components,
    gamma_bar,
    is_left_almost_split,
    is_right_almost_split,
    is_right_minimal,
    require_characteristic_zero,
)
from .complexes import compose, mat_is_zero, mat_mul, shift_window, strip_contractible
from .errors import EtaZero, NoAnchorFound, ShapeViolation
from .homspaces import decompose_with_maps
from .sgldim import compute_sgldim
from .universe import (
    _ShapeRegistry,
    brute_force_indecomposables,
    enumerate_indecomposables,
    pair_cones,
)


@dataclass
class CheckEntry:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CheckReport:
    entries: list

    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def d_squared_entry(universe) -> CheckEntry:
    """Re-verify d^2 = 0 on every representative (guards against corruption)."""
    bad = []
    for rep in universe.representatives:
        for i in range(rep.window - 2):
            prod = mat_mul(rep.alg, rep.diffs[i + 1], rep.diffs[i],
                           rep.cells[i + 2], rep.cells[i + 1], rep.cells[i])
            if not mat_is_zero(prod):
                bad.append(rep.label())
                break
    return CheckEntry("d^2 = 0 on all classes", not bad, ", ".join(bad[:4]))


def split_closure_entry(universe) -> CheckEntry:
    """The enumeration keeps only the indecomposable cones of the pair rule.
    Here every cone of every ``Universe.key`` is split by Krull-Schmidt
    (``decompose_with_maps``), and each summand must be a class already: the
    closure under the full split rule adds nothing.  Failures name the
    missing summands up to isomorphism, moved to support 1..w."""
    n, keys, cones, missing = universe.window, set(), 0, _ShapeRegistry()
    for i in range(len(universe.classes)):
        for j in range(len(universe.classes)):
            key = universe.key(i, j)
            if universe.j_flags[i] or universe.j_flags[j] or key in keys:
                continue
            keys.add(key)
            for y in pair_cones(universe, i, j):
                cones += 1
                for w, _, _ in decompose_with_maps(y):
                    if universe.find(shift_window(w, 0, n)) is None:
                        missing.add(w)
    labels = ", ".join(x.label() for x in missing.reps)
    return CheckEntry("split closure adds nothing", not labels,
                      f"{cones} cones of {len(keys)} keys; "
                      + (f"summands outside the universe: {labels}" if labels
                         else "every summand is a class"))


def arrows_entry(q) -> CheckEntry:
    """The arrows against the full rad^2 scan, in the build's context: dim rad(w, z)
    - dim rad^2(w, z) = ``q.arrows[(w, z)]`` on every radical pair (w, z), and no
    arrow elsewhere.  The build proves rad^2 = rad once per ``Universe.key`` and
    moves that proof to translates (``_Ctx.sink``); here every pair is scanned.
    Failures name the pairs."""
    ctx, pairs, bad = q._ctx, set(), []
    for z in range(q.class_count()):
        for w in ctx.neighbours(z, into=True):
            pairs.add((w, z))
            if ctx.r(w, z) - ctx.rad2(w, z).dimension != q.arrows.get((w, z), 0):
                bad.append((w, z))
    bad.extend(sorted(set(q.arrows) - pairs))
    return CheckEntry("arrows match the full rad^2 scan", not bad,
                      f"{len(pairs)} radical pairs"
                      + "".join(f"; {q.label(w)} -> {q.label(z)}" for w, z in bad[:4]))


def oracle_entry(universe, oracle, bound: int) -> CheckEntry:
    """The engine's classes with at most ``bound`` summands per cell, which the
    oracle lists exactly, against the oracle's; the others are only counted."""
    inside = sorted(rep.signature() for rep in universe.representatives
                    if max(map(len, rep.cells)) <= bound)
    outside = len(universe.representatives) - len(inside)
    return CheckEntry(
        f"oracle equivalence over GF({oracle.alg.field.char}), bound {bound}",
        inside == oracle.signatures(),
        f"engine {len(inside)} vs oracle {len(oracle.representatives)} within the bound; "
        f"{outside} engine classes outside it")


def run_check_battery(alg, n: int, oracle: str | None = None, bound: int = 2,
                      config=None) -> CheckReport:
    require_characteristic_zero(alg)
    entries: list[CheckEntry] = []
    report = compute_sgldim(alg, config=config)
    if not report.terminated:
        entries.append(CheckEntry("sgldim terminates", False, report.cap_note or ""))
        return CheckReport(entries)
    eta = report.sgldim
    entries.append(CheckEntry("sgldim terminates", True, f"eta = {eta}, m0 = {report.m0}"))

    universe = report.universes.get(n) or enumerate_indecomposables(alg, n, config)
    entries.append(CheckEntry("universe closed", universe.closed,
                              f"{len(universe.representatives)} classes at n = {n}"))
    entries.append(d_squared_entry(universe))
    entries.append(split_closure_entry(universe))

    # strip-stability: non-J classes are their own minimal form
    unstable = [rep.label() for rep, is_j in zip(universe.representatives, universe.j_flags)
                if not is_j and strip_contractible(rep).total_summands() != rep.total_summands()]
    entries.append(CheckEntry("non-contractible classes are strip-stable",
                              not unstable, ", ".join(unstable[:4])))

    # every window is enumerated and every AR quiver built at most once
    universes = {**report.universes, n: universe}
    quivers = {}

    def quiver(m):
        if m not in quivers:
            quivers[m] = build_ar_quiver(alg, m, config, universe=universes.get(m))
        return quivers[m]

    if eta >= 1 and n >= eta + 2:
        thm = check_window_stability(alg, n, eta, config, quivers, universes)
        entries.append(CheckEntry(
            "cross-window stability (conflations, boundary cells)",
            thm.ok(), f"checked {thm.checked}, violations {thm.violations[:4]}"))
    else:
        entries.append(CheckEntry("cross-window stability (conflations, boundary cells)", True,
                                  "skipped: EtaZero (semisimple case, eta = 0)" if eta < 1 else
                                  f"skipped: needs n >= eta + 2 (n = {n}, eta = {eta})"))
    q = quiver(n)

    # component shapes on every arrow representative
    bad_arrows = []
    for (i, j), f_map in q.arrow_reps.items():
        try:
            classify_irreducible_components(f_map)
        except ShapeViolation as exc:
            bad_arrows.append(f"{q.label(i)} -> {q.label(j)}: {exc}")
    entries.append(CheckEntry("irreducible component shapes",
                              not bad_arrows, "; ".join(bad_arrows[:3])))
    entries.append(arrows_entry(q))

    # conflation soundness: certified (defect counts), middle multiset matches the
    # arrow multiplicities out of X and into Z, and d . i = 0
    problems = []
    for z_idx, conf in q.conflations.items():
        if not conf.certified:
            problems.append(f"uncertified conflation at {q.label(z_idx)}")
            continue
        outgoing = []
        for (i, j), m in q.arrows.items():
            if i == conf.x_idx:
                outgoing.extend([j] * m)
        if sorted(outgoing) != sorted(conf.y_summands):
            problems.append(f"middle/arrow mismatch out of {q.label(conf.x_idx)}")
        incoming = []
        for (i, j), m in q.arrows.items():
            if j == z_idx:
                incoming.extend([i] * m)
        if sorted(incoming) != sorted(conf.y_summands):
            problems.append(f"middle/arrow mismatch into {q.label(z_idx)}")
        # degreewise split rows by construction; re-verify d . i = 0
        if not compose(conf.d, conf.i).is_zero():
            problems.append(f"d . i != 0 at {q.label(z_idx)}")
    entries.append(CheckEntry("conflation soundness", not problems, "; ".join(problems[:3])))

    # the definitions behind the defect counts, on every conflation, in the build's context
    ctx = q._ctx
    unsplit = [q.label(z) for z, c in q.conflations.items()
               if not (is_right_almost_split(q.universe, c.d, _ctx=ctx)
                       and is_left_almost_split(q.universe, c.i, _ctx=ctx)
                       and is_right_minimal(q.universe, c.d, _ctx=ctx))]
    entries.append(CheckEntry("almost split (factorisation test)", not unsplit,
                              ", ".join(unsplit[:4])))

    # gamma-bar extraction (only meaningful when eta >= 1)
    if eta >= 1:
        try:
            gb = gamma_bar(quiver(eta + 1))
            entries.append(CheckEntry("gamma-bar anchor",
                                      True, f"{gb.vertex_count()} vertices"))
        except (NoAnchorFound, EtaZero) as exc:
            entries.append(CheckEntry("gamma-bar anchor", False, str(exc)))

    if oracle:
        entries.append(oracle_entry(
            universe, brute_force_indecomposables(alg, n, bound, int(oracle[2:])), bound))
    return CheckReport(entries)
