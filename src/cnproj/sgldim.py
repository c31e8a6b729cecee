"""Strong global dimension by growing-window enumeration.

``compute_sgldim`` walks n = 2, 3, ... and stops at the first window where
every indecomposable that is not contractible (J-type) has an empty first or
last cell; the strong global dimension is that window minus two.
``sgldim_fast`` instead grows until the maximal length over the universe
stabilises for two consecutive windows; the two must agree.

Both check gl.dim first: s.gl.dim >= gl.dim, so a gl.dim beyond max_n - 2 (or
beyond the resolution cap) cannot terminate and is reported at once.  The
windows of one run share a shape registry (``universe._ShapeRegistry``): each
shape is proven indecomposable once, and a later window replays the rule
candidates of the shapes it has already met.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Complex
from .errors import ResolutionCapExceeded
from .universe import EnumConfig, Universe, _ShapeRegistry, enumerate_indecomposables, max_length

CAP_NOTE = ("cap exceeded: infinite strong global dimension and an undersized "
            "cap are indistinguishable at this cap")


@dataclass
class SgldimReport:
    m0: int | None
    sgldim: int | None
    witness: Complex | None
    per_window: list          # (n, class count, violating class count)
    terminated: bool
    cap_note: str | None = None
    universes: dict = field(default_factory=dict, repr=False)

    def witness_line(self) -> str:
        return self.witness.witness_label() if self.witness is not None else "-"


def _violators(universe: Universe):
    return [rep for rep, is_j in zip(universe.representatives, universe.j_flags)
            if not is_j and rep.cells[0] and rep.cells[-1]]


def _gldim_report(alg, max_n: int) -> SgldimReport | None:
    """An unterminated report when gl.dim alone rules out termination by
    window max_n, since s.gl.dim >= gl.dim; None otherwise."""
    bound = max_n - 2
    try:
        gldim = alg.global_dimension()
    except ResolutionCapExceeded as exc:
        detail = f"gl.dim is infinite or beyond the resolution cap ({exc})"
    else:
        if gldim <= bound:
            return None
        detail = f"gl.dim = {gldim}"
    note = f"{CAP_NOTE}; {detail}, and s.gl.dim >= gl.dim > max_n - 2 = {bound}"
    return SgldimReport(None, None, None, [], False, note)


def compute_sgldim(alg, max_n: int = 16, config: EnumConfig | None = None) -> SgldimReport:
    """Window loop: stop at the first n >= 2 with no full-support class."""
    early = _gldim_report(alg, max_n)
    if early is not None:
        return early
    shapes = _ShapeRegistry()
    per_window = []
    universes: dict[int, Universe] = {}
    try:
        for n in range(2, max_n + 1):
            uni = enumerate_indecomposables(alg, n, config, _registry=shapes)
            universes[n] = uni
            viol = _violators(uni)
            per_window.append((n, len(uni.representatives), len(viol)))
            if not uni.closed:
                return SgldimReport(None, None, None, per_window, False, CAP_NOTE, universes)
            if not viol:
                m0 = n
                prev = universes.get(m0 - 1)
                if prev is None:
                    prev = enumerate_indecomposables(alg, m0 - 1, config, _registry=shapes)
                    universes[m0 - 1] = prev
                _, witness = max_length(prev)
                return SgldimReport(m0, m0 - 2, witness, per_window, True, None, universes)
        return SgldimReport(None, None, None, per_window, False, CAP_NOTE, universes)
    finally:
        shapes.candidates.clear()  # replay serves the windows of this run only


def sgldim_fast(alg, max_n: int = 16, config: EnumConfig | None = None) -> SgldimReport:
    """Grow windows until max length stabilises on two consecutive windows."""
    early = _gldim_report(alg, max_n)
    if early is not None:
        return early
    shapes = _ShapeRegistry()
    per_window = []
    universes: dict[int, Universe] = {}
    prev_len = None
    prev_witness = None
    try:
        for n in range(2, max_n + 1):
            uni = enumerate_indecomposables(alg, n, config, _registry=shapes)
            universes[n] = uni
            viol = _violators(uni)
            per_window.append((n, len(uni.representatives), len(viol)))
            if not uni.closed:
                return SgldimReport(None, None, None, per_window, False, CAP_NOTE, universes)
            ell, witness = max_length(uni)
            if prev_len is not None and ell == prev_len:
                return SgldimReport(ell + 2, ell, prev_witness, per_window, True, None, universes)
            prev_len, prev_witness = ell, witness
        return SgldimReport(None, None, None, per_window, False, CAP_NOTE, universes)
    finally:
        shapes.candidates.clear()  # replay serves the windows of this run only
