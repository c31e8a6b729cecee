"""Strong global dimension by growing-window enumeration.

``compute_sgldim`` walks n = 2, 3, ... and stops at the first window where
every indecomposable that is not contractible (J-type) has an empty first or
last cell; the strong global dimension is that window minus two.
``sgldim_fast`` instead grows until the maximal length over the universe
stabilises for two consecutive windows; the two must agree.

Both check gl.dim first: s.gl.dim >= gl.dim, so a gl.dim beyond max_n - 2,
infinite included, cannot terminate and is reported at once.  gl.dim is exact
path combinatorics (``MonomialAlgebra.global_dimension``) with no resolution
cap.  Both routes run one window loop (``_grow``) and differ only in its stop
rule.  The windows of one run share a shape registry
(``universe._ShapeRegistry``): each shape is proven indecomposable once, and a
later window replays the rule candidates of the shapes it has already met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .complexes import Complex
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


def _gldim_report(alg, max_n: int) -> SgldimReport | None:
    """An unterminated report when gl.dim alone rules out termination by
    window max_n, since s.gl.dim >= gl.dim; None otherwise."""
    bound = max_n - 2
    gldim = alg.global_dimension()
    if gldim <= bound:
        return None
    detail = "gl.dim is infinite" if gldim == math.inf else f"gl.dim = {gldim}"
    note = f"{CAP_NOTE}; {detail}, and s.gl.dim >= gl.dim > max_n - 2 = {bound}"
    return SgldimReport(None, None, None, [], False, note)


def _grow(alg, max_n: int, config: EnumConfig | None, stop) -> SgldimReport:
    """The window loop of both routes, n = 2, 3, ..., max_n.

    ``stop(n, violators, window)`` decides after each closed window: it
    returns (m0, s.gl.dim, witness) to terminate, or None to grow on;
    ``window(m)`` is the universe of window m, enumerated on first use.
    """
    early = _gldim_report(alg, max_n)
    if early is not None:
        return early
    shapes = _ShapeRegistry()
    per_window = []
    universes: dict[int, Universe] = {}

    def window(m: int) -> Universe:
        if m not in universes:
            universes[m] = enumerate_indecomposables(alg, m, config, _registry=shapes)
        return universes[m]

    try:
        for n in range(2, max_n + 1):
            uni = window(n)
            viol = uni.violators()
            per_window.append((n, len(uni.representatives), len(viol)))
            if not uni.closed:
                reason = uni.cap_note
                break
            answer = stop(n, viol, window)
            if answer is not None:
                return SgldimReport(*answer, per_window, True, None, universes)
        else:
            reason = f"max_n = {max_n} reached: windows 2..{max_n} closed without termination"
        return SgldimReport(None, None, None, per_window, False, f"{CAP_NOTE}; {reason}",
                            universes)
    finally:
        shapes.candidates.clear()  # replay serves the windows of this run only


def compute_sgldim(alg, max_n: int = 16, config: EnumConfig | None = None) -> SgldimReport:
    """Window loop: stop at the first n >= 2 with no full-support class."""
    def no_violators(n, viol, window):
        if viol:
            return None
        _, witness = max_length(window(n - 1))
        return n, n - 2, witness

    return _grow(alg, max_n, config, no_violators)


def sgldim_fast(alg, max_n: int = 16, config: EnumConfig | None = None) -> SgldimReport:
    """Grow windows until max length stabilises on two consecutive windows."""
    lengths = {}

    def stable_length(n, viol, window):
        lengths[n] = max_length(window(n))
        if n - 1 not in lengths or lengths[n - 1][0] != lengths[n][0]:
            return None
        ell = lengths[n][0]
        return ell + 2, ell, lengths[n - 1][1]

    return _grow(alg, max_n, config, stable_length)
