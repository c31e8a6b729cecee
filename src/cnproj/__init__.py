"""Strong global dimension and AR quivers of windowed complexes of projectives."""

from .algebra import (
    AlgElement,
    MonomialAlgebra,
    Quiver,
    build_algebra,
)
from .arquiver import (
    ARQuiver,
    Conflation,
    build_ar_quiver,
    check_window_stability,
    classify_irreducible_components,
    derived_window,
    gamma_bar,
    is_left_almost_split,
    is_right_almost_split,
    is_right_minimal,
)
from .complexes import (
    ChainMap,
    Complex,
    cone,
    direct_sum,
    drop_first,
    drop_last,
    embed_left,
    embed_right,
    extend_left,
    extend_right,
    length,
    make_J,
    make_stalk,
    shift_window,
    strip_contractible,
)
from .homspaces import (
    ExtClassSpace,
    HomSpace,
    assemble_extension,
    can_extend_left,
    can_extend_right,
    decompose,
    ext_classes,
    hom_basis,
    is_indecomposable,
    is_isomorphic,
    rad2_basis,
    rad_basis,
)
from .sgldim import SgldimReport, compute_sgldim, sgldim_fast
from .universe import (
    EnumConfig,
    Universe,
    brute_force_indecomposables,
    enumerate_indecomposables,
    max_length,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
