"""Exact computational workbench for level-r modular data (r an odd prime),
the odd Weil representation of SL2(F_r), fusion dimensions, finite-image
enumeration, SL2(F_r) character tables, and chain-surgery 3-manifold
invariants.  All core arithmetic is exact over cyclotomic fields; floats
appear only through explicit embeddings.
"""

__version__ = "0.1.0"

import os as _os

# One BLAS thread, set before numpy is first imported: the kernel's float64
# matmuls are small, and a second OpenBLAS thread spins on each of them.  A
# value already in the environment is kept.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cyclo import CycField, CycNumber, embed, get_field, sqrt_r, zeta
from .cycmatrix import CycMatrix
from .modular_data import (
    ModularData,
    build_modular_data,
    central_charge_order,
    dehn_twist_spectrum,
    quantum_integer,
    rho_genus1,
)
from .weil import (
    HeisenbergPresentation,
    HeisenbergWord,
    WeilMatrices,
    build_weil,
    heisenberg_action,
    heisenberg_presentation,
    verify_odd_block_identification,
)
from .fusion_dims import (
    SurfaceSpec,
    dim_space,
    fusion_coeff,
    goslow_margin,
    twist_multiplicities,
    verlinde_dim,
)
from .finite_image import (
    GroupClosure,
    ProjMatrix,
    canonicalize,
    closure,
    identify_group,
    so3_closure,
    weil_closure,
    weil_image_equality,
)
from .sl2_char import (
    FiniteGroupTable,
    borel_check,
    borel_table,
    dixon_char_table,
    regular_congruence_check,
    sl2_table,
    tensor_decompose,
)
from .mfld3 import (
    ChainSurgery,
    InvariantValue,
    connected_sum,
    heegaard_tau,
    norm_survey,
    omega_chain_bracket,
    signature,
    tau,
)

__all__ = [name for name in dir() if not name.startswith("_")]
