"""Exact computational workbench for level-r modular data (r an odd prime),
the odd Weil representation of SL2(F_r), fusion dimensions, finite-image
enumeration, SL2(F_r) character tables, and chain-surgery 3-manifold
invariants.  All core arithmetic is exact over cyclotomic fields; floats
appear only through explicit embeddings.

The public names below are resolved lazily (PEP 562): `import so3tqft`
loads no submodule, and ``so3tqft.tau`` imports `mfld3` on first use.
"""

__version__ = "0.1.0"

import os as _os
from importlib import import_module as _import_module

# One BLAS thread, set before numpy is first imported: the kernel's float64
# matmuls are small, and a second OpenBLAS thread spins on each of them.  A
# value already in the environment is kept.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_EXPORTS = {
    "cyclo": ("CycField", "CycNumber", "embed", "get_field", "sqrt_r", "zeta"),
    "cycmatrix": ("CycMatrix",),
    "modular_data": (
        "ModularData",
        "build_modular_data",
        "central_charge_order",
        "dehn_twist_spectrum",
        "quantum_integer",
        "rho_genus1",
    ),
    "weil": (
        "HeisenbergPresentation",
        "HeisenbergWord",
        "WeilMatrices",
        "build_weil",
        "heisenberg_action",
        "heisenberg_presentation",
        "verify_odd_block_identification",
    ),
    "fusion_dims": (
        "SurfaceSpec",
        "dim_space",
        "fusion_coeff",
        "goslow_margin",
        "twist_multiplicities",
        "verlinde_dim",
    ),
    "finite_image": (
        "GroupClosure",
        "canonicalize",
        "closure",
        "identify_group",
        "so3_closure",
        "weil_closure",
        "weil_image_equality",
    ),
    "sl2_char": (
        "FiniteGroupTable",
        "borel_check",
        "borel_table",
        "dixon_char_table",
        "regular_congruence_check",
        "sl2_table",
        "tensor_decompose",
    ),
    "mfld3": (
        "ChainSurgery",
        "InvariantValue",
        "connected_sum",
        "heegaard_tau",
        "norm_survey",
        "omega_chain_bracket",
        "signature",
        "tau",
    ),
}


def _lazy_getattr(owner: str, exports: dict):
    """A module `__getattr__` for `exports`, a table submodule -> names it
    defines.  A name resolves to that submodule's attribute and a submodule
    name to the submodule, imported on first use.  Nothing is cached in the
    owner, so a name always reads the defining module's current binding."""
    module_of = {name: mod for mod, names in exports.items() for name in names}

    def __getattr__(name):
        if name in exports:
            return _import_module(f"{__name__}.{name}")
        if name not in module_of:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        return getattr(_import_module(f"{__name__}.{module_of[name]}"), name)

    return __getattr__


__getattr__ = _lazy_getattr(__name__, _EXPORTS)

__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])
