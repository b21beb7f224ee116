"""Exact structure-constant calculus for finite-dimensional Hom-Hopf algebras.

Represents Hom-algebraic objects by rational structure constants, constructs
duals, smash products, bicrossproducts, double crossed products, Drinfel'd
and Heisenberg doubles, and cocycle twists, and machine-verifies every axiom
and identity exactly over the rationals.
"""

__version__ = "0.1.0"

from .structures import (
    CheckEntry,
    CheckReport,
    ComoduleCoaction,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopfAlgebra,
    MatchedPairData,
    ModuleAction,
    PairingForm,
    RMatrix,
    TwoCocycle,
    Witness,
    check_antipode,
    check_cocycle,
    check_comodule,
    check_comodule_algebra,
    check_comodule_coalgebra,
    check_cotwisting,
    check_dual_pair,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_matched_pair,
    check_module,
    check_module_algebra,
    check_module_coalgebra,
    check_quasitriangular,
    check_twisting,
    hopf_algebra,
    run_hopf_suite,
)
from .constructions import (
    bicrossproduct,
    canonical_cocycles,
    canonical_r_matrix,
    cocycle_twist,
    comodule_cotwist,
    cotwist_coproduct,
    double_cross_product,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    dual_matched_pair,
    dual_pair_double,
    evaluation_pairing,
    heisenberg_double,
    opposite,
    self_bicross,
    smash_product,
    yau_twist,
)
# The catalog loads on first use, so commands that only read files never compile it.
_CATALOG_NAMES = (
    "catalog", "CatalogEntry", "catalog_ax1", "catalog_cyclic", "catalog_ex27_expected",
    "catalog_group", "catalog_kz2", "catalog_one", "catalog_sweedler_hom", "get_entry",
)


def __getattr__(name):
    if name not in _CATALOG_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    catalog = importlib.import_module(".catalog", __name__)
    return catalog if name == "catalog" else getattr(catalog, name)


__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_CATALOG_NAMES))
