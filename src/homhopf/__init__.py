"""Exact structure-constant calculus for finite-dimensional Hom-Hopf algebras.

Represents Hom-algebraic objects by rational structure constants, constructs
duals, smash products, bicrossproducts, double crossed products, Drinfel'd
and Heisenberg doubles, and cocycle twists, and machine-verifies every axiom
and identity exactly over the rationals.
"""

__version__ = "0.1.0"

# Every public name loads its module on first use (PEP 562), so a command
# compiles only the modules it runs: ``--version`` compiles none of them.
_SUBMODULES = ("bicross", "catalog", "constructions", "errors", "exactlin", "laws", "pairing",
               "structures", "twist")
_HOME = {
    **dict.fromkeys((
        "CheckEntry", "CheckReport", "ComoduleCoaction", "HomAlgebra", "HomBialgebra",
        "HomCoalgebra", "HomHopfAlgebra", "ModuleAction", "PairingForm", "RMatrix", "Witness",
    ), "structures"),
    **dict.fromkeys(("check_antipode", "check_comodule", "check_hom_algebra", "check_hom_bialgebra",
                     "check_hom_coalgebra", "check_quasitriangular", "run_hopf_suite"), "checkers"),
    **dict.fromkeys(("check_comodule_coalgebra", "check_module", "check_module_algebra"), "laws"),
    **dict.fromkeys(("MatchedPairData", "check_cotwisting", "check_matched_pair", "check_module_coalgebra",
                     "double_cross_product", "dual_matched_pair"), "matchedpair"),
    **dict.fromkeys(("TwoCocycle", "canonical_cocycles", "check_cocycle", "check_comodule_algebra",
                     "cocycle_twist"), "twist"),
    **dict.fromkeys(("check_dual_pair", "check_twisting", "dual_pair_double",
                     "evaluation_pairing"), "pairing"),
    **dict.fromkeys((
        "canonical_r_matrix", "cotwist_coproduct", "drinfeld_double", "drinfeld_double_tilde", "dual",
        "heisenberg_double", "opposite", "smash_product",
    ), "constructions"),
    "yau_twist": "yau",
    **dict.fromkeys(("bicrossproduct", "catalog_ex27_expected", "comodule_cotwist", "self_bicross"), "bicross"),
    **dict.fromkeys((
        "CatalogEntry", "catalog_ax1", "catalog_cyclic", "catalog_group", "catalog_kz2",
        "catalog_one", "catalog_sweedler_hom", "get_entry",
    ), "catalog"),
    **{name: name for name in _SUBMODULES},
}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_HOME[name]}", __name__)
    return module if name in _SUBMODULES else getattr(module, name)


__all__ = sorted(_HOME)
