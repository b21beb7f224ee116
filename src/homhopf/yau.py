"""Yau twists: a classical Hopf algebra, its structure map the identity,
made a Hom-Hopf algebra along a bialgebra endomorphism.

No command runs a Yau twist, so no command compiles this module; the
catalog's twisted group algebras are built from their own tables.  The
benchmark's tracer spans ``yau_twist`` as ``constructions.yau_twist``, which
resolves it here on first use.
"""

from __future__ import annotations

from .errors import NotAMorphism, PreconditionFailed
from .exactlin import SparseMatrix, basis, compose, kron
from .structures import HomHopfAlgebra, hopf_of_tables


def yau_twist(classical: HomHopfAlgebra, endo: SparseMatrix) -> HomHopfAlgebra:
    """Twist a classical Hopf algebra (structure map = identity) along a
    bialgebra endomorphism: the product becomes endo(ab), the coproduct
    becomes delta(endo(a)), and endo is the new structure map."""
    n = classical.dim
    if classical.alpha != basis(n):
        raise PreconditionFailed("input must be classical: its structure map must be the identity")
    A, C = classical.algebra, classical.coalgebra
    er, m, sr, su = endo, A.mul_map, classical.antipode_rows, A.unit
    dr, eps = C.comul_rows, C.counit
    twisted_mul, twisted_delta = compose(m, er), compose(er, dr)  # endo(ab), delta(endo(a))
    laws = (
        ("endo(1) = 1", compose(su, er), su),
        ("endo(ab) = endo(a) endo(b)", twisted_mul, compose(kron(er, er), m)),
        ("delta(endo(a)) = (endo (x) endo) delta(a)", twisted_delta, compose(dr, (er, er))),
        ("counit(endo(a)) = counit(a)", compose(er, eps), eps),
        ("endo(S(a)) = S(endo(a))", compose(sr, er), compose(er, sr)),
    )
    for law, lhs, rhs in laws:
        if lhs != rhs:
            raise NotAMorphism(law)

    twisted_mul = tuple(twisted_mul[i * n : (i + 1) * n] for i in range(n))
    return hopf_of_tables(twisted_mul, A.unit, twisted_delta, C.counit, endo, sr)
