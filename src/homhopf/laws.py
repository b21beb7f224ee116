"""Section 2 of the paper, the data laws that Majid's bicrossproduct checks
before it builds: modules (plain and algebra-valued) and comodule
coalgebras.

``check`` runs none of them, so they live apart from ``structures`` and
``checkers``, and only a command that checks bicrossproduct data compiles
them.  The laws no command runs, of coalgebra-valued modules, cotwisting
maps and matched pairs, are ``matchedpair``'s.  The laws of the other
sections live with their suites: dual pairs and twisting maps in
``pairing``, 2-cocycles and comodule algebras in ``twist``.  The comodule
axioms that every comodule law starts from are ``checkers.check_comodule``,
so a bicrossproduct command compiles no twist.  Each law is swept by
``checkers._sweep``.
"""

from __future__ import annotations

from . import checkers
from .checkers import _product_law, _sweep
from .exactlin import apply_kron, basis, compose, kron, linear_combination, transpose
from .structures import (
    CheckReport, ComoduleCoaction, ModuleAction, _flat, algebra_of, bialgebra_of, coalgebra_of,
)


def check_module(m: ModuleAction) -> CheckReport:
    """Left module axioms for an action of a Hom-algebra."""
    actor = algebra_of(m.actor)
    na, nm = actor.dim, m.carrier.dim
    act, am, e = m.act_cells, m.carrier.alpha, basis(nm)
    aa, amul, unit = actor.alpha, actor.mul_cells, actor.unit
    acts = _flat(act)  # h (x) x -> h . x
    checks = (
        _sweep("module.unit-acts-as-alpha", (nm,), compose(kron(unit, e), acts), am),
        _sweep(
            "module.alpha-equivariant", (na, nm), compose(acts, am), compose(kron(aa, am), acts)
        ),
        # alpha(e_a) . (e_b . e_i) against (e_a e_b) . alpha(e_i)
        _sweep("module.hom-associative", _product_law((act, aa, act), (act, amul, am))),
    )
    return CheckReport(checks)


def check_module_algebra(m: ModuleAction) -> CheckReport:
    """Module axioms plus the module Hom-algebra compatibilities."""
    actor = bialgebra_of(m.actor)
    carrier = algebra_of(m.carrier)
    na, nc = actor.dim, carrier.dim
    act, cmc = m.act_cells, carrier.mul_cells
    alpha2 = actor.power(2)
    e, eta = basis(na), carrier.unit
    eps, delta = actor.coalgebra.counit, actor.coalgebra.comul_rows
    acting_on = transpose(act)  # acting_on[a] is the map h -> h . e_a
    # at [h][a], h_1 . e_a (x) h_2, and at [x * na + y][b], e_x (e_y . e_b)
    acted = [[apply_kron(on_a, e, delta[h]) for on_a in acting_on] for h in range(na)]
    times = [compose(plane, cmc[x]) for x in range(nc) for plane in act]
    checks = (
        *check_module(m).checks,
        # alpha^2(h) . (a b) against (h_1 . a)(h_2 . b)
        _sweep(
            "module-algebra.multiplicative",
            _product_law((act, alpha2, cmc), (times, acted, basis(nc))),
        ),
        _sweep("module-algebra.unit", (na,), compose(kron(e, eta), _flat(act)), compose(eps, eta)),
    )
    return CheckReport(checks)


def check_comodule_coalgebra(c: ComoduleCoaction) -> CheckReport:
    """Comodule axioms plus the comodule Hom-coalgebra compatibilities."""
    coactor = bialgebra_of(c.coactor)
    carrier = coalgebra_of(c.carrier)
    nm, nh = carrier.dim, coactor.dim
    alpha2 = coactor.power(2)
    rho, rho_terms, hmul = c.coact_rows, c.coact_terms, coactor.algebra.mul_cells
    comul_terms, cm, eps = carrier.comul_terms, carrier.comul_rows, carrier.counit
    eta = coactor.algebra.unit
    e, em = basis(nh), basis(nm)
    embed = tuple(kron((row,), em) for row in em)  # embed[d] is m -> e_d (x) m
    # c_1(0) (x) c_2(0) (x) c_1(1) c_2(1)
    coproducts = tuple(
        linear_combination(
            nm * nm * nh,
            (
                (vc * v1, apply_kron(embed[d1], hmul[h1], rho[c2]))
                for c1, c2, vc in comul_terms[i]
                for d1, h1, v1 in rho_terms[c1]
            ),
        )
        for i in range(nm)
    )
    checks = (
        *checkers.check_comodule(c).checks,
        _sweep("comodule-coalgebra.counit", (nm,), compose(rho, (eps, e)), compose(eps, eta)),
        # c_(0)1 (x) c_(0)2 (x) alpha_H^2(c_(1))
        _sweep(
            "comodule-coalgebra.comultiplicative", (nm,), compose(rho, (cm, alpha2)), coproducts
        ),
    )
    return CheckReport(checks)
