"""Shared desk-scale corpus used by the acceptance suite."""

from liekoszul.cechp1 import EquivariantSection, atiyah_algebroid, cech_koszul, zero_section
from liekoszul.complexes import betti
from liekoszul.exactla import ExactMatrix, Subspace
from liekoszul.hochserre import GModule, LieAlgebra, LieIdeal
from liekoszul.koszul import lie_koszul
from liekoszul.lierinehart import (
    LieRinehartPresentation,
    SectionV,
    WeightedPolyRing,
    tangent_algebroid,
)


def hs_instances():
    """(name, algebra, ideal, module) for the Hochschild-Serre regression set."""
    heis = LieAlgebra(3, {(0, 1): [0, 0, 1]})
    aff1 = LieAlgebra(2, {(0, 1): [0, 1]})
    fili = LieAlgebra(4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]})
    ab3 = LieAlgebra(3, {})
    weight_mod = GModule(aff1, 1, [ExactMatrix.from_rows([[1]]),
                                   ExactMatrix.from_rows([[0]])])

    def ideal(g, vectors):
        return LieIdeal(g, Subspace(g.dim, vectors))

    return [
        ("abelian3/plane", ab3, ideal(ab3, [[1, 0, 0], [0, 1, 0]]),
         GModule.trivial(ab3)),
        ("heisenberg/center", heis, ideal(heis, [[0, 0, 1]]),
         GModule.trivial(heis)),
        ("aff1/nilradical", aff1, ideal(aff1, [[0, 1]]), GModule.trivial(aff1)),
        ("filiform4/center", fili, ideal(fili, [[0, 0, 0, 1]]),
         GModule.trivial(fili)),
        ("filiform4/derived", fili, ideal(fili, [[0, 0, 1, 0], [0, 0, 0, 1]]),
         GModule.trivial(fili)),
        ("aff1/weight-module", aff1, ideal(aff1, [[0, 1]]), weight_mod),
        ("heisenberg/whole", heis, ideal(heis, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
         GModule.trivial(heis)),
    ]


def lie_rinehart_instances():
    """(name, presentation, section, dim_y) with certified zero loci."""
    r1 = WeightedPolyRing(1, (1,))
    r2 = WeightedPolyRing(2, (1, 1))
    r3 = WeightedPolyRing(3, (1, 1, 1))
    t1, t2, t3 = (tangent_algebroid(r) for r in (r1, r2, r3))
    unit_lr = LieRinehartPresentation(r1, [0], [[{}]], {})
    return [
        ("xline-n1", t1, SectionV(t1, [{(1,): 1}]), 0),
        ("euler-n2", t2, SectionV(t2, [{(1, 0): 1}, {(0, 1): 1}]), 0),
        ("rotation-n2", t2, SectionV(t2, [{(0, 1): -1}, {(1, 0): 1}]), 0),
        ("euler-n3", t3, SectionV(t3, [{(1, 0, 0): 1}, {(0, 1, 0): 1},
                                       {(0, 0, 1): 1}]), 0),
        ("unit-component", unit_lr, SectionV(unit_lr, [{(0,): 1}]), 0),
    ]


def p1_instances():
    """(name, algebroid, section, untwisted) for the projective-line corpus."""
    a0 = atiyah_algebroid(0)
    a2 = atiyah_algebroid(2)
    am2 = atiyah_algebroid(-2)
    return [
        ("O0/euler", a0, EquivariantSection(a0, (0, 1, 0)), False),
        ("O0/euler-untwisted", a0, EquivariantSection(a0, (0, 1, 0)), True),
        ("O0/two-finite-fixed", a0, EquivariantSection(a0, (-1, 0, 1)), True),
        ("O0/zero-section", a0, zero_section(a0), False),
        ("O0/unit-lift", a0, EquivariantSection(a0, (0, 1, 0), scalar0=["1"]), False),
        ("O2/euler", a2, EquivariantSection(a2, (0, 1, 0)), False),
        ("O-2/zero-section", am2, zero_section(am2), False),
    ]


def window_pair(algebroid, section, window, untwisted=False):
    """The Cech-Koszul models at windows D and D+1, as the window checks take them."""
    return (cech_koszul(algebroid, section, window, untwisted),
            cech_koszul(algebroid, section, window + 1, untwisted))


def slice_betti(lr, section, weights):
    """Betti tables of the Koszul slices, weight -> degree -> dim."""
    return {w: betti(lie_koszul(lr, section, w).complex) for w in weights}
