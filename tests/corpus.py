"""Shared desk-scale corpus used by the acceptance suite."""

import json
from pathlib import Path

from liekoszul.cli import build_lie_algebra, build_lie_rinehart
from liekoszul.cechp1 import EquivariantSection, atiyah_algebroid
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

CASES = Path(__file__).resolve().parent.parent / "cases"


def case_payloads(kind):
    """(name, payload) of every file in cases/ of the given kind."""
    out = []
    for path in sorted(CASES.glob("*.json")):
        payload = json.loads(path.read_text())
        if payload["kind"] == kind:
            out.append((path.stem, payload))
    return out


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


def formality_instances():
    """(name, presentation, section) for the formality oracles: the certified
    corpus, x d/dx on euler-n2 (its zero locus is the y axis), two
    sections whose ideals are not monomial, so that normal forms have
    entries off their own monomial and the quotient basis depends on the
    pivot rule, and (x^2 - 3/2 xy, 2/3 xy - y^2) = (2x - 3y)(x/2, y/3),
    whose components share a factor only while the ratio of each one's
    two coefficients is kept (a line with an embedded point: formality
    fails at weight 3)."""
    out = [(name, lr, v) for name, lr, v, _ in lie_rinehart_instances()]
    euler = build_lie_rinehart(dict(case_payloads("lie_rinehart"))["euler-n2"])[0]
    t3 = tangent_algebroid(WeightedPolyRing(3, (1, 1, 1)))
    out += [
        ("euler-n2/x-dx", euler, SectionV(euler, [{(1, 0): 1}, {}])),
        ("euler-n2/(x+y)-dx", euler, SectionV(euler, [{(1, 0): 1, (0, 1): 1}, {}])),
        ("tangent-n3/binomial", t3, SectionV(t3, [{(1, 0, 0): 1, (0, 1, 0): 1},
                                                  {(0, 1, 0): 1, (0, 0, 1): -2}, {}])),
        ("euler-n2/shared-factor", euler,
         SectionV(euler, [{(2, 0): 1, (1, 1): "-3/2"}, {(0, 2): -1, (1, 1): "2/3"}])),
    ]
    return out


def p1_instances():
    """(name, algebroid, section, untwisted) for the projective-line corpus."""
    a0 = atiyah_algebroid(0)
    a2 = atiyah_algebroid(2)
    am2 = atiyah_algebroid(-2)
    return [
        ("O0/euler", a0, EquivariantSection(a0, (0, 1, 0)), False),
        ("O0/euler-untwisted", a0, EquivariantSection(a0, (0, 1, 0)), True),
        ("O0/two-finite-fixed", a0, EquivariantSection(a0, (-1, 0, 1)), True),
        ("O0/zero-section", a0, EquivariantSection(a0, (0, 0, 0)), False),
        ("O0/unit-lift", a0, EquivariantSection(a0, (0, 1, 0), scalar0=["1"]), False),
        ("O2/euler", a2, EquivariantSection(a2, (0, 1, 0)), False),
        ("O-2/zero-section", am2, EquivariantSection(am2, (0, 0, 0)), False),
    ]


def slice_betti(lr, section, weights):
    """Betti tables of the Koszul slices, weight -> degree -> dim."""
    return {w: betti(lie_koszul(lr, section, w).complex) for w in weights}


def heisenberg(n):
    """The Heisenberg algebra of dimension 2n+1: [x_i, y_i] = z on (x, y, z)."""
    dim = 2 * n + 1
    return LieAlgebra(dim, {(i, n + i): [0] * (dim - 1) + [1] for i in range(n)})


def sl2_standard():
    """sl2 on the basis (h, e, f) with its two-dimensional standard module."""
    sl2 = LieAlgebra(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})
    return sl2, GModule(sl2, 2, [
        ExactMatrix.from_rows([[1, 0], [0, -1]]),
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
        ExactMatrix.from_rows([[0, 0], [1, 0]]),
    ])


def sl2_on_plane():
    """The action algebroid of sl2 on k[x,y]: generators (e, f, h) of weight 0
    with anchors x d/dy, y d/dx, x d/dx - y d/dy, and the sl2 algebra on the
    same basis ([e,f] = h, [h,e] = 2e, [h,f] = -2f)."""
    ring = WeightedPolyRing(2, (1, 1))
    one = (0, 0)
    lr = LieRinehartPresentation(
        ring, [0, 0, 0],
        [[{}, {(1, 0): 1}], [{(0, 1): 1}, {}], [{(1, 0): 1}, {(0, 1): -1}]],
        {(0, 1): [{}, {}, {one: 1}], (0, 2): [{one: -2}, {}, {}],
         (1, 2): [{}, {one: 2}, {}]})
    sl2 = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]})
    return lr, sl2


def collision_line():
    """(x/2 d/dx, x^2 d/dx) on the line, [e_0, e_1] = 1/2 e_1: the anchor
    block of e_0 and the bracket block of c_01^1 land on the same entries of
    ce_d(1, w), which read (x/2 d/dx - 1/2) x^(w+1) = w/2 x^(w+1).  They
    cancel to 0 at w = 0, and at w = 2 two Fractions sum to the int 1."""
    return LieRinehartPresentation(
        WeightedPolyRing(1, (1,)), [0, 1], [[{(1,): "1/2"}], [{(2,): 1}]],
        {(0, 1): [{}, {(0,): "1/2"}]})


def ce_algebroids():
    """(name, presentation) for the Chevalley-Eilenberg oracle comparison."""
    r1 = WeightedPolyRing(1, (1,))
    r2 = WeightedPolyRing(2, (1, 1))
    # aff(1) on the line: (x d/dx, d/dx) with [x d/dx, d/dx] = -d/dx
    aff1 = LieRinehartPresentation(r1, [0, -1], [[{(1,): 1}], [{(0,): 1}]],
                                   {(0, 1): [{}, {(0,): -1}]})
    # the Euler field beside the coordinate frame: [E, d/dx_j] = -d/dx_j
    euler_frame = LieRinehartPresentation(
        r2, [0, -1, -1], [[{(1, 0): 1}, {(0, 1): 1}], [{(0, 0): 1}, {}], [{}, {(0, 0): 1}]],
        {(0, 1): [{}, {(0, 0): -1}, {}], (0, 2): [{}, {}, {(0, 0): -1}]})
    # sl2 by vector fields on the line: (d/dx, x d/dx, x^2 d/dx), with
    # [d/dx, x^2 d/dx] = 2x d/dx written as 2x e_0, so that Jacobi holds only
    # with the anchor acting on the structure coefficient
    sl2_line = LieRinehartPresentation(
        r1, [-1, 0, 1], [[{(0,): 1}], [{(1,): 1}], [{(2,): 1}]],
        {(0, 1): [{(0,): 1}, {}, {}], (0, 2): [{(1,): 2}, {}, {}],
         (1, 2): [{}, {}, {(0,): 1}]})
    out = [(f"tangent{list(weights)}", tangent_algebroid(WeightedPolyRing(len(weights), weights)))
           for weights in [(1,), (1, 1), (1, 1, 1), (1, 2)]]
    out += [("sl2-plane", sl2_on_plane()[0]), ("aff1-line", aff1),
            ("euler-frame", euler_frame), ("sl2-line", sl2_line),
            ("collision-line", collision_line())]
    out += [(name, build_lie_rinehart(payload)[0])
            for name, payload in case_payloads("lie_rinehart")]
    return out


def ce_lie_algebras():
    """(name, algebra, module) for the Chevalley-Eilenberg oracle comparison."""
    out = [(name, *build_lie_algebra(payload)[::2])
           for name, payload in case_payloads("lie_algebra")]
    out += [(f"heisenberg{2 * n + 1}", heisenberg(n), GModule.trivial(heisenberg(n)))
            for n in (1, 2, 3)]
    out.append(("sl2-standard", *sl2_standard()))
    return out
