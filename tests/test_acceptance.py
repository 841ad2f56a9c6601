"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time

from liekoszul.cechp1 import (
    EquivariantSection,
    atiyah_algebroid,
    cech_koszul,
    corollary_check,
    equivariant_H,
    second_page_degeneration,
    window_checked,
)
from liekoszul.cli import build_p1
from liekoszul.complexes import DoubleComplex, betti, row_filtration, total
from liekoszul.hochserre import ce_complex, hs_filtered, verify
from liekoszul.koszul import formality_check, lie_koszul, vanishing_check
from liekoszul.lierinehart import (
    WeightedPolyRing,
    ce_d,
    contraction,
    lie_derivative,
    tangent_algebroid,
    validate,
)
from liekoszul.specseq import check_convergence, compute_page, run

import corpus
from corpus import slice_betti
from helpers import betti_by_minors, lmat_flip, lmat_identity, lmat_mul, matrix_rows
from test_specseq import random_filtered_complex


def report(name, ok, started, budget):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s, budget {budget})")
    assert ok, name
    assert elapsed < float(budget.rstrip(" s")), f"{name} exceeded {budget}"


def test_criterion_1_engine_soundness():
    started = time.monotonic()
    rng = random.Random(20240501)
    ok = True
    for _ in range(100):
        f = random_filtered_complex(rng, max_total_dim=12, max_width=4)
        ok = ok and check_convergence(run(f), betti(f.complex))
    report("1 engine soundness: 100 random filtered complexes converge",
           ok, started, "10 s")


def test_criterion_2_hochschild_serre():
    started = time.monotonic()
    instances = corpus.hs_instances()
    ok = len(instances) >= 6
    for name, g, h, m in instances:
        ok = ok and verify(g, h, m).ok
    # Heisenberg limit totals against the independent minor-rank oracle
    heis = next(x for x in instances if x[0] == "heisenberg/center")
    _, g, h, m = heis
    c = ce_complex(g, m)
    dims = [c.dim(k) for k in c.degrees()]
    mats = [matrix_rows(c.d(k)) for k in range(c.lo, c.hi)]
    brute = betti_by_minors(dims, mats)
    ok = ok and brute == [1, 2, 2, 1]
    totals = run(hs_filtered(g, h, m)).infinity_totals()
    ok = ok and [totals.get(n, 0) for n in range(4)] == brute
    report("2 Hochschild-Serre: verify on %d instances, totals (1,2,2,1)"
           % len(instances), ok, started, "5 s")


def test_criterion_3_second_page_degeneration():
    started = time.monotonic()
    ok = True
    for name, algebroid, section, untwisted in corpus.p1_instances():
        model = window_checked(algebroid, section, 1, untwisted)
        rep = second_page_degeneration(model)
        # E2 against the engine's page 2, and the E_inf totals of the pairing
        # against the rank path of `betti`
        ok = ok and dict(rep.unpaired) == compute_page(model.cech, 2).grid \
            and check_convergence(model.cech, betti(total(model.double)))
    # an affine slice as one row: the E_inf totals of its pairing against
    # `betti`, a separate elimination
    for name, lr, section, _ in corpus.lie_rinehart_instances():
        for w in range(0, 4):
            c = lie_koszul(lr, section, w)
            row = DoubleComplex(c.lo, c.hi, 0, 0, {(k, 0): c.dim(k) for k in c.degrees()},
                                {(k, 0): c.d(k) for k in range(c.lo, c.hi)}, {})
            ok = ok and run(row_filtration(row)).infinity_totals() == betti(c)
    report("3 second pages: Cech-Koszul E2 = E_inf and H, affine slices E_inf = H",
           ok, started, "10 s")


def test_criterion_4_formality():
    started = time.monotonic()
    ok = True
    for name, lr, section, _ in corpus.lie_rinehart_instances():
        if name in ("euler-n2", "euler-n3"):
            res = formality_check(lr, section, range(6))
            ok = ok and res.ok
    report("4 formality: reduction quasi-isomorphism on Euler fields n=2,3",
           ok, started, "5 s")


def test_criterion_5_vanishing():
    started = time.monotonic()
    ok = True
    closed_forms = {
        "xline-n1": {0: [1, 0, 0, 0, 0]},
        "euler-n2": {0: [1, 0, 0, 0, 0]},
    }
    for name, lr, section, dim_y in corpus.lie_rinehart_instances():
        tables = slice_betti(lr, section, range(5))
        ok = ok and vanishing_check(tables, dim_y).ok
        for m in range(-lr.rank, 0):
            for w in range(5):
                if name in ("xline-n1", "euler-n2", "euler-n3", "rotation-n2",
                            "unit-component"):
                    ok = ok and tables[w][m] == 0
        if name in closed_forms:
            ok = ok and [tables[w][0] for w in range(5)] == closed_forms[name][0]
    report("5 vanishing below degree -dim Y with closed-form slice dims", ok, started, "20 s")


def test_criterion_6_zero_section_remark():
    started = time.monotonic()
    ok = True
    for d in range(-2, 4):
        a = atiyah_algebroid(d)
        model = window_checked(a, EquivariantSection(a, (0, 0, 0)), 1)
        hdims = equivariant_H(model)
        grid = a.row_grid()
        for k, v in hdims.items():
            ok = ok and v == sum(val for (p, q), val in grid.items() if p + q == k)
    report("6 zero-section cohomology equals the first-page direct sum, "
           "d in -2..3", ok, started, "10 s")


def test_criterion_7_corollary_instance():
    started = time.monotonic()
    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (0, 1, 0))
    twisted = corollary_check(window_checked(a0, v, 1))
    untwisted = corollary_check(window_checked(a0, v, 1, untwisted=True))
    ok = (twisted.predicted == {0: 2, -1: 2} and twisted.match
          and untwisted.predicted == {0: 2} and untwisted.match)
    report("7 fixed-point decomposition for z d/dz on O(0), both code paths",
           ok, started, "20 s")


def test_criterion_8_structural_identities():
    started = time.monotonic()
    ok = True
    for name, lr, section, _ in corpus.lie_rinehart_instances():
        ok = ok and validate(lr).ok
        for w in range(0, 3):
            for p in range(0, lr.rank):
                ok = ok and (ce_d(lr, p + 1, w) @ ce_d(lr, p, w)).is_zero()
            for p in range(0, lr.rank + 1):
                iv2 = (contraction(lr, section, p - 1, w + section.weight)
                       @ contraction(lr, section, p, w))
                ok = ok and iv2.is_zero()
                cartan = lie_derivative(lr, section, p, w)
                direct = (ce_d(lr, p - 1, w + section.weight)
                          @ contraction(lr, section, p, w)
                          + contraction(lr, section, p + 1, w) @ ce_d(lr, p, w))
                ok = ok and cartan == direct
    for d in range(-2, 4):
        a = atiyah_algebroid(d)
        ok = ok and lmat_mul(a.transition, lmat_flip(a.transition)) == lmat_identity(2)
    # D^2 = 0 on the Cech-Koszul total of every P^1 case, which the builder
    # does not check
    for _, payload in corpus.case_payloads("p1_bundle"):
        algebroid, section, untwisted, _ = build_p1(payload)
        for window in (1, 2, 3):
            t = total(cech_koszul(algebroid, section, window, untwisted).double)
            for n in range(t.lo, t.hi - 1):
                ok = ok and (t.d(n + 1) @ t.d(n)).is_zero()
    # window stabilization: every model's dims are reproduced at window + 1
    for name, algebroid, section, untwisted in corpus.p1_instances():
        one = betti(total(cech_koszul(algebroid, section, 1, untwisted).double))
        two = betti(total(cech_koszul(algebroid, section, 2, untwisted).double))
        ok = ok and one == two
    report("8 structural identities: d^2, i_V^2, Cartan, cocycles, D^2 on P^1, windows",
           ok, started, "30 s")


def test_criterion_9_euler_characteristic_invariance():
    started = time.monotonic()
    a0 = atiyah_algebroid(0)
    sections = [
        EquivariantSection(a0, (0, 0, 0)),
        EquivariantSection(a0, (0, 1, 0)),
        EquivariantSection(a0, (0, 1, 0), scalar0=["1"]),
        EquivariantSection(a0, (-1, 0, 1)),
        EquivariantSection(a0, (0, 0, 1)),
        EquivariantSection(a0, (1, 0, 0)),
    ]
    chis = []
    for s in sections:
        h = equivariant_H(cech_koszul(a0, s, 1))
        chis.append(sum((-v if k % 2 else v) for k, v in h.items()))
    ok = len(set(chis)) == 1
    report("9 Euler characteristic independent of the section (= zero-section "
           "value)", ok, started, "20 s")


def test_criterion_10_identities_proved_on_generators():
    started = time.monotonic()
    tangent5 = tangent_algebroid(WeightedPolyRing(5, (1,) * 5))
    ok = validate(tangent5).ok and validate(corpus.sl2_on_plane()[0]).ok
    report("10 Lie-Rinehart identities on all of L, checked on generators: "
           "tangent algebroid in 5 variables, sl2 on the plane", ok, started, "0.5 s")
