"""The package against the reference engines in `oracle`.

The spectral-sequence engine (one persistence pairing) against the
subquotient engine: every page's dims, every d_r rank, and the stable and
degeneration pages must agree.  The Chevalley-Eilenberg builders against
the scanning builders: the matrices must be equal, not just their ranks."""

import random

import pytest

import corpus
from liekoszul.cechp1 import cech_koszul
from liekoszul.complexes import FilteredComplex, column_filtration, row_filtration
from liekoszul.cli import build_lie_algebra
from liekoszul.exactla import Subspace
from liekoszul.hochserre import (
    GModule,
    LieIdeal,
    _action_on_h_cochains,
    _adapted,
    ce_complex,
    hs_filtered,
)
from liekoszul.lierinehart import ce_d
from liekoszul.specseq import run
from oracle import (
    Flag,
    action_on_h_cochains_scan,
    ce_complex_scan,
    ce_d_scan,
    flag_of,
    oracle_run,
)
from test_specseq import random_flag


def assert_matches_oracle(f, flag):
    res, ref = run(f), oracle_run(flag)
    assert [p.r for p in res.pages] == [p.r for p in ref.pages]
    for page, ref_page in zip(res.pages, ref.pages):
        assert page.dims() == ref_page.dims(), f"dims differ on page {page.r}"
        assert page.ranks == ref_page.ranks(), f"d_r ranks differ on page {page.r}"
    assert res.stable_page == ref.stable_page
    assert res.degeneration_page == ref.degeneration_page


def test_random_flags_match_oracle():
    # The oracle runs on the original subspace flags, so the conversion to
    # an adapted basis in FilteredComplex.from_flag is checked as well.
    rng = random.Random(20240501)
    for _ in range(300):
        cplx, p_lo, p_hi, spaces = random_flag(rng)
        f = FilteredComplex.from_flag(cplx, p_lo, p_hi, spaces)
        assert_matches_oracle(f, Flag(cplx, p_lo, p_hi, spaces))


@pytest.mark.parametrize("g,h,m", [pytest.param(*x[1:], id=x[0])
                                   for x in corpus.hs_instances()])
def test_hs_corpus_matches_oracle(g, h, m):
    f = hs_filtered(g, h, m)
    assert_matches_oracle(f, flag_of(f))


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("algebroid,section,untwisted", [pytest.param(*x[1:], id=x[0])
                                                        for x in corpus.p1_instances()])
def test_p1_filtrations_match_oracle(algebroid, section, untwisted, window):
    double = cech_koszul(algebroid, section, window, untwisted).double
    for f in (column_filtration(double), row_filtration(double)):
        assert_matches_oracle(f, flag_of(f))


@pytest.mark.parametrize("lr", [pytest.param(lr, id=name)
                                for name, lr in corpus.ce_algebroids()])
def test_ce_d_matches_scanning_builder(lr):
    for w in range(-2, 7):
        for p in range(-1, lr.rank + 1):
            assert ce_d(lr, p, w) == ce_d_scan(lr, p, w), f"p={p}, w={w}"


@pytest.mark.parametrize("g,m", [pytest.param(g, m, id=name)
                                 for name, g, m in corpus.ce_lie_algebras()])
def test_ce_complex_matches_scanning_builder(g, m):
    c, ref = ce_complex(g, m), ce_complex_scan(g, m)
    for p in range(g.dim):
        assert c.d(p) == ref.d(p), f"p={p}"


def _hs_action_instances():
    out = [x[1:] for x in corpus.hs_instances()]
    for _, payload in corpus.case_payloads("lie_algebra"):
        g, h, m = build_lie_algebra(payload)
        if h is not None:
            out.append((g, h, m))
    # the ideal (y_1, y_2, z) of heisenberg5, on which x_1 and x_2 act nontrivially
    heis5 = corpus.heisenberg(2)
    out.append((heis5, LieIdeal(heis5, Subspace(5, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                                    [0, 0, 0, 0, 1]])),
                GModule.trivial(heis5)))
    return out


def test_action_on_h_cochains_matches_scanning_builder():
    for g, h, m in _hs_action_instances():
        g2, m2, k = _adapted(g, h, m)
        for x in range(k, g.dim):
            for q in range(k + 1):
                assert (_action_on_h_cochains(g2, m2, k, x, q)
                        == action_on_h_cochains_scan(g2, m2, k, x, q)), (x, q)
