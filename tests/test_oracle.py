"""The package's spectral-sequence engine (one persistence pairing) against
the reference subquotient engine in `oracle`: every page's dims, every d_r
rank, and the stable and degeneration pages must agree."""

import random

import pytest

import corpus
from liekoszul.cechp1 import cech_koszul
from liekoszul.complexes import FilteredComplex, column_filtration, row_filtration
from liekoszul.hochserre import hs_filtered
from liekoszul.specseq import run
from oracle import Flag, flag_of, oracle_run
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
