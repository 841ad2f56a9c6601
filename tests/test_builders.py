"""Builder output is proved here, not on every run.

The package's builders construct through the private `exactla._built`,
which runs a class's shape checks only and, for a matrix, no check at all
(`tests/test_storage.py` proves those).  Each invariant
they leave out holds by construction once the builder's input is valid:

- i_V^2 = 0 on a Koszul slice, by the antisymmetry of contraction on an
  exterior algebra, and the reduction map is a chain map for every section
  (`koszul.reduction_map`);
- d^2 = 0 on a Chevalley-Eilenberg complex follows from Jacobi and the
  module identity, which `LieAlgebra` and `GModule` prove on input (Weibel
  1994, 7.7), and C(h, M) is a block of it; the ideal filtration is
  d-stable because h is an ideal;
- the Cech-Koszul D^2 = 0 follows from i_V^2 = 0 on each open set and the
  gluing identities (tested in `test_cechp1.py`);
- the coordinate filtrations of a double complex are d-stable, and the
  adapted complex of `from_flag` is a change of basis of a complex.

Each test below passes builder output through the public, checking
constructor (`checked`), on the corpora and on seeded random input; a
builder filtration must also store the levels that constructor would, as
int tuples in range.  A spy shows that valid input to `koszul`, `p1` and
`hs` makes no matrix product and calls no public constructor.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
from liekoszul import cechp1, hochserre
from liekoszul.cli import build_p1, main
from liekoszul.complexes import (
    ChainMap,
    CochainComplex,
    DoubleComplex,
    FilteredComplex,
    column_filtration,
    row_filtration,
    total,
)
from liekoszul.exactla import ExactMatrix, Subspace
from liekoszul.koszul import reduction_map
from liekoszul.lierinehart import SectionV, WeightedPolyRing, tangent_algebroid

from helpers import cell_dim, dh, double, dv, flag_rows
from test_specseq import random_flag

CASES = Path(__file__).resolve().parent.parent / "cases"


def checked(x):
    """x rebuilt through the public constructor of its class, which checks
    every invariant and raises ComplexError on the first that fails."""
    if isinstance(x, CochainComplex):
        return CochainComplex(x.lo, x.hi, [x.dim(k) for k in x.degrees()],
                              [x.d(k) for k in range(x.lo, x.hi)])
    if isinstance(x, ChainMap):
        lo, hi = min(x.source.lo, x.target.lo), max(x.source.hi, x.target.hi)
        return ChainMap(checked(x.source), checked(x.target),
                        {k: x.component(k) for k in range(lo, hi + 1)})
    if isinstance(x, DoubleComplex):
        cells = [(p, q) for p in range(x.p_lo, x.p_hi + 1) for q in range(x.q_lo, x.q_hi + 1)]
        return DoubleComplex(x.p_lo, x.p_hi, x.q_lo, x.q_hi,
                             {c: cell_dim(x, *c) for c in cells},
                             {c: dh(x, *c) for c in cells}, {c: dv(x, *c) for c in cells})
    if isinstance(x, FilteredComplex):
        out = FilteredComplex(checked(x.complex), x.p_lo, x.p_hi, x.levels)
        assert out.levels == x.levels
        assert all(type(lv) is tuple and all(type(p) is int for p in lv)
                   for lv in x.levels.values())
        return out
    raise TypeError(type(x).__name__)


# -- the runs that leave the proofs to these tests ------------------------------

VALID_RUNS = {
    **{f"koszul-{case}": ["koszul", CASES / f"{case}.json", "--weights", "0..3"]
       for case in ("euler-n2", "xline-n1")},
    **{f"p1-{path.stem}-w{window}": ["p1", path, "--window", str(window)]
       for path in sorted(CASES.glob("p1-*.json")) for window in (1, 2)},
    **{f"hs-{case}": ["hs", CASES / f"{case}.json"]
       for case in ("heisenberg-center", "aff1-module")},
}


@pytest.mark.parametrize("args", VALID_RUNS.values(), ids=VALID_RUNS.keys())
def test_valid_runs_make_no_product_and_no_checked_construction(monkeypatch, capsys, args):
    calls = []
    real = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda x, y: calls.append("__matmul__") or real(x, y))
    for cls in (CochainComplex, DoubleComplex, FilteredComplex, ChainMap):
        def spy(self, *a, init=cls.__init__, name=cls.__name__):
            calls.append(name)
            init(self, *a)

        monkeypatch.setattr(cls, "__init__", spy)
    assert main([str(a) for a in args]) == 0
    capsys.readouterr()
    assert calls == []


# -- Koszul slices and reduction maps --------------------------------------------

def _seeded_sections(rng, count):
    """(presentation, section) with random coefficients on the tangent
    algebroids in 2 and 3 variables: weight 0 or 1, some components zero."""
    out = []
    for _ in range(count):
        n = rng.choice((2, 3))
        ring = WeightedPolyRing(n, (1,) * n)
        lr = tangent_algebroid(ring)
        degree = rng.choice((1, 2))
        comps = [{m: rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
                  for m in ring.monomials(degree) if rng.random() < 0.6}
                 if rng.random() < 0.8 else {} for _ in range(n)]
        out.append((lr, SectionV(lr, comps)))
    return out


KOSZUL = ([pytest.param(lr, v, id=name) for name, lr, v in corpus.formality_instances()]
          + [pytest.param(lr, v, id=f"seeded-{i}")
             for i, (lr, v) in enumerate(_seeded_sections(random.Random(20261019), 8))])


@pytest.mark.parametrize("lr,v", KOSZUL)
def test_koszul_slices_and_reduction_maps_pass_the_checks(lr, v):
    # checks i_V^2 = 0 on the slice (lie_koszul), the zero differential of
    # the target, and the chain condition of the reduction map
    for w in range(-1, 5):
        checked(reduction_map(lr, v, w))


# -- Chevalley-Eilenberg complexes, C(h, M) and the ideal filtration ------------

def _seeded_algebras(rng, count):
    """(g, h, M): g two-step nilpotent on a generators and c central ones,
    with random brackets of the generators into the center (Jacobi holds,
    as every double bracket is zero), h a random subspace containing the
    center (an ideal, as it contains [g, g]), M trivial."""
    out = []
    for _ in range(count):
        a, c = rng.choice(((2, 1), (3, 1), (3, 2), (4, 1)))
        n = a + c
        brackets = {(i, j): [0] * a + [rng.choice((0, 1, -1, 2, Fraction(1, 3))) for _ in range(c)]
                    for i in range(a) for j in range(i + 1, a)}
        g = hochserre.LieAlgebra(n, brackets)
        vectors = [[int(i == k) for i in range(n)] for k in range(a, n)]
        vectors += [[rng.choice((0, 1, -1)) for _ in range(a)] + [0] * c
                    for _ in range(rng.randrange(a))]
        out.append((g, hochserre.LieIdeal(g, Subspace(n, vectors)), hochserre.GModule.trivial(g)))
    return out


HS = ([pytest.param(*x[1:], id=x[0]) for x in corpus.hs_instances()]
      + [pytest.param(*x, id=f"seeded-{i}")
         for i, x in enumerate(_seeded_algebras(random.Random(20261019), 6))])


@pytest.mark.parametrize("g,m", [pytest.param(*x[1:], id=x[0])
                                 for x in corpus.ce_lie_algebras()]
                         + [pytest.param(x[0], x[2], id=f"seeded-{i}")
                            for i, x in enumerate(_seeded_algebras(random.Random(7), 6))])
def test_ce_complexes_pass_the_checks(g, m):
    checked(hochserre.ce_complex(g, m))


@pytest.mark.parametrize("g,h,m", HS)
def test_hs_complexes_and_filtrations_pass_the_checks(monkeypatch, g, h, m):
    # every complex `verify` builds: the adapted complex, its ideal
    # filtration, C(h, M) and the complex of g/h with values in each
    # H^q(h, M), whose module `_built` makes unchecked
    built = []
    for name in ("ce_complex", "_filtered", "_h_blocks"):
        def spy(*args, real=getattr(hochserre, name)):
            out = real(*args)
            built.append(out[0] if isinstance(out, tuple) else out)
            return out

        monkeypatch.setattr(hochserre, name, spy)
    hochserre.verify(g, h, m)
    assert sum(isinstance(x, FilteredComplex) for x in built) == 1
    assert sum(isinstance(x, CochainComplex) for x in built) >= 3
    for x in built:
        checked(x)


# -- P^1 models and the coordinate filtrations -----------------------------------

def _p1_models():
    """(id, model) for every cases/p1-* file at windows 1-3 and the P^1
    corpus at windows 1 and 2."""
    out = []
    for path in sorted(CASES.glob("p1-*.json")):
        algebroid, section, untwisted, _ = build_p1(json.loads(path.read_text()))
        out += [(f"{path.stem}-w{w}", (algebroid, section, w, untwisted)) for w in (1, 2, 3)]
    out += [(f"{name}-w{w}", (a, s, w, u))
            for name, a, s, u in corpus.p1_instances() for w in (1, 2)]
    return [pytest.param(args, id=name) for name, args in out]


@pytest.mark.parametrize("args", _p1_models())
def test_p1_models_and_their_filtrations_pass_the_checks(args):
    model = cechp1.cech_koszul(*args)
    cells = double(model)   # the checking constructor, on the model's blocks
    checked(total(model.double))
    checked(column_filtration(cells))
    checked(row_filtration(cells))


def test_coordinate_filtrations_of_a_raw_double_complex_pass_the_checks():
    dims = {(0, 0): 2, (1, 0): 1, (0, 1): 2, (1, 1): 1}
    dh = ExactMatrix.from_rows([[1, 0]])
    d = DoubleComplex.from_commuting(0, 1, 0, 1, dims, {(0, 0): dh, (0, 1): dh},
                                     {(0, 0): ExactMatrix.from_rows([[0, 0], [0, 1]])})
    checked(column_filtration(d))
    checked(row_filtration(d))


# -- from_flag ---------------------------------------------------------------------

def test_from_flag_adapted_complexes_pass_the_checks():
    rng = random.Random(20261019)
    for _ in range(200):
        cplx, p_lo, p_hi, spaces = random_flag(rng)
        checked(FilteredComplex.from_flag(cplx, p_lo, p_hi, flag_rows(spaces)).complex)
