"""Seeded input generator for the benchmark.

Writes `raw_complex`, `lie_algebra` and `lie_rinehart` example files into a
directory and returns, next to each path, the closed-form answers the
benchmark checks the program's report against.  The program only ever sees
the file paths.  The same seed writes the same files.

The seed changes values, not the amount of work: the combinatorial skeleton
of each random complex (shape, levels, pairing, sparsity of the change of
basis) comes from a fixed schedule, and the seed draws the rational entries,
so that runs on different seeds stay comparable.

    python3 perfbench/gen.py --seed 7 --out DIR

writes every generated input the benchmark uses for that seed.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

# (number of degrees, dims, filtration width) of the criterion-1 shape:
# total dimension <= 12, width <= 4.  Cycled so every seed gets the same mix.
RANDOM_SHAPES = (
    (3, (4, 4, 4), 4),
    (3, (3, 5, 4), 3),
    (2, (6, 6), 4),
    (3, (2, 6, 4), 4),
    (3, (4, 5, 3), 2),
    (2, (5, 6), 3),
)
# Random complexes in the benchmark's inputs (workload small-filtered).
RANDOM_COMPLEXES = 24


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1, 2, -2, 3, 5, -7)), rng.choice((1, 1, 2, 3)))


def _dense(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice((1, 2, 3)))


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of an invertible square matrix."""
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [a * inv for a in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def random_filtered_complex(skeleton: random.Random, rng: random.Random, shape, name: str):
    """A filtered complex with a general (non-coordinate) flag.

    Start from a paired differential on a basis with one filtration level
    per vector (pair targets sit at a level >= the source's), then apply a
    filtration-preserving change of basis with dense rational entries.
    `skeleton` draws the levels, the pairing and which entries are nonzero;
    `rng` draws the values.  Returns the example payload and its expected
    Betti numbers and degeneration page: each pair kills one class in each
    of its two degrees, and a pair of level gap g is hit by d_g.
    """
    degrees, dims, width = shape
    levels = [[skeleton.randrange(width) for _ in range(d)] for d in dims]
    raw = []
    pairs_out = [0] * degrees
    pairs_in = [0] * degrees
    max_gap = -1
    targeted = set()
    for k in range(degrees - 1):
        d = [[Fraction(0)] * dims[k] for _ in range(dims[k + 1])]
        free = list(range(dims[k + 1]))
        skeleton.shuffle(free)
        for i in range(dims[k]):
            if (k, i) in targeted or skeleton.random() < 0.4:
                continue
            j = next((c for c in free if levels[k + 1][c] >= levels[k][i]), None)
            if j is None:
                continue
            free.remove(j)
            targeted.add((k + 1, j))
            d[j][i] = _nonzero(rng)
            pairs_out[k] += 1
            pairs_in[k + 1] += 1
            max_gap = max(max_gap, levels[k + 1][j] - levels[k][i])
        raw.append(d)
    # Change of basis per degree: P e_j may involve e_i only when
    # level(i) >= level(j), with a nonzero diagonal, so P keeps every level.
    bases = []
    for k in range(degrees):
        n = dims[k]
        p = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            p[i][i] = _nonzero(rng)
            for j in range(n):
                if (i != j and (levels[k][i], j) > (levels[k][j], i)
                        and skeleton.random() < 0.6):
                    p[i][j] = _dense(rng)
        bases.append(p)
    diffs = [_matmul(_matmul(bases[k + 1], raw[k]), _inverse(bases[k]))
             for k in range(degrees - 1)]
    spaces = {}
    for k in range(degrees):
        for lvl in range(width + 1):
            spaces[f"{lvl},{k}"] = [[_rat(bases[k][r][i]) for r in range(dims[k])]
                                    for i in range(dims[k]) if levels[k][i] >= lvl]
    payload = {
        "kind": "raw_complex",
        "name": name,
        "lo": 0,
        "dims": list(dims),
        "differentials": [[[_rat(x) for x in row] for row in d] for d in diffs],
        "filtration": {"p_lo": 0, "p_hi": width - 1, "spaces": spaces},
    }
    betti = {str(k): dims[k] - pairs_out[k] - pairs_in[k] for k in range(degrees)}
    return payload, {"betti": betti, "degeneration_page": max_gap + 1}


def heisenberg_betti(n: int) -> dict[str, int]:
    """Betti numbers of the Heisenberg algebra of dimension 2n+1:
    C(2n,p) - C(2n,p-2) for p <= n, and Poincare duality above."""
    low = [comb(2 * n, p) - (comb(2 * n, p - 2) if p >= 2 else 0) for p in range(n + 1)]
    return {str(p): low[p] if p <= n else low[2 * n + 1 - p] for p in range(2 * n + 2)}


def heisenberg(rng: random.Random, n: int, ideal: str, name: str):
    """Heisenberg algebra x_1..x_n, y_1..y_n, z with [x_i, y_i] = c_i z for
    seeded nonzero rationals c_i; ideal "center" is span(z) and "abelian"
    is span(y_1..y_n, z)."""
    dim = 2 * n + 1
    brackets = {}
    for i in range(n):
        vec = ["0"] * dim
        vec[2 * n] = _rat(_nonzero(rng))
        brackets[f"{i},{n + i}"] = vec
    members = [2 * n] if ideal == "center" else list(range(n, 2 * n + 1))
    ideal_vectors = [["1" if j == m else "0" for j in range(dim)] for m in members]
    payload = {"kind": "lie_algebra", "name": name, "dim": dim,
               "brackets": brackets, "ideal": ideal_vectors}
    return payload, {"betti": heisenberg_betti(n)}


def tangent_with_section(rng: random.Random, nvars: int, section_terms, w_max: int,
                         name: str):
    """Tangent algebroid of QQ[x_1..x_n] (unit weights) with the section
    sum_i a_i m_i d/dx_{j_i} for seeded nonzero a_i; `section_terms` lists
    (component j, exponent tuple).  The sections used have the origin as
    their zero scheme."""
    zero = ",".join("0" * nvars)
    anchor = [[{zero: "1"} if i == j else {} for j in range(nvars)] for i in range(nvars)]
    section = [{} for _ in range(nvars)]
    for j, exps in section_terms:
        section[j][",".join(str(e) for e in exps)] = _rat(_nonzero(rng))
    payload = {
        "kind": "lie_rinehart",
        "name": name,
        "variable_weights": [1] * nvars,
        "generator_weights": [-1] * nvars,
        "anchor": anchor,
        "brackets": {},
        "section": section,
        "dim_y": 0,
        "weights": [0, w_max],
    }
    return payload, {"w_max": w_max}


def generate(seed: int, out_dir: Path, n_random: int) -> dict[str, list]:
    """Write every generated input for `seed`; return {kind: [(path, facts)]}."""
    rng = random.Random(seed)
    out: dict[str, list] = {"raw_complex": [], "lie_algebra": [], "lie_rinehart": []}

    def emit(kind, filename, payload, facts):
        path = out_dir / filename
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        out[kind].append((path, facts))

    for i in range(n_random):
        payload, facts = random_filtered_complex(
            random.Random(i), rng, RANDOM_SHAPES[i % len(RANDOM_SHAPES)], f"random-{i}")
        emit("raw_complex", f"random-{i:03d}.json", payload, facts)
    for n in (1, 2):
        for ideal in ("center", "abelian"):
            name = f"heisenberg{2 * n + 1}-{ideal}"
            emit("lie_algebra", f"{name}.json", *heisenberg(rng, n, ideal, name))
    emit("lie_rinehart", "euler-n3.json", *tangent_with_section(
        rng, 3, [(0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))], 7, "euler-n3"))
    emit("lie_rinehart", "rotation-n2.json", *tangent_with_section(
        rng, 2, [(0, (0, 1)), (1, (1, 0))], 7, "rotation-n2"))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for kind, items in generate(args.seed, args.out, RANDOM_COMPLEXES).items():
        for path, facts in items:
            print(kind, path, json.dumps(facts, sort_keys=True))


if __name__ == "__main__":
    main()
