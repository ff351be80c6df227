"""The benchmark's workloads: fixed lists of `qgraph` CLI operations made from a seed.

Every operation runs in its own interpreter, so lru caches start cold and the
package import is paid as set-up, as it is for a user.  Each workload is built
to stress different layers:

sweep        exact verification sweeps over small colors.  Thousands of small
             operands with heavy reuse: symmetry orbits and shifted colorings
             hit the invariant caches, LaurentRat arithmetic runs its gcd
             normalisation, and annihilation runs apoly's thread pool.
large-color  single exact evaluations at colors from a high band.  A few calls
             that build values of 800-2700 terms with 50-100 bit
             coefficients; no reuse and no gcd.
numeric      growth tables, saddle solves, sampled residuals and the symbolic
             elimination.  Float, mpmath and MultiPoly work; no large exact
             Laurent kernel.

The seed reaches the program only as generated argv.  Sweep grids are fixed,
so the seed does not change that workload.  For large-color the seed picks a
symmetry image of each coloring (a permutation of the theta colors, an
element of the tetrahedron's symmetry group for tet), which changes the argv
and the summation order but not the amount of work: the cost of a free pick
from the band varies 3x with the colors, which would make the spread between
seeds larger than any bound worth keeping.  For numeric the seed becomes the
`--seed` of the samplers.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import NamedTuple, Optional

from oracle import TET_EDGE_ENDS


class Op(NamedTuple):
    argv: tuple
    # ("theta", colors) or ("tet", colors, primed): checked against the oracle
    value: Optional[tuple] = None


HBAR_LADDER = ",".join(repr(-(2.0 ** -k)) for k in range(5, 11))  # -2^-5 ... -2^-10
HBAR_TAIL = ",".join(repr(-(2.0 ** -k)) for k in range(7, 11))  # -2^-7 ... -2^-10


def sweep(seed: int) -> list:
    argvs = [
        "verify theta-recursion --max 12",
        "verify annihilation --graph theta --edge a --max 10",
        "verify annihilation --graph theta --edge b --max 10",
        "verify annihilation --graph theta --edge c --max 10",
        "verify annihilation --graph tet --edge 1 --max 4",
        "verify symmetry --max 4",
        "verify recursum --max 4",
        "verify hypergeom --max 3",
        "verify reduction --max 8",
    ]
    return [Op(tuple(a.split())) for a in argvs]


# colorings from the band, theta entries 56-66 and tet entries 20-28, each
# with 6 (theta) or 24 (tet) distinct symmetry images
THETA_COLORS = ((56, 60, 64), (58, 62, 66))
TET_COLORS = (
    ((24, 26, 22, 20, 28, 22), True),
    ((22, 24, 26, 20, 28, 26), False),
)


def tet_images(col) -> list:
    """The 24 images of a tet coloring under permutations of the graph's vertices."""
    verts = sorted({v for ends in TET_EDGE_ENDS for v in ends})
    index = {frozenset(ends): i for i, ends in enumerate(TET_EDGE_ENDS)}
    out = []
    for perm in permutations(verts):
        move = dict(zip(verts, perm))
        image = [0] * len(col)
        for i, (a, b) in enumerate(TET_EDGE_ENDS):
            image[index[frozenset((move[a], move[b]))]] = col[i]
        out.append(tuple(image))
    return out


def large_color(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for col in THETA_COLORS:
        col = tuple(rng.sample(col, len(col)))
        ops.append(Op(("theta", "-c", ",".join(map(str, col))), ("theta", col)))
    for col, primed in TET_COLORS:
        col = rng.choice(tet_images(col))
        flag = ("--primed",) if primed else ()
        ops.append(Op(("tet",) + flag + ("-c", ",".join(map(str, col))), ("tet", col, primed)))
    return ops


def numeric(seed: int) -> list:
    s = str(seed)
    argvs = [
        ("asymptotics", "tet", "--x", "0.35,0.35,0.35,0.35,0.35,0.35", "--hbar", HBAR_LADDER),
        ("asymptotics", "tet", "--x", "0.3,0.35,0.4,0.3,0.35,0.4", "--hbar", HBAR_TAIL),
        ("asymptotics", "theta", "--x", "0.5,0.5,0.5", "--hbar", HBAR_LADDER),
        ("asymptotics", "theta", "--x", "0.4,0.5,0.6", "--hbar", HBAR_LADDER),
        ("saddle", "--x", "0.35,0.35,0.35,0.35,0.35,0.35"),
        ("lagrangian", "--graph", "tet", "--samples", "20", "--seed", s),
        ("residual", "--graph", "tet", "--samples", "20", "--seed", s),
        ("--seed", s, "verify", "eliminate", "--samples", "20"),
        ("verify", "classical-limit", "--graph", "tet"),
    ]
    return [Op(a) for a in argvs]


WORKLOADS = {"sweep": sweep, "large-color": large_color, "numeric": numeric}
