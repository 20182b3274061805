"""Seeded problem instances for the three benchmark workloads.

Instances are plain numpy arrays and numbers, so the checking side never
needs ``conecert`` types.  The same ``(workload, seed)`` always gives the
same instance list, and the sizes and the mix of operations never depend
on the seed.

The solver work of an NNLS-based operation depends on its data (how many
generators end up active, how many pivots that takes), so a seed that
drew fresh cones would change the amount of work per pass by 15% from
one seed to the next.  The linear-algebra problems are therefore drawn
once from a fixed base stream, and the seed applies a random rotation of
the space and a random order of the generators: every seed sees
different numbers and the same geometry.  Shape targets are mirrored and
scaled in the same spirit, and quadrature intervals are drawn from the
seed directly, since a rule's cost does not depend on its interval.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.optimize import linprog

WORKLOADS = ("cone-dense", "approx", "cli-small")

# each workload draws from its own streams: default_rng([key, 0]) for the
# base problems and default_rng([key, seed]) for everything seeded
STREAM_KEYS = {"cone-dense": 1712, "approx": 10250, "cli-small": 2017}
BASE_SEED = 0

# cone-dense: dense Gaussian cones, every generator in the half-space x_0 > 0.
# Per pass: the dual projections are rotated copies of one base problem, so
# they form one plateau of cost.  Eight operations cost less (the generated
# projections, the separated Farkas problems and two easy in-cone ones) and
# eight cost more (the other in-cone Farkas problems), so the median sits in
# the middle of the plateau and the 90th percentile inside the costliest
# class.  The generated projections are drawn last, so their count does not
# change the other draws.
DENSE_D, DENSE_M = 60, 300
DENSE_MIX = {"project_dual": 8, "farkas-in": 10, "farkas-out": 2, "project_generated": 4}

# approx: quadrature degree -> rules per pass, and shape (n, r) pairs with
# targets per pair.  Degrees 36-40 are the costliest class (about a fifth
# of the operations), so the 90th percentile falls inside it.
QUAD_DEGREES = {10: 1, 16: 1, 22: 1, 28: 1, 36: 4, 38: 4, 40: 4}
SHAPE_NS = tuple(range(5, 13))
SHAPE_RS = (0, 1, 2)
SHAPE_PER_PAIR = 2

# cli-small: problem sizes and the number of files of each kind per pass
CLI_D, CLI_M = 6, 12
# Sorted by cost, the cheap kinds (membership, farkas, project, quadrature,
# shape) come first, then the known fault, then the pairs files.  The
# median falls among the dual-projection and the four equal quadrature
# files, which cost about the same; the 90th percentile falls inside the
# six pairs files.
CLI_MIX = (
    ("project-dual", 3),
    ("project-generated", 2),
    ("farkas", 3),
    ("membership-cone", 2),
    ("membership-span", 2),
    ("quadrature", 4),
    ("shape", 2),
    ("pairs", 6),
)

# n = 3, r = 0, target t^3: the program's continuum check refuses its own
# grid projection (checkgrid_feasibility 7.7e-6 against 1e-7), so cli.run
# returns 2.  Kept in every pass as a known failure.
KNOWN_FAULT = {"kind": "shape", "n": 3, "r": 0, "target": {"monomial": [0.0, 0.0, 0.0, 1.0]}}


def chebyshev_lobatto(count: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [-1, 1], endpoints included."""
    return -np.cos(np.pi * np.arange(count) / (count - 1))


def _pointed_generators(rng, d: int, m: int) -> np.ndarray:
    """d x m Gaussian generators lifted into the half-space x_0 > 0."""
    K = rng.standard_normal((d, m))
    K[0] = np.abs(K[0]) + 1.0
    return K


class Orientation:
    """A random rotation of R^d and a random order of m generators."""

    def __init__(self, rng, d: int, m: int):
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        self.q = q * np.sign(np.diag(r))
        self.order = rng.permutation(m)

    def vector(self, x: np.ndarray) -> np.ndarray:
        return self.q @ x

    def columns(self, K: np.ndarray) -> np.ndarray:
        return self.q @ K[:, self.order]


def _farkas_rhs(rng, K: np.ndarray, system1: bool) -> np.ndarray:
    """A sparse positive combination of generators, or its negative.

    The cone is pointed, so the negative lies well outside it and the
    alternative is decided far from the threshold.
    """
    m = K.shape[1]
    cols = rng.choice(m, size=max(2, m // 15), replace=False)
    b = K[:, cols] @ rng.uniform(0.5, 1.5, size=cols.size)
    return b if system1 else -b


def cone_dense(base, rng) -> list:
    dual = (_pointed_generators(base, DENSE_D, DENSE_M), base.standard_normal(DENSE_D))
    out = []
    for name, count in DENSE_MIX.items():
        for _ in range(count):
            o = Orientation(rng, DENSE_D, DENSE_M)
            if name == "project_dual":
                K, x = dual
            else:
                K = _pointed_generators(base, DENSE_D, DENSE_M)
            if name.startswith("farkas"):
                b = _farkas_rhs(base, K, system1=name == "farkas-in")
                out.append(("farkas", {"A": o.columns(K).T, "b": o.vector(b)}))
            else:
                x = dual[1] if name == "project_dual" else base.standard_normal(DENSE_D)
                out.append((name, {"K": o.columns(K), "x": o.vector(x)}))
    order = np.random.default_rng(BASE_SEED).permutation(len(out))
    return [out[i] for i in order]


def _interval(rng) -> tuple:
    """[a, b] with a and b multiples of 1/8.

    ``chebyshev_points`` can round an endpoint node one ulp outside
    [a, b] for general endpoints (see CHANGES.md); with dyadic endpoints
    the mapping is exact.  The cost of a rule does not depend on [a, b].
    """
    a = int(rng.integers(-16, 9)) / 8.0
    return a, a + int(rng.integers(4, 25)) / 8.0


def _shape_target(base, rng, n: int, r: int) -> np.ndarray:
    """A base target, mirrored t -> -t and scaled by the seed.

    Both maps carry the shape cone onto itself (for odd r the mirror also
    flips the sign), so the projection's work does not depend on the seed.
    """
    c = base.standard_normal(n + 1)
    if rng.random() < 0.5:
        c = c * (-1.0) ** (np.arange(n + 1) + r)
    return c * float(rng.uniform(0.5, 2.0))


def approx(base, rng) -> list:
    quad = [
        ("quadrature", {"n": n, "interval": _interval(rng), "grid_size": 8 * (n + 1)})
        for n, count in QUAD_DEGREES.items()
        for _ in range(count)
    ]
    shape = [
        ("shape", {"n": n, "r": r, "grid": chebyshev_lobatto(20 * (n + 1)), "target": _shape_target(base, rng, n, r)})
        for n in SHAPE_NS
        for r in SHAPE_RS
        for _ in range(SHAPE_PER_PAIR)
    ]
    # interleave so a pass never runs one long block of a single kind
    step = len(shape) // len(quad)
    out = []
    for i, q in enumerate(quad):
        out.append(q)
        out.extend(shape[i * step:(i + 1) * step])
    return out


def _pairs_problem(rng, o: Orientation) -> dict:
    """A consistent system <s_j, x> <= p_j (the origin is strictly feasible).

    r sits at a clear margin above or below max <b, x> over the system, or
    anywhere when that maximum is unbounded, so the implication is decided
    far from any tolerance.  The program samples random points against the
    system; with p_j between 1 and 1.5 times ||s_j|| about one in ten is
    feasible, which puts these files above every other kind in cost.
    """
    S = o.columns(rng.standard_normal((CLI_D, CLI_M))).T
    p = rng.uniform(1.0, 1.5, size=CLI_M) * np.linalg.norm(S, axis=1)
    b = o.vector(rng.standard_normal(CLI_D))
    lp = linprog(-b, A_ub=S, b_ub=p, bounds=[(None, None)] * CLI_D, method="highs")
    if lp.status == 3:
        r = float(rng.uniform(0.0, 5.0))
    else:
        top = -float(lp.fun)
        margin = 0.1 + 0.3 * abs(top)
        r = top + margin if rng.random() < 0.5 else top - margin
    return {"kind": "farkas", "pairs": [[s.tolist(), float(q)] for s, q in zip(S, p)], "b": b.tolist(), "r": r}


def _cli_problem(base, rng, kind: str, j: int) -> dict:
    """File j of a kind; linear-algebra data from ``base``, oriented by ``rng``."""
    d, m = CLI_D, CLI_M
    o = Orientation(rng, d, m)
    if kind in ("project-dual", "project-generated"):
        K = o.columns(_pointed_generators(base, d, m))
        orientation = "dual" if kind == "project-dual" else "generated"
        x = o.vector(base.standard_normal(d))
        return {"kind": "project", "orientation": orientation, "generators": K.T.tolist(), "point": x.tolist()}
    if kind == "farkas":
        K = _pointed_generators(base, d, m)
        b = o.vector(_farkas_rhs(base, K, system1=j % 2 == 0))
        return {"kind": "farkas", "matrix": o.columns(K).T.tolist(), "rhs": b.tolist()}
    if kind == "membership-cone":
        G = _pointed_generators(base, d, m)
        x = o.vector(_farkas_rhs(base, G, system1=j % 2 == 0))
        return {"kind": "membership", "mode": "cone", "vectors": o.columns(G).T.tolist(), "point": x.tolist()}
    if kind == "membership-span":
        G = base.standard_normal((d, 3))
        x = G @ base.standard_normal(3) if j % 2 == 0 else base.standard_normal(d)
        return {"kind": "membership", "mode": "span", "vectors": (o.q @ G).T.tolist(), "point": o.vector(x).tolist()}
    if kind == "quadrature":
        return {"kind": "quadrature", "degree": 7, "interval": list(_interval(rng))}
    if kind == "shape":
        # p^(r) of a degree-(r+1) target is linear, so its minimum over
        # [-1, 1] sits at an endpoint, which the default grid contains
        # (the small grid keeps these files in the cheap class)
        r = 1 + j
        target = {"legendre": rng.standard_normal(r + 2).tolist()}
        return {"kind": "shape", "n": r + 1, "r": r, "grid_size": 4 * (r + 2), "target": target}
    if kind == "pairs":
        return _pairs_problem(base, o)
    raise ValueError(kind)


def cli_small(base, rng) -> list:
    files = [(kind, _cli_problem(base, rng, kind, j)) for kind, count in CLI_MIX for j in range(count)]
    order = np.random.default_rng(BASE_SEED).permutation(len(files))
    out = [("cli", {"label": files[i][0], "problem": files[i][1]}) for i in order]
    out.append(("cli", {"label": "shape-t3", "problem": KNOWN_FAULT}))
    return out


def make(workload: str, seed: int) -> list:
    """The instance list of one pass: ``[(operation, data), ...]``."""
    key = STREAM_KEYS[workload]
    base = np.random.default_rng([key, BASE_SEED])
    rng = np.random.default_rng([key, seed])
    return {"cone-dense": cone_dense, "approx": approx, "cli-small": cli_small}[workload](base, rng)


def write_cli_files(instances: list, directory: str) -> list:
    """Write each cli problem to a file; return the per-op call arguments."""
    os.makedirs(directory, exist_ok=True)
    calls = []
    for i, (_, data) in enumerate(instances):
        problem = data["problem"]
        path = os.path.join(directory, f"in{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        calls.append([problem["kind"], "--input", path, "--output", os.path.join(directory, f"out{i:03d}.json")])
    return calls
