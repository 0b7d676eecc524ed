"""The four benchmark workloads: inputs made from a seed, the calls, and ground truth.

A workload is a fixed list of items (one pass). Building the list is set-up;
running an item is one timed call into the public API; checking it happens
after the timed loop. Every item yields a verdict: the discrete part of its
answer (flags, block sizes, ranks), which goes into the workload digest and
must be identical in every pass. Residuals stay out of the verdict.
"""

from __future__ import annotations

import numpy as np

import staralg as sa
from staralg.instances import nilpotent_mutant, swap_mutant

# Criterion-1 shapes: (non-Abelian block sizes, Abelian dimension); dim 4..20.
POOL_SHAPES = [
    ([2], 0), ([2], 1), ([3], 0), ([2, 2], 1), ([3, 2], 0), ([2], 4),
    ([3], 2), ([4], 2), ([2, 2, 2], 1), ([3, 3], 1), ([4], 4), ([2, 3], 3),
]
# Six mutants and every shape twice.
POOL_ITEMS = 30
MATRIX_SIZES = (4, 5, 6)
# Irreducible degrees from representation theory, by group name.
GROUP_DEGREES = {
    **{f"C{n}": [1] * n for n in range(1, 13)},
    "S3": [1, 1, 2],
    "D4": [1, 1, 1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
    "D6": [1, 1, 1, 1, 2, 2],
    "S4": [1, 1, 2, 3, 3],
}
ELEMENT_QUERIES_PER_ALGEBRA = 60

# Tiny sizes for the self-test: every code path, a fraction of the time.
TINY = {
    "pool_items": 12,
    "pool_shapes": POOL_SHAPES[:5],
    "matrix_sizes": (2, 3),
    "groups": ["C1", "C2", "C3", "C4", "S3", "Q8"],
    "queries": 2,
}

# Wall time of one pass at full size, one BLAS thread, 2-CPU Xeon VM at the
# commit that introduced the benchmark. A run makes round(seconds / this)
# passes (at least one), so parent and child commits measure the same items.
NOMINAL_PASS_S = {"pool": 4.0, "matrix": 4.0, "groups": 2.0, "elements": 1.2}
TINY_PASS_S = 0.25

CHECK_TOL = 1e-8


class Mismatch(Exception):
    """An answer differs from the ground truth."""


def _require(cond, what):
    if not cond:
        raise Mismatch(what)


def _analysis_verdict(report):
    return [report.unital, report.proper, report.hermitian, report.semisimple,
            report.weakly_rickart, report.baer, sorted(report.block_sizes_nonabelian),
            report.abelian_dim, report.radical_dim]


def _fresh(alg):
    """The same algebra with empty caches, so every analyze starts cold."""
    return sa.StarAlgebra(alg.mul, alg.star, unit=alg.unit, labels=alg.labels)


# -- pool ----------------------------------------------------------------------

class Pool:
    """analyze on the criterion-1 mix: scrambled semisimple instances and mutants."""

    name = "pool"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        shapes = TINY["pool_shapes"] if tiny else POOL_SHAPES
        count = TINY["pool_items"] if tiny else POOL_ITEMS
        self.items = []
        shape_index = 0
        for i in range(count):
            if i % 10 == 0:
                pairs = 1 + i % 3
                truth = [True, False, False, True, False, False, [], 0, 0]
                self.items.append((swap_mutant(pairs), truth))
            elif i % 10 == 1:
                truth = [True, False, True, False, False, False, [], 0, 1]
                self.items.append((nilpotent_mutant(i % 4), truth))
            else:
                blocks, ab = shapes[shape_index % len(shapes)]
                shape_index += 1
                truth = [True, True, True, True, True, True, sorted(blocks), ab, 0]
                self.items.append((sa.semisimple_instance(blocks, ab, rng), truth))
        self.dims = [alg.dim for alg, _ in self.items]

    def warm_up(self):
        for alg, truth in (self.items[0], self.items[2]):
            self.check(sa.analyze(_fresh(alg), seed=0), truth)

    def prepare(self, i):
        return _fresh(self.items[i][0])

    def run(self, i, alg):
        return sa.analyze(alg, seed=i)

    def truth(self, i):
        return self.items[i][1]

    def check(self, report, truth):
        verdict = _analysis_verdict(report)
        _require(verdict == truth, f"verdict {verdict} != construction {truth}")
        return verdict


# -- matrix --------------------------------------------------------------------

class Matrix:
    """analyze on M_k in the matrix-unit basis: the large-n end.

    The inputs are fixed by definition and analyze runs at its default seed,
    so every run does the same work; the workload seed changes nothing.
    """

    name = "matrix"

    def __init__(self, seed, tiny=False):
        self.sizes = TINY["matrix_sizes"] if tiny else MATRIX_SIZES
        self.items = [sa.matrix_algebra(k) for k in self.sizes]
        self.dims = [alg.dim for alg in self.items]

    def warm_up(self):
        self.check(sa.analyze(sa.matrix_algebra(2)), 2)

    def prepare(self, i):
        return _fresh(self.items[i])

    def run(self, i, alg):
        return sa.analyze(alg)

    def check(self, report, k):
        verdict = _analysis_verdict(report)
        truth = [True, True, True, True, True, True, [k], 0, 0]
        _require(verdict == truth, f"M{k}: verdict {verdict} != {truth}")
        return verdict

    def truth(self, i):
        return self.sizes[i]


# -- groups --------------------------------------------------------------------

def _make_group(name):
    if name.startswith("C"):
        return sa.cyclic_group(int(name[1:]))
    return {
        "S3": sa.symmetric_group_3,
        "D4": lambda: sa.dihedral_group(4),
        "Q8": sa.quaternion_group,
        "D6": lambda: sa.dihedral_group(6),
        "S4": lambda: sa.group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    }[name]()


class Groups:
    """certify_group_theorem on C1..C12, S3, D4, Q8, D6 and S4.

    Fixed inputs at the default seed, as for Matrix.
    """

    name = "groups"

    def __init__(self, seed, tiny=False):
        self.names = TINY["groups"] if tiny else list(GROUP_DEGREES)
        self.items = [_make_group(n) for n in self.names]
        self.dims = [g.order for g in self.items]

    def warm_up(self):
        group = _make_group("S3")
        self.check(sa.certify_group_theorem(group), ("S3", group))

    def prepare(self, i):
        return self.items[i]

    def run(self, i, group):
        return sa.certify_group_theorem(group)

    def check(self, report, truth):
        name, group = truth
        verdict = _analysis_verdict(report)
        degrees = sorted([1] * report.abelian_dim + report.block_sizes_nonabelian)
        _require(verdict[:6] == [True] * 6 and report.radical_dim == 0,
                 f"{name}: flags {verdict}")
        _require(degrees == GROUP_DEGREES[name], f"{name}: degrees {degrees}")
        _require(len(degrees) == group.conjugacy_class_count(),
                 f"{name}: {len(degrees)} blocks, {group.conjugacy_class_count()} classes")
        return verdict

    def truth(self, i):
        return self.names[i], self.items[i]


# -- elements ------------------------------------------------------------------

def _rank(p):
    """dim(pA) for a projection p: the trace of its idempotent left multiplication."""
    return int(round(float(np.trace(p.lmat()).real)))


def _spectral_parts(alg, rng):
    return sa.spectral_decompose(sa.random_selfadjoint(alg, rng)).projections()


def _partial_projection(alg, rng, q):
    """A projection p with 0 != p != 1: a sum of k spectral projections.

    k cycles with the query number q, so every seed asks the same mix of
    ranks and only the random values change.
    """
    parts = _spectral_parts(alg, rng)
    k = 1 + q % (len(parts) - 1)
    p = alg.zero()
    for j in sorted(int(c) for c in rng.choice(len(parts), size=k, replace=False)):
        p = p + parts[j]
    return p


def _well_conditioned(alg, rng):
    """A positive element with spectrum in [0.5, 2], hence invertible."""
    one = alg.element(alg.unit_vector())
    x = one
    for part in _spectral_parts(alg, rng):
        x = x + (rng.uniform(0.5, 2.0) - 1.0) * part
    return x


class Elements:
    """Library queries on three long-lived algebras; their caches are reused."""

    name = "elements"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.algebras = [
            sa.semisimple_instance([3, 2], 0, rng),   # scrambled M3 + M2
            sa.semisimple_instance([2, 2], 2, rng),   # scrambled M2 + M2 + C^2
            sa.matrix_algebra(3),
        ]
        per = TINY["queries"] if tiny else ELEMENT_QUERIES_PER_ALGEBRA
        # a = x p with x invertible has RP(a) = p exactly: independent ground
        # truth. x is well conditioned, so that p is also RP(a) at working
        # precision: a random x can be numerically singular.
        self.items = []
        for q in range(per):
            for alg in self.algebras:
                pa, pb = _partial_projection(alg, rng, q), _partial_projection(alg, rng, q + 1)
                a = _well_conditioned(alg, rng) * pa
                b = _well_conditioned(alg, rng) * pb
                self.items.append(((a, b), (pa, pb)))
        self.dims = [a.parent.dim for (a, _), _ in self.items]

    def warm_up(self):
        # one query per algebra fills its caches (unital hull, Gram matrix)
        for i in range(len(self.algebras)):
            self.check(self.run(i, self.items[i][0]), self.items[i][1])

    def prepare(self, i):
        return self.items[i][0]

    def run(self, i, pair):
        a, b = pair
        e = sa.right_projection(a)
        f = sa.right_projection(b)
        return {
            "a": a, "b": b, "e": e, "f": f,
            "join": sa.join(e, f), "meet": sa.meet(e, f),
            "qinv": sa.quasi_inverse(a), "sqrt": sa.positive_sqrt(a.star() * a),
            "ep": sa.ep_witness(a), "norm": sa.cstar_norm(a),
            "ann": sa.annihilator([a, b]),
        }

    def check(self, r, truth):
        pa, pb = truth
        a, b, e, f, g, m = r["a"], r["b"], r["e"], r["f"], r["join"], r["meet"]
        alg = a.parent
        s = max(1.0, a.norm())
        h = a.star() * a
        residuals = {
            "RP(a) = p_a": (e - pa).norm(),
            "RP(b) = p_b": (f - pb).norm(),
            "a RP(a) = a": (a * e - a).norm() / s,
            "a x a = a": (a * r["qinv"] * a - a).norm() / s,
            "y^2 = a*a": (r["sqrt"] * r["sqrt"] - h).norm() / max(1.0, h.norm()),
            "a*a w^2 = RP(a)": (h * r["ep"] * r["ep"] - e).norm() / max(1.0, e.norm()),
            "|a|^2 = |a*a|": abs(r["norm"] ** 2 - sa.cstar_norm(h)) / max(1.0, r["norm"] ** 2),
        }
        for name, res in residuals.items():
            _require(res <= CHECK_TOL, f"{name}: residual {res:.3e}")
        _require(sa.proj_leq(e, g, CHECK_TOL) and sa.proj_leq(f, g, CHECK_TOL),
                 "join is not an upper bound")
        _require(sa.proj_leq(m, e, CHECK_TOL) and sa.proj_leq(m, f, CHECK_TOL),
                 "meet is not a lower bound")
        ann = r["ann"]
        _require(ann.is_principal_projection_ideal, "annihilator has no projection generator")
        one = alg.element(alg.unit_vector())
        _require((ann.generator - (one - g)).norm() <= CHECK_TOL,
                 "annihilator generator != 1 - RP(a) v RP(b)")
        worst = max([0.0] + [max((a * x).norm(), (b * x).norm()) for x in ann.subspace_basis])
        _require(worst <= CHECK_TOL, f"annihilator does not kill a, b ({worst:.3e})")
        verdict = [_rank(e), _rank(f), _rank(g), _rank(m), ann.dim]
        _require(ann.dim == alg.dim - verdict[2], f"annihilator dim {ann.dim} != dim (1 - e v f)A")
        return verdict

    def truth(self, i):
        return self.items[i][1]


WORKLOADS = {w.name: w for w in (Pool, Matrix, Groups, Elements)}

