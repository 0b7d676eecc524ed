"""Finite groups, their complex group algebras, and the certification driver."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, StarAlgebra
from .errors import ClosureCapExceeded, GroupTableError, InternalInconsistency
from .structure import analyze


@dataclass(frozen=True)
class FiniteGroup:
    cayley: np.ndarray   # (n, n) integer table: cayley[i, j] = index of g_i g_j
    identity: int
    inverse: np.ndarray  # index map
    labels: tuple | None = None

    @property
    def order(self):
        return self.cayley.shape[0]

    def conjugacy_class_count(self):
        """Number of conjugacy classes, straight from the table."""
        n = self.order
        seen = np.zeros(n, dtype=bool)
        count = 0
        for g in range(n):
            if seen[g]:
                continue
            count += 1
            for x in range(n):
                seen[self.cayley[self.cayley[x, g], self.inverse[x]]] = True
        return count

    def is_commutative(self):
        return bool(np.array_equal(self.cayley, self.cayley.T))


def group_from_cayley(table, labels=None):
    """Validate a Cayley table (Latin square, identity, inverses, associativity)."""
    try:
        t = np.asarray(table, dtype=int)
    except (TypeError, ValueError) as exc:
        raise GroupTableError(f"table is not a rectangular integer array: {exc}") from exc
    # numpy reads true and false as 1 and 0, so a table of booleans would pass array_equal
    if not np.array_equal(t, table) or any(isinstance(x, bool) for x in np.asarray(table, dtype=object).flat):
        raise GroupTableError("table entries are not integers")
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 1:
        raise GroupTableError(f"table has shape {t.shape}, expected square")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        raise GroupTableError("table entries out of range")
    full = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(t[i]), full) or not np.array_equal(np.sort(t[:, i]), full):
            raise GroupTableError("table is not a Latin square")
    # associativity: t[t[a,b],c] == t[a,t[b,c]]
    if not np.array_equal(t[t, :], t[:, t]):
        raise GroupTableError("table is not associative")

    identity = None
    for e in range(n):
        if np.array_equal(t[e], full) and np.array_equal(t[:, e], full):
            identity = e
            break
    if identity is None:
        raise GroupTableError("table has no two-sided identity")
    inverse = np.empty(n, dtype=int)
    for g in range(n):
        inv = np.where(t[g] == identity)[0]
        if len(inv) != 1 or t[inv[0], g] != identity:
            raise GroupTableError(f"element {g} has no two-sided inverse")
        inverse[g] = inv[0]
    if labels and len(labels) != n:
        raise GroupTableError(f"{len(labels)} labels for a group of order {n}")
    return FiniteGroup(t, identity, inverse, tuple(labels) if labels else None)


def _integer(x, name):
    """``x`` as an int when it is an integral number such as 3 or 3.0; a bool, 1.9 or 3.7 is an error."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer()):
        raise GroupTableError(f"{name} must be an integer, got {x!r}")
    return int(x)


def group_from_permutations(degree, generators, cap=10000):
    """Closure of permutation generators; errors past `cap` (possibly infinite group)."""
    degree, cap = _integer(degree, "degree"), _integer(cap, "cap")
    if degree < 0:
        raise GroupTableError(f"degree must be >= 0, got {degree}")
    if cap < 1:
        raise GroupTableError("cap must be >= 1")
    gens = []
    for g in generators:
        g = tuple(_integer(x, "generator entry") for x in g)
        if len(g) != degree or sorted(g) != list(range(degree)):  # the length first: degree may be huge
            raise GroupTableError(f"{g} is not a permutation of degree {degree}")
        gens.append(g)
    if not gens:  # the trivial group, with no identity permutation of length degree formed
        return group_from_cayley([[0]])

    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(degree))
                if q not in index:
                    if len(elements) >= cap:
                        raise ClosureCapExceeded(
                            f"closure exceeded cap {cap}; the generated group may be infinite"
                        )
                    index[q] = len(elements)
                    elements.append(q)
                    new_frontier.append(q)
        frontier = new_frontier

    n = len(elements)
    table = np.empty((n, n), dtype=int)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            table[i, j] = index[tuple(p[q[k]] for k in range(degree))]
    return group_from_cayley(table)


# -- stock groups -------------------------------------------------------------

def cyclic_group(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_cayley(table)


def symmetric_group_3():
    return group_from_permutations(3, [(1, 0, 2), (1, 2, 0)])


def dihedral_group(n):
    """Symmetries of the regular n-gon, as permutations of the vertices."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return group_from_permutations(n, [rot, ref])


def quaternion_group():
    """Q8 = {1, -1, i, -i, j, -j, k, -k} in that order."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def parse(x):
        return (-1, x[1:]) if x.startswith("-") else (1, x)

    def product(a, b):
        sa, ua = parse(a)
        sb, ub = parse(b)
        sc, uc = base[(ua, ub)]
        sign = sa * sb * sc
        return uc if sign > 0 else "-" + uc

    idx = {x: i for i, x in enumerate(names)}
    table = [[idx[product(a, b)] for b in names] for a in names]
    return group_from_cayley(table, labels=names)


# -- group algebras -----------------------------------------------------------

def build_group_algebra(group):
    """C[G]: basis indexed by group elements, involution g -> g^{-1} with conjugation."""
    n = group.order
    c = np.zeros((n, n, n), dtype=complex)
    i, j = np.indices((n, n))
    c[i, j, group.cayley] = 1.0  # g_i g_j = g_cayley[i, j]
    s = np.zeros((n, n), dtype=complex)
    s[group.inverse, np.arange(n)] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[group.identity] = 1.0
    labels = group.labels if group.labels else tuple(f"g{i}" for i in range(n))
    return StarAlgebra(c, s, unit=unit, labels=labels)


def certify_group_theorem(group, tol=DEFAULT_TOL, seed=0):
    """Analyze C[G] and cross-check the block data against the group.

    Any failed check is a hard error: for a finite group the algebra must be
    a proper, semisimple Baer *-algebra with sum n_k^2 = |G| and exactly one
    block per conjugacy class.
    """
    report = analyze(build_group_algebra(group), tol=tol, seed=seed)
    if not (report.proper and report.semisimple and report.baer):
        raise InternalInconsistency(
            f"group algebra of a finite group failed checks: proper={report.proper} "
            f"semisimple={report.semisimple} baer={report.baer}"
        )
    if sum(n * n for n in report.block_sizes_nonabelian) + report.abelian_dim != group.order:
        raise InternalInconsistency("block dimensions do not add up to |G|")
    n_blocks = len(report.block_sizes_nonabelian) + report.abelian_dim
    if n_blocks != group.conjugacy_class_count():
        raise InternalInconsistency(
            f"{n_blocks} blocks but {group.conjugacy_class_count()} conjugacy classes"
        )
    if group.is_commutative() != (not report.block_sizes_nonabelian):
        raise InternalInconsistency("commutativity of G and of C[G] disagree")
    return report


def group_to_json(group):
    return {"type": "cayley", "table": group.cayley.tolist()}


def group_from_json(data):
    try:
        kind = data.get("type")
        if kind == "cayley":
            return group_from_cayley(data["table"])
        if kind == "perm":
            return group_from_permutations(data["degree"], data["generators"], cap=data.get("cap", 10000))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GroupTableError(f"bad group JSON: {exc!r}") from exc
    raise GroupTableError(f"unknown group JSON type {kind!r}")
