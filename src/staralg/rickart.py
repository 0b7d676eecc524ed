"""Annihilators, the projection lattice, and Rickart/Baer property checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, Element, _cached, _coeffs_json, random_element
from .errors import DecompositionFailed, InternalInconsistency, NotARightIdeal
from .linalg import (certificate_bound, colspace, membership_bound, nullspace, require, require_each,
                     subspaces_equal)
from .spectral import _PUBLISHED_RPS, left_projection, right_projection, right_projections


@dataclass(frozen=True)
class CheckReport:
    property_name: str
    passed: bool
    worst_residual: float
    seed: int | None = None
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "property": self.property_name,
            "pass": self.passed,
            "worst_residual": self.worst_residual,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


@dataclass(frozen=True)
class AnnihilatorResult:
    subspace_basis: list          # Elements, orthonormal coefficient vectors
    generator: Element | None
    is_principal_projection_ideal: bool

    @property
    def dim(self):
        return len(self.subspace_basis)


def is_projection(p, tol=DEFAULT_TOL):
    bound = certificate_bound(tol) * max(1.0, p.norm())
    return (p - p.star()).norm() <= bound and (p - p * p).norm() <= bound


def proj_leq(p, q, tol=DEFAULT_TOL):
    """p <= q iff p = pq = qp, to tolerance."""
    bound = certificate_bound(tol) * max(1.0, p.norm(), q.norm())
    return (p * q - p).norm() <= bound and (q * p - p).norm() <= bound


def join(e, f, tol=DEFAULT_TOL):
    """e v f = f + RP(e - ef); certified least upper bound."""
    g = f + right_projection(e - e * f, tol)
    if not is_projection(g, tol):
        raise DecompositionFailed("join output failed projection certification")
    if not (proj_leq(e, g, tol) and proj_leq(f, g, tol)):
        raise DecompositionFailed("join is not an upper bound at tolerance")
    return g


def meet(e, f, tol=DEFAULT_TOL):
    """e ^ f = e - LP(e - ef); certified greatest lower bound."""
    g = e - left_projection(e - e * f, tol)
    if not is_projection(g, tol):
        raise DecompositionFailed("meet output failed projection certification")
    if not (proj_leq(g, e, tol) and proj_leq(g, f, tol)):
        raise DecompositionFailed("meet is not a lower bound at tolerance")
    return g


def annihilator(elements, tol=DEFAULT_TOL):
    """Right annihilator {x : a x = 0 for every a in the set}, with projection generator.

    The subspace is the exact kernel of the stacked left-multiplication
    operators. The generator search uses the complement of the join of the
    right projections of the input elements when the algebra is unital and
    proper, falling back to the generic right-ideal search. Left annihilators
    follow through the involution: ann_l(S) = ann_r(S*)*.
    """
    if not elements:
        raise NotARightIdeal("annihilator of the empty set is not defined")
    algebra = elements[0].parent
    for a in elements[1:]:
        elements[0]._check(a)

    kernel = nullspace(np.concatenate([a.lmat() for a in elements], axis=0), tol)
    basis = [Element(algebra, kernel[:, i]) for i in range(kernel.shape[1])]

    generator = None
    unit = algebra.unit_vector(tol)
    if unit is not None:
        try:
            j = None  # 0 v e = e exactly
            for e in right_projections(elements, tol):
                j = e if j is None else join(j, e, tol)
            f = Element(algebra, unit) - j
            if _generates(f, kernel, tol):
                generator = f
        except DecompositionFailed:
            generator = None
    if generator is None and kernel.shape[1] == 0:
        generator = algebra.zero()
    if generator is None:
        generator = _ideal_generator(algebra, basis, tol)
    return AnnihilatorResult(basis, generator, generator is not None)


def _generates(f, subspace, tol):
    """span(fA) == span(subspace), for ``subspace`` with orthonormal columns."""
    return subspaces_equal(colspace(f.lmat(), tol), subspace, membership_bound(tol))


def _ideal_generator(algebra, basis, tol):
    try:
        f = algebra.zero()
        for x in basis:
            f = join(f, left_projection(x, tol), tol)
    except DecompositionFailed:
        return None
    return f if _generates(f, np.stack([x.coeffs for x in basis], axis=1), tol) else None


def projection_generator(ideal_basis, tol=DEFAULT_TOL):
    """Projection f with fA = span(ideal_basis), when one exists.

    The input must be a right ideal; f is the lattice join of the left
    projections of the basis elements (x in fA forces LP(x) <= f).
    """
    if not ideal_basis:
        raise NotARightIdeal("empty basis")
    algebra = ideal_basis[0].parent
    xs = np.array([x.coeffs for x in ideal_basis])
    span = colspace(xs.T, tol)
    prods = algebra.left_mat(xs)  # [x, :, j] = x e_j
    res = np.linalg.norm(prods - span @ (span.conj().T @ prods), axis=1).ravel()
    bounds = membership_bound(tol) * np.maximum(1.0, np.linalg.norm(prods, axis=1).ravel())
    require_each(res, bounds, NotARightIdeal, "subspace not closed under right multiplication")
    if span.shape[1] == 0:
        return algebra.zero()
    basis = [Element(algebra, span[:, i]) for i in range(span.shape[1])]
    return _ideal_generator(algebra, basis, tol)


def check_weakly_rickart(algebra, tol=DEFAULT_TOL, seed=0):
    """Construct RP(a) for the basis and 8 sampled elements and verify both axioms.

    The elements are taken in order, and the first that fails settles the
    report; no later one is solved. Cached per (tol, seed). The pass publishes
    the right projections it reads with the algebra's facts (see
    ``staralg.spectral``), so a later ``right_projections`` call at the same
    tol, such as the Baer guard's, reuses them."""
    return _cached(algebra, _weakly_rickart_pass, tol, seed)


def _weakly_rickart_pass(algebra, tol, seed):
    rng = np.random.default_rng(seed)
    bound = certificate_bound(tol)
    worst = 0.0
    tested = algebra.basis() + [random_element(algebra, rng) for _ in range(8)]
    live = [a for a in tested if a.norm() > tol]
    kernels = nullspace(np.array([a.lmat() for a in live]), tol)
    rps = right_projections(live, tol)
    published = algebra._cache.setdefault((_PUBLISHED_RPS, tol), {})
    for a, kernel in zip(live, kernels):
        try:
            e = next(rps)
        except DecompositionFailed as exc:
            return CheckReport(
                "weakly_rickart", False, float("inf"), seed,
                witness={"element": _coeffs_json(a.coeffs), "reason": str(exc)},
            )
        published[a.coeffs.tobytes()] = e.coeffs
        res1 = (a * e - a).norm() / max(1.0, a.norm())
        worst = max(worst, res1)
        res2 = np.linalg.norm(e.lmat() @ kernel, axis=0)
        over = np.flatnonzero(res2 > bound)
        if over.size:
            return CheckReport(
                "weakly_rickart", False, float(res2[over[0]]), seed,
                witness={"element": _coeffs_json(a.coeffs),
                         "kernel_vector": _coeffs_json(kernel[:, over[0]])},
            )
        worst = max(worst, float(np.max(res2, initial=0.0)))
        if res1 > bound:
            return CheckReport(
                "weakly_rickart", False, res1, seed, witness={"element": _coeffs_json(a.coeffs)},
            )
    return CheckReport("weakly_rickart", True, worst, seed, details={"tested": len(tested)})


def check_baer(algebra, tol=DEFAULT_TOL, seed=0):
    """Baer check: unital + weakly Rickart, plus a fixed guard that raises on disagreement.

    In finite dimension the projection lattice of a Rickart *-algebra is
    automatically complete, so the reduction to 'unital and weakly Rickart'
    is exact. The weakly-Rickart part is ``check_weakly_rickart``, so it
    reuses the cached pass when one ran at the same (tol, seed).
    Implementation guard, checking the code, not the theorem: the right
    annihilators of min(4, n(n-1)/2) basis pairs and 2 random subsets must
    have projection generators, else InternalInconsistency. No singleton {a}
    is sampled: the pass certified a RP(a) = a and L_RP(a) = 0 on ker L_a, so
    ann_r({a}) = (1 - RP(a))A. The pairs' RP(e_i) are the pass's (see
    ``staralg.spectral``).
    """
    rng = np.random.default_rng(seed)
    if not algebra.is_unital(tol):
        return CheckReport("baer", False, 0.0, seed, witness={"reason": "no unit"})
    wr = check_weakly_rickart(algebra, tol=tol, seed=seed)
    if not wr.passed:
        return CheckReport("baer", False, wr.worst_residual, seed,
                           witness={"reason": "not weakly Rickart", "inner": wr.witness})

    n = algebra.dim
    subsets = []
    for _ in range(min(4, n * (n - 1) // 2)):
        i, j = rng.choice(n, size=2, replace=False)
        subsets.append([algebra.basis_element(int(i)), algebra.basis_element(int(j))])
    for _ in range(2):
        k = int(rng.integers(1, n + 1))
        subsets.append([random_element(algebra, rng) for _ in range(k)])

    failures = sum(not annihilator(s, tol).is_principal_projection_ideal for s in subsets)
    if failures:
        raise InternalInconsistency(
            f"unital and weakly Rickart, but {failures} of {len(subsets)} "
            "sampled annihilators have no projection generator"
        )
    return CheckReport("baer", True, wr.worst_residual, seed,
                       details={"witness_subsets": len(subsets), "generator_failures": 0})


def orthogonal_family(algebra, seed=0, tol=DEFAULT_TOL):
    """Greedily extend an orthogonal family of nonzero projections.

    Each step compresses a random element by the complement of the current
    family sum and takes its right projection. The family size can never
    exceed dim (the projections are linearly independent); callers assert
    this exactly.
    """
    rng = np.random.default_rng(seed)
    one = algebra.one(tol)
    family = []
    total = algebra.zero()
    for _ in range(4 * algebra.dim):
        comp = one - total
        if comp.norm() <= certificate_bound(tol):
            break
        a = comp * random_element(algebra, rng) * comp
        if a.norm() <= membership_bound(tol):
            continue
        try:
            dec_p = right_projection(a, tol)
        except DecompositionFailed:
            continue
        if dec_p.norm() <= certificate_bound(tol):
            continue
        family.append(dec_p)
        total = total + dec_p
    return family
