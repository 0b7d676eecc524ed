"""Annihilators, the projection lattice, and Rickart/Baer property checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (DEFAULT_TOL, Element, _cached, _coeffs_json, _table_product_norms, _table_singular_values,
                   random_element)
from .errors import DecompositionFailed, IllConditioned, InternalInconsistency, NotARightIdeal
from .linalg import (certificate_bound, colspace, full_rank_in_stack, membership_bound, negligible, nullspace,
                     relative, require, require_each, significant, subspaces_equal)
from .spectral import _publish, _right_projections_and_kernels, left_projection, right_projection, right_projections


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
    bound = certificate_bound(tol, p.norm())
    return (p - p.star()).norm() <= bound and (p - p * p).norm() <= bound


def proj_leq(p, q, tol=DEFAULT_TOL):
    """p <= q iff p = pq = qp, to tolerance."""
    bound = certificate_bound(tol, max(p.norm(), q.norm()))
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
    operators, read off the product table when every element is a multiple
    of one basis element of a monomial algebra (see
    ``core._table_singular_values``) and found by an SVD otherwise. A set of
    three or more whose first member alone has kernel {0} under the stack's
    cut-off has kernel {0} and takes no SVD (``linalg.full_rank_in_stack``);
    a pair is left to the SVD, as one is often rank-deficient. A kernel
    {0} is generated by 0. Otherwise, on a unital
    algebra, the generator candidate is 1 - RP(h), one right projection, with
    h = sum s^* s over the normalised elements s/|s| above the zero rule:
    scaling leaves an annihilator alone and keeps a small s's square above
    ``negligible``. In a C*-algebra h x = 0 gives x^* h x =
    sum (s x)^* (s x) = 0, hence every s x = 0, so ann_r(S) = ann_r(h) =
    (1 - RP(h))A. The candidate is kept only if it generates the exact
    kernel; otherwise, and on a non-unital algebra, the generic right-ideal
    search decides. Left annihilators follow through the
    involution: ann_l(S) = ann_r(S*)*.
    """
    if not elements:
        raise NotARightIdeal("annihilator of the empty set is not defined")
    algebra = elements[0].parent
    for a in elements[1:]:
        elements[0]._check(a)

    sizes = _table_singular_values(algebra, [a.coeffs for a in elements])
    if sizes is None:
        mats = [a.lmat() for a in elements]
        # from three members on, the first alone often settles {0}; a pair is often rank-deficient
        if len(mats) > 2 and full_rank_in_stack(mats[0], np.sqrt(sum(np.vdot(m, m).real for m in mats)), tol):
            kernel = np.zeros((algebra.dim, 0), dtype=complex)  # {0}, as the stack's SVD would find
        else:
            kernel = nullspace(np.concatenate(mats, axis=0), tol)
    else:  # the e_j whose column of the stacked operators is not significant
        kernel = np.eye(algebra.dim, dtype=complex)[:, ~significant(np.linalg.norm(sizes, axis=0), tol)]
    basis = [Element(algebra, kernel[:, i]) for i in range(kernel.shape[1])]

    generator = algebra.zero() if kernel.shape[1] == 0 else None  # {0} = 0A
    unit = algebra.unit_vector(tol)
    if generator is None and unit is not None:
        norms = [a.norm() for a in elements]
        xs = np.array([a.coeffs / r for a, r in zip(elements, norms) if not negligible(r, tol)],
                      dtype=complex).reshape(-1, algebra.dim)
        h = algebra.row_products(algebra.star_coeffs(xs), xs).sum(axis=0)
        try:
            f = Element(algebra, unit) - right_projection(Element(algebra, h), tol)
            if _generates(f, kernel, tol):
                generator = f
        except DecompositionFailed:
            pass  # no certified RP(h): the generic search below decides
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
    bounds = membership_bound(tol, np.linalg.norm(prods, axis=1).ravel())
    require_each(res, bounds, NotARightIdeal, "subspace not closed under right multiplication")
    if span.shape[1] == 0:
        return algebra.zero()
    basis = [Element(algebra, span[:, i]) for i in range(span.shape[1])]
    return _ideal_generator(algebra, basis, tol)


def check_weakly_rickart(algebra, tol=DEFAULT_TOL, seed=0):
    """Construct RP(a) for the basis and 8 sampled elements and verify both axioms.

    The first element that fails, in order, settles the report. ker L_a is read off the product table for
    each basis element of a monomial algebra (see ``core._table_singular_values``). For the other elements
    it is the kernel that the SVD giving RP(a) found on an algebra with trace-form coordinates (see
    ``staralg.spectral``), so no second SVD of L_a runs. One stacked ``nullspace`` finds it for the rest:
    the elements the solver answered, every element of an algebra without those coordinates, RPs read from
    the published table, and the samples of a one-dimensional monomial algebra, whose RPs the product table
    gives. The checks run on all solved elements in one batch, so an element after the first failing one
    may be solved too, but neither its projection nor an error from its solve reaches the caller. Cached
    per (tol, seed). The pass publishes the right projections it read, up to the first failure, through
    ``staralg.spectral``, so a later ``right_projections`` call at the same tol, such as the Baer guard's,
    reuses them."""
    return _cached(algebra, _weakly_rickart_pass, tol, seed)


def _weakly_rickart_pass(algebra, tol, seed):
    """The pass in one batch: the RPs up to the first that cannot be solved, then ``_first_failure``'s checks.
    A failed certificate keeps its message alone, as the exception's traceback would hold this frame; any
    other error from a solve is the outcome only when no row before it fails its checks."""
    rng = np.random.default_rng(seed)
    basis = [a for a in algebra.basis() if not negligible(a.norm(), tol)]
    samples = [a for a in (random_element(algebra, rng) for _ in range(8)) if not negligible(a.norm(), tol)]
    live = basis + samples
    xs = np.array([a.coeffs for a in live]).reshape(-1, algebra.dim)
    sizes = _table_singular_values(algebra, xs[:len(basis)])

    rps, found, failure = [], [], None
    try:
        for e, kernel in _right_projections_and_kernels(live, tol):
            rps.append(e.coeffs)
            found.append(kernel)
    except DecompositionFailed as exc:
        failure = str(exc)
    except Exception:
        report, _ = _first_failure(algebra, xs, rps, sizes, found, tol, seed)
        if report is None:
            raise
        return report
    report, worst = _first_failure(algebra, xs, rps, sizes, found, tol, seed)
    if report is not None:
        return report
    if failure is not None:
        return CheckReport("weakly_rickart", False, float("inf"), seed,
                           witness={"element": _coeffs_json(xs[len(rps)]), "reason": failure})
    return CheckReport("weakly_rickart", True, worst, seed, details={"tested": algebra.dim + 8})


def _kernels(algebra, xs, found, tol):
    """ker L_a of each row a of ``xs``: formed by its function in ``found`` where the RP's route handed one
    back, else from one stacked ``nullspace`` over the rows without one."""
    kernels = [None if form is None else form() for form in found]
    missing = [i for i, kernel in enumerate(kernels) if kernel is None]
    if missing:
        for i, kernel in zip(missing, nullspace(np.array([algebra.left_mat(xs[i]) for i in missing]), tol)):
            kernels[i] = kernel
    return kernels


def _first_failure(algebra, xs, rps, sizes, found, tol, seed):
    """The report of the first row a of ``xs`` whose RP e in ``rps`` fails a e = a or L_e = 0 on ker L_a, or
    None, and the worst residual; each row up to that one is published (``spectral._publish``).

    One ``row_products`` gives every a e. ker L_a is spanned by the e_j outside the column mask of ``sizes``
    for the first len(sizes) rows, and by the columns of ``_kernels`` for the rest, from the RP's route
    (``found``) or ``nullspace``. One more ``row_products`` gives e x for every column x of those kernels,
    so a row whose kernel is {0}, as every row of a full-rank element's, takes no product."""
    solved = len(rps)
    es = np.array(rps, dtype=complex).reshape(solved, algebra.dim)
    a = xs[:solved]
    tabled = 0 if sizes is None else min(len(sizes), solved)
    res1 = relative(np.linalg.norm(algebra.row_products(a, es) - a, axis=-1), np.linalg.norm(a, axis=-1))
    # |L_e x| for x = e_j in ker L_a on the table (NaN, never over a bound, for e_j outside it), and for each
    # column x of the other kernels
    inside = np.zeros((0, algebra.dim))
    if tabled:
        inside = np.where(significant(sizes[:tabled], tol), np.nan, _table_product_norms(algebra, es[:tabled]))
    kernels = _kernels(algebra, a[tabled:], found[tabled:solved], tol)
    widths = [kernel.shape[1] for kernel in kernels]
    products = np.zeros(0)
    if sum(widths):
        columns = np.concatenate([kernel.T for kernel in kernels])
        products = np.linalg.norm(algebra.row_products(np.repeat(es[tabled:], widths, axis=0), columns), axis=-1)
    loose = np.split(products, np.cumsum(widths))[:-1]  # one piece per row

    bound = certificate_bound(tol)
    over = np.concatenate([(inside > bound).any(axis=1), [(x > bound).any() for x in loose]]).astype(bool)
    failed = over | (res1 > bound)
    r = int(np.argmax(failed)) if failed.any() else solved  # the first row that fails its checks
    _publish(algebra, xs[:r + 1], es, tol)
    worst = float(np.fmax.reduce(np.concatenate([res1, inside.ravel(), products]), initial=0.0))  # NaN passed over
    if r == solved:
        return None, worst
    element = _coeffs_json(xs[r])
    if not over[r]:
        return CheckReport("weakly_rickart", False, float(res1[r]), seed, witness={"element": element}), worst
    column = inside[r] if r < tabled else loose[r - tabled]
    j = np.flatnonzero(column > bound)[0]
    vector = np.eye(algebra.dim)[j] if r < tabled else kernels[r - tabled][:, j]
    return CheckReport("weakly_rickart", False, float(column[j]), seed,
                       witness={"element": element, "kernel_vector": _coeffs_json(vector)}), worst


def check_baer(algebra, tol=DEFAULT_TOL, seed=0):
    """Baer check: unital + weakly Rickart, plus a fixed guard that raises on disagreement.

    In finite dimension the projection lattice of a Rickart *-algebra is
    automatically complete, so the reduction to 'unital and weakly Rickart'
    is exact. The weakly-Rickart part is ``check_weakly_rickart``, so it
    reuses the cached pass when one ran at the same (tol, seed).
    Implementation guard, checking the code, not the theorem: the right
    annihilators of min(4, n(n-1)/2) distinct basis pairs and 2 random
    subsets must have projection generators, each found from at most one
    right projection (see ``annihilator``), else InternalInconsistency. Each pair {e_i, e_j} is also
    checked by a second route, the lattice join: its generator must equal
    1 - RP(e_i) v RP(e_j) within certificate_bound(tol), else
    InternalInconsistency, and a join that fails its own certificates raises
    IllConditioned. The pairs' RP(e_i) are the pass's, which on the monomial
    form with a diagonal Gram matrix are read off the product table (see
    ``staralg.spectral``); a random subset of three or more whose first
    member is invertible takes no stacked SVD (see ``annihilator``). No
    singleton {a} is sampled: the pass certified a RP(a) = a and
    L_RP(a) = 0 on ker L_a, so ann_r({a}) = (1 - RP(a))A.
    """
    rng = np.random.default_rng(seed)
    if not algebra.is_unital(tol):
        return CheckReport("baer", False, 0.0, seed, witness={"reason": "no unit"})
    wr = check_weakly_rickart(algebra, tol=tol, seed=seed)
    if not wr.passed:
        return CheckReport("baer", False, wr.worst_residual, seed,
                           witness={"reason": "not weakly Rickart", "inner": wr.witness})

    n = algebra.dim
    first, second = np.triu_indices(n, 1)
    picks = rng.choice(len(first), size=min(4, len(first)), replace=False)
    pairs = [[algebra.basis_element(int(first[k])), algebra.basis_element(int(second[k]))] for k in picks]
    subsets = pairs + [[random_element(algebra, rng) for _ in range(int(rng.integers(1, n + 1)))]
                       for _ in range(2)]

    results = [annihilator(s, tol) for s in subsets]
    failures = sum(not r.is_principal_projection_ideal for r in results)
    if failures:
        raise InternalInconsistency(
            f"unital and weakly Rickart, but {failures} of {len(subsets)} "
            "sampled annihilators have no projection generator"
        )
    one = algebra.one(tol)
    for pair, result in zip(pairs, results):
        try:
            complement = one - join(*right_projections(pair, tol), tol)
        except DecompositionFailed as exc:
            raise IllConditioned("a guard pair's join fails its certificates", exc.residual) from exc
        require((result.generator - complement).norm(), certificate_bound(tol), InternalInconsistency,
                "a guard pair's annihilator generator is not 1 - RP(e_i) v RP(e_j)")
    return CheckReport("baer", True, wr.worst_residual, seed, details={"witness_subsets": len(subsets)})


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
