"""Orthogonal-projection decompositions and everything built on them.

A normal element of a proper algebra decomposes as ``b = sum lambda_j e_j``
with distinct nonzero scalars and nonzero orthogonal projections lying in the
subalgebra generated by b. Each projection is an interpolation idempotent on
the clustered eigenvalues of the regular representation, so it stays inside
the generated subalgebra by construction. Quasi-inverses, positive square
roots and the EP witness are read off the decomposition of a*a.

There is one solver, ``spectral_decompose(b)``, and it decomposes one
element: the normality product, the regular representation L_b, ``eigvals``,
``eig`` and ``inv`` on it, the eigenvalue clustering, and the projectors,
which are formed, polished and certified as one (J, n) stack.

Right projections take a shorter path where they can. On a unital algebra
whose Gram matrix G passes ``check_proper``'s positivity rule, left
multiplication is a faithful *-representation on (A, <a, b> = tr L_{b*a}),
so RP(a) is the <.,.>-orthogonal projection onto ker(L_a)^perp applied to 1:
one stacked ``svd`` of W L_a W^-1, with G = W^H W, gives it for a whole
stack. Each such RP is certified as the one it claims to be; a row that
fails, and every row of an algebra without that factor, goes to the solver
as the decomposition of a*a, one element at a time. ``right_projections``
takes whole stacks and yields their RPs in row order: the weakly-Rickart
pass asks for the basis and its 8 samples in one call, and ``annihilator``
for its whole set; ``right_projection(a)`` is the first of a stack of one.
The solver runs on a row only when that row is reached, so a row whose RP
cannot be certified raises its own error there, and a caller that stops at
it leaves the later rows unsolved. Every product of the stacked path runs on
slices shaped as for one element, so an element's numbers do not depend on
the elements stacked with it.

The weakly-Rickart pass publishes the coefficients of each RP it reads,
keyed by the input's coefficient bytes, in one table per tol in
``algebra._cache``. ``right_projections`` reads that table, wrapping each
hit as an Element, and never creates it: the Baer guard's RP(e_i) are the
pass's, and an algebra no pass ran on solves every input. A published RP is
what a fresh solve gives, as a row's numbers do not depend on its stack.
Each caller's own certificates still run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Element, _cached, _trace_form, _trace_ranks
from .errors import DecompositionFailed, DegenerateInput, IllConditioned, NoCStarNorm, NotPositive
from .linalg import certificate_bound, cluster_points, negligible, relative, relative_bound, require, significant


@dataclass(frozen=True)
class SpectralDecomposition:
    source: Element
    terms: tuple  # of (complex, Element) pairs, lambda nonzero and distinct

    def projections(self):
        return [p for _, p in self.terms]

    def projection_sum(self):
        return self.map_values(lambda lam: 1.0)

    def map_values(self, fn):
        """Element sum(fn(lambda_j) e_j); stays in the generated subalgebra."""
        parent = self.source.parent
        total = np.zeros(parent.dim, dtype=complex)
        for lam, p in self.terms:
            total = total + p.coeffs * fn(lam)  # the order Element.__rmul__ uses
        return Element(parent, total)


# with tol, the ``algebra._cache`` key of the right projections the weakly-Rickart pass published
_PUBLISHED_RPS = "published right projections"


def _norms(x):
    """``np.linalg.norm(x, axis=-1)``, the same arithmetic without its argument handling."""
    return np.sqrt((x.conj() * x).real.sum(axis=-1))


def spectral_decompose(b, tol=DEFAULT_TOL):
    """Write a normal element as a sum of scaled orthogonal projections.

    The zero eigenvalue is omitted. Raises DecompositionFailed when b is not
    normal or the certificates cannot be met, which is the expected signal
    on non-proper algebras; IllConditioned when b*b or bb* overflows; and
    LinAlgError when LAPACK rejects L_b. Every step runs on L_b over A itself.
    """
    parent = b.parent
    norm = _norms(b.coeffs)
    both = np.array([b.coeffs, parent.star_coeffs(b.coeffs)])
    squares = parent.products(both, both)  # [1, 0] = b* b, [0, 1] = b b*
    # an overflow or a NaN fails here, before LAPACK sees it
    normality = float(relative(_norms(squares[1, 0] - squares[0, 1]), norm ** 2))
    if not np.isfinite(normality):
        raise IllConditioned("the products of the element with its adjoint overflow or are not finite", normality)
    require(normality, certificate_bound(tol), DecompositionFailed, "element is not normal")
    if negligible(norm, tol):
        return SpectralDecomposition(b, ())

    one = parent.unit_vector(tol)
    mat = parent.left_mat(b.coeffs)
    lams = cluster_points(np.linalg.eigvals(mat).tolist(), tol)
    # each idempotent is p_j(b) for the interpolation polynomial with
    # p_j(lam_k) = delta_jk, i.e. the eigenprojector P_j of L_b applied to
    # the unit -- computed that way directly, which is far better conditioned
    # than multiplying Lagrange factors. Without a unit it is P_j b / lam_j,
    # as p_j(b) b = lam_j p_j(b).
    evals, evecs = np.linalg.eig(mat)
    weights = np.linalg.inv(evecs) @ (b.coeffs if one is None else one)

    # the clustered eigenvalues kept (nonzero), and the mask whose column j
    # selects the eigenvectors clustered at the j-th kept one
    keep = np.flatnonzero(significant(np.abs(lams), tol)).tolist()
    kept = np.array([lams[j] for j in keep], dtype=complex)
    assign = np.abs(evals[:, None] - np.array(lams)[None, :]).argmin(axis=1)
    mask = assign[:, None] == np.array(keep, dtype=int)[None, :]
    ps = (evecs @ (mask * weights[:, None])).T
    if one is None:
        ps = ps / kept[:, None]
    ps = (ps + parent.star_coeffs(ps)) * 0.5
    # one idempotent-polishing step: p^2 (3 - 2p), or 3p^2 - 2p^3 without a unit
    p2 = parent.row_products(ps, ps)
    if one is None:
        ps = p2 * 3.0 - parent.row_products(p2, ps) * 2.0
    else:
        ps = parent.row_products(p2, one * 3.0 - ps * 2.0)
    _certify(b, ps, kept, tol)
    return SpectralDecomposition(b, tuple((lam, Element(parent, p)) for lam, p in zip(kept.tolist(), ps)))


def _certify(b, ps, lams, tol):
    """Raise DecompositionFailed unless b = sum_j lams[j] ps[j] is a certified decomposition.

    Each projection (a row of ps) must be nonzero and selfadjoint, the
    projections idempotent and pairwise orthogonal, and the sum must give b,
    all within certificate_bound(tol)."""
    parent = b.parent
    bound = certificate_bound(tol)
    if (_norms(ps) <= bound).any():
        raise DecompositionFailed("zero projection in decomposition")
    # [i, j, :] = p_i p_j - delta_ij p_i
    pairs = parent.products(ps, ps) - np.eye(len(ps))[:, :, None] * ps
    total = (ps * lams[:, None]).sum(axis=0)
    worst = max(
        _norms(ps - parent.star_coeffs(ps)).max(initial=0.0),
        _norms(pairs).max(initial=0.0),
        relative(_norms(b.coeffs - total), _norms(b.coeffs)))
    require(float(worst), bound, DecompositionFailed,
            "decomposition certificates fail; the involution is likely not proper")


# complex entries (256 KiB) that one stacked intermediate of the trace-form path holds at most
_STACK_ENTRIES = 1 << 14


def _chunks(items, entries_per_item):
    """``items`` in consecutive runs whose stacked intermediates stay within _STACK_ENTRIES."""
    step = max(1, _STACK_ENTRIES // max(1, entries_per_item))
    return [items[i:i + step] for i in range(0, len(items), step)]


def _rowwise(fn, *stacks):
    """``fn`` with each row of each stack as a 1 x n matrix of its own.

    numpy then runs one matrix-vector product per row, as for a single
    element; on a 2-D stack of two or more rows it runs a matrix product,
    which rounds differently, so a row's value would depend on its stack."""
    return fn(*(s[:, None, :] for s in stacks))[:, 0]


def _lapack(fn, mats, rejected):
    """``fn`` (the trace-form ``svd``) on a stack of matrices in one call, unless LAPACK rejects the stack.

    Then each matrix is tried alone: one that fails is marked in the bool mask ``rejected`` and
    becomes the identity in ``mats``, and the stack runs again."""
    try:
        return fn(mats)
    except np.linalg.LinAlgError:
        for i, mat in enumerate(mats):
            try:
                fn(mat)
            except np.linalg.LinAlgError:
                rejected[i] = True
                mats[i] = np.eye(len(mat))
    return fn(mats)


def _selfadjoint_part(x):
    return 0.5 * (x + x.star())


def right_projections(xs, tol=DEFAULT_TOL):
    """RP(a) for each a of ``xs``, all of one parent, yielded in order.

    An input whose RP the weakly-Rickart pass published at this tol is
    answered from that table. The trace-form path takes the other inputs in
    one stack before the first RP is yielded; each row it rejects goes to the
    solver when it is reached, so a row whose RP cannot be certified raises
    its own error there and no later row is solved."""
    if not xs:
        return
    parent = xs[0].parent
    table = parent._cache.get((_PUBLISHED_RPS, tol), {})
    hits = [table.get(a.coeffs.tobytes()) for a in xs]
    out = [Element(parent, hit) if hit is not None else parent.zero() if negligible(a.norm(), tol) else None
           for a, hit in zip(xs, hits)]
    misses = [i for i, e in enumerate(out) if e is None]
    coords = _cached(parent, _trace_coordinates, tol)[2] if misses else None
    if coords is not None and parent.is_unital(tol):
        for run in _chunks(misses, parent.dim ** 2):
            rows = np.array([xs[i].coeffs for i in run])
            for i, e in zip(run, _trace_form_projections(parent, rows, coords, tol)):
                out[i] = e
    for a, e in zip(xs, out):  # None: a row the trace-form path rejected, or every miss without its coordinates
        yield _solved_right_projection(a, tol) if e is None else e


def _solved_right_projection(a, tol):
    """RP(a) as the projection sum of the decomposition of a*a, certified by a RP(a) = a."""
    e = spectral_decompose(_selfadjoint_part(a.star() * a), tol).projection_sum()
    require(relative(float(_norms((a * e - a).coeffs)), a.norm()), certificate_bound(tol),
            DecompositionFailed, "RP certificate a*RP(a) = a fails")
    return e


def _trace_form_projections(parent, a, coords, tol):
    """RP of each row of ``a`` from one stacked SVD in trace-form coordinates; None where a certificate fails.

    With W L_a W^-1 = U S V^H, the kernel of L_a is W^-1 times the right
    singular vectors past the rank r, so L_RP(a) = W^-1 V_r V_r^H W and
    RP(a) is its value at 1. The rank rule is the solver's zero rule on the
    eigenvalues S^2 of L_{a*a}. A row is kept when e = e*, e^2 = e and
    a e = a hold at certificate_bound and tau . e = r (see ``_trace_ranks``):
    rank L_e = rank L_a together with a e = a gives ker L_a = ker L_e."""
    w, w_inv = coords
    rejected = np.zeros(len(a), dtype=bool)
    _, s, vh = _lapack(np.linalg.svd, w @ _rowwise(parent.left_mat, a) @ w_inv, rejected)
    ranks = np.array([np.count_nonzero(significant(row * row, tol)) for row in s])
    c = (vh @ (w @ parent.unit_vector(tol))) * (np.arange(parent.dim) < ranks[:, None])
    e = (w_inv @ (vh.conj().swapaxes(-1, -2) @ c[:, :, None]))[..., 0]
    worst = np.maximum(np.maximum(
        _norms(e - _rowwise(parent.star_coeffs, e)),
        _norms(_rowwise(parent.row_products, e, e) - e)),
        relative(_norms(_rowwise(parent.row_products, a, e) - a), _norms(a)))
    traced, off = _trace_ranks(parent, e)
    ok = (np.maximum(worst, off) <= certificate_bound(tol)) & (traced == ranks) & ~rejected
    return [Element(parent, row) if good else None for row, good in zip(e, ok.tolist())]


def right_projection(a, tol=DEFAULT_TOL):
    """RP(a): the projection e with ae = a and ker(a.) contained in ker(e.)."""
    return next(right_projections([a], tol))


def left_projection(a, tol=DEFAULT_TOL):
    return right_projection(a.star(), tol)


def quasi_inverse(a, tol=DEFAULT_TOL):
    """x with axa = a (and xax = x for this construction)."""
    if negligible(a.norm(), tol):
        return a.parent.zero()
    dec = spectral_decompose(_selfadjoint_part(a.star() * a), tol)
    x = dec.map_values(lambda lam: 1.0 / lam) * a.star()
    res = relative((a * x * a - a).norm(), a.norm())
    require(res, certificate_bound(tol), DecompositionFailed, "quasi-inverse certificate axa = a fails")
    return x


def positive_sqrt(x, tol=DEFAULT_TOL):
    """The positive y with y^2 = x, inside the subalgebra generated by x."""
    size = x.norm()
    require(relative((x - x.star()).norm(), size), certificate_bound(tol), NotPositive,
            "element is not selfadjoint")
    if negligible(size, tol):
        return x.parent.zero()
    dec = spectral_decompose(_selfadjoint_part(x), tol)
    bound = certificate_bound(tol, max((abs(l) for l, _ in dec.terms), default=0.0))
    for lam, _ in dec.terms:
        if abs(lam.imag) > bound or lam.real < -bound:
            raise NotPositive(f"negative/complex spectral value {lam}")
    y = dec.map_values(lambda lam: np.sqrt(max(lam.real, 0.0)))
    res = relative((y * y - x).norm(), size)
    require(res, certificate_bound(tol), DecompositionFailed, "square-root certificate y^2 = x fails")
    return y


def ep_witness(a, tol=DEFAULT_TOL):
    """Selfadjoint w in the subalgebra generated by a*a with (a*a)w^2 = RP(a) != 0."""
    if negligible(a.norm(), tol):
        raise DegenerateInput("EP witness undefined for the zero element")
    h = _selfadjoint_part(a.star() * a)
    dec = spectral_decompose(h, tol)
    floor = relative_bound(tol, max((abs(l) for l, _ in dec.terms), default=1.0))
    for lam, _ in dec.terms:
        if lam.real < floor:
            raise DecompositionFailed(f"non-positive spectral value {lam} in a*a")
    if not dec.terms:
        raise DecompositionFailed("a*a has empty decomposition though a is non-zero")
    w = dec.map_values(lambda lam: 1.0 / np.sqrt(lam.real))
    proj = h * w * w
    res = (proj - dec.projection_sum()).norm()
    require(res, certificate_bound(tol, proj.norm()), DecompositionFailed,
            "EP witness certificate (a*a)w^2 = RP(a) fails")
    return w


def _gram_matrix(algebra):
    """Hermitian form <a, b> = trace of left multiplication by b* a, over A's basis.

    Row i of star^T holds e_i*, so with F the trace form and L linear,
    tr(L_{e_i* e_j}) is (star^T F)[i, j]. Use via _cached."""
    g = algebra.star.T @ _cached(algebra, _trace_form)
    return 0.5 * (g + g.conj().T)


def _trace_coordinates(algebra, tol):
    """The ``eigh`` of the Gram matrix G and, where it is positive definite, its trace-form coordinates.

    Returns ``(evals, evecs, coords)``; ``coords``, the one positive-definiteness decision, is
    ``(W, W^-1)`` when every eigenvalue of G is ``significant``, else None. W = Lambda^1/2 V^H, so
    G = W^H W and W L_a W^-1 is L_a in a <.,.>-orthonormal basis. Use via _cached."""
    evals, evecs = np.linalg.eigh(_cached(algebra, _gram_matrix))
    coords = None
    if significant(evals, tol)[0]:  # eigh sorts ascending
        root = np.sqrt(evals)
        coords = (root[:, None] * evecs.conj().T, evecs / root)
    return evals, evecs, coords


def cstar_norm(a, tol=DEFAULT_TOL):
    """The unique pre-C*-norm: |a| = sqrt of the largest eigenvalue lam of pi(a)^H pi(a) (the C*-identity),
    with pi(a) = W L_a W^-1 the regular representation in the cached trace-form coordinates.

    Any faithful *-representation computes the same value; this one needs no
    block decomposition. Certified: pi(a)^H pi(a) must be pi(a*a) within
    certificate_bound(tol) max(1, lam), else IllConditioned. Raises NoCStarNorm
    when the trace form is not positive definite (non-proper involution).
    """
    coords = _cached(a.parent, _trace_coordinates, tol)[2]
    if coords is None:
        raise NoCStarNorm("trace form not positive definite; no C*-norm exists")
    # a positive-definite trace form forces properness, hence A is unital and
    # left multiplication on (A, <.,.>) is a faithful *-representation
    w, w_inv = coords
    pi = w @ a.lmat() @ w_inv
    square = pi.conj().T @ pi
    lam = float(np.linalg.eigh(square)[0][-1])
    require(relative(float(np.linalg.norm(square - w @ (a.star() * a).lmat() @ w_inv)), lam),
            certificate_bound(tol), IllConditioned, "pi(a)^H pi(a) is not pi(a*a) in trace-form coordinates")
    return float(np.sqrt(lam))
