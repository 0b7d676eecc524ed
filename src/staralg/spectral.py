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
stack. On the monomial form with G diagonal, a multiple c e_i of one basis
element needs no SVD: W = diag(g^1/2) leaves one entry in each column of
W L_a W^-1, so its singular values come off the product table and RP(c e_i)
is the unit with the coefficients outside the significant columns set to 0.
One call certifies the RPs of both routes with the same four checks
(e = e*, e^2 = e, a e = a and tau . e = rank); a row the table's RP fails
is tried again by the SVD, and a row that fails there, and every row of an
algebra without trace-form coordinates, goes to the solver as the
decomposition of a*a, one element at a time. ``right_projections``
takes whole stacks and yields their RPs in row order: the weakly-Rickart
pass asks for the basis and its 8 samples in one call, and the Baer guard
for each pair's two; ``right_projection(a)`` is the first of a stack of one,
as ``join`` and ``annihilator`` (one RP(h) per set) ask.
The solver runs on a row only when that row is reached, so a row whose RP
cannot be certified raises its own error there, and a caller that stops at
it leaves the later rows unsolved. Every product of the stacked path runs on
slices shaped as for one element, so an element's numbers do not depend on
the elements stacked with it.

The SVD finds ker L_a on the way to RP(a): W^-1 times the right singular
vectors past the rank, in unit columns. ``_right_projections_and_kernels``
yields each RP with a function that forms that kernel (None for a row the
table, the solver or the published table answered, or a zero row), so the
weakly-Rickart pass checks L_RP(a) = 0 on it without a second SVD of L_a;
``right_projections`` is that generator with the kernels dropped.

This module alone touches the published right projections: one table per
tol in ``algebra._cache``, of read-only RPs keyed by the input's coefficient
bytes. ``_publish`` writes it, called by the weakly-Rickart pass with the
RPs it read up to its first failing row, and ``_right_projections_and_kernels``
reads it, wrapping each hit as an Element. So the Baer guard's RP(e_i) are
the pass's, and an algebra no pass ran on solves every input. A published RP
is what a fresh solve gives, as a row's numbers do not depend on its stack.
Each caller's own certificates still run on every call.

``spectral_decompose`` keeps its most recent success, one slot per tol in
``algebra._cache``: the input's coefficient bytes, the kept eigenvalues and
the certified projection rows, as read-only arrays. An input with the same
bytes is answered from the slot, wrapped as Elements of the caller's b; a
miss overwrites it and a failure never enters it. ``quasi_inverse(a)``,
``ep_witness(a)`` and the solved RP(a) hand the solver
``_selfadjoint_square(a)``, and ``positive_sqrt(a*a)`` the same bits, so asked
one after another on one a they solve it once. A hit is what a fresh solve
gives, as the input bits are equal. The slot is freed with the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import DEFAULT_TOL, Element, _cached, _single_terms, _table_singular_values, _trace_form, _trace_ranks
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
# with tol, the ``algebra._cache`` key of the last decomposition ``spectral_decompose`` certified
_LAST_DECOMPOSITION = "last spectral decomposition"


def _norms(x):
    """``np.linalg.norm(x, axis=-1)``, the same arithmetic without its argument handling."""
    return np.sqrt((x.conj() * x).real.sum(axis=-1))


def spectral_decompose(b, tol=DEFAULT_TOL):
    """Write a normal element as a sum of scaled orthogonal projections.

    The zero eigenvalue is omitted. Raises DecompositionFailed when b is not
    normal or the certificates cannot be met, which is the expected signal
    on non-proper algebras; IllConditioned when b*b or bb* overflows; and
    LinAlgError when LAPACK rejects L_b. Every step runs on L_b over A itself.

    The last success per tol is kept in the algebra's cache (its input bytes,
    eigenvalues and read-only projection rows), and an input with the same
    bytes is answered from it; a failure is not kept. The projections'
    coefficients are read-only views of those rows, on a hit and a miss alike.
    """
    parent = b.parent
    key = b.coeffs.tobytes()
    last = parent._cache.get((_LAST_DECOMPOSITION, tol))
    if last is not None and last[0] == key:
        return _wrapped(b, *last[1:])
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
    for x in (kept, ps):
        x.setflags(write=False)
    parent._cache[(_LAST_DECOMPOSITION, tol)] = (key, kept, ps)
    return _wrapped(b, kept, ps)


def _wrapped(b, lams, ps):
    """The decomposition of b with eigenvalues ``lams`` and projection rows ``ps``."""
    return SpectralDecomposition(b, tuple((lam, Element(b.parent, p)) for lam, p in zip(lams.tolist(), ps)))


def _certify(b, ps, lams, tol):
    """Raise DecompositionFailed unless b = sum_j lams[j] ps[j] is a certified decomposition.

    Each projection (a row of ps) must be nonzero and selfadjoint, the
    projections idempotent and pairwise orthogonal, and the sum must give b,
    all within certificate_bound(tol). A zero projection's residual is the
    smallest projection norm, the one at or under the bound."""
    parent = b.parent
    bound = certificate_bound(tol)
    norms = _norms(ps)
    if (norms <= bound).any():
        raise DecompositionFailed("zero projection in decomposition", float(np.nanmin(norms)))
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


def _selfadjoint_square(a):
    """The selfadjoint part of a*a: what the solver decomposes for RP(a), ``quasi_inverse`` and ``ep_witness``."""
    return _selfadjoint_part(a.star() * a)


def right_projections(xs, tol=DEFAULT_TOL):
    """RP(a) for each a of ``xs``, all of one parent, yielded in order.

    An input whose RP the weakly-Rickart pass published at this tol is
    answered from that table. The trace-form path takes the other inputs in
    one stack before the first RP is yielded, reading a multiple of one
    basis element off the product table when the algebra is monomial with a
    diagonal Gram matrix, and finding the rest by one stacked SVD; each row
    it rejects goes to the solver when it is reached, so a row whose RP
    cannot be certified raises its own error there and no later row is
    solved."""
    for e, _ in _right_projections_and_kernels(xs, tol):
        yield e


def _right_projections_and_kernels(xs, tol):
    """``right_projections``, each RP yielded with the kernel of L_a its route found: a function of no
    arguments that forms it, so that a caller which does not read it pays nothing for it. The SVD route
    gives W^-1 V[rank:]^H in unit columns; a published hit, a zero input, a row read off the product table
    and a row the solver answered give None."""
    if not xs:
        return
    parent = xs[0].parent
    published = parent._cache.get((_PUBLISHED_RPS, tol), {})
    hits = [published.get(a.coeffs.tobytes()) for a in xs]
    out = [(Element(parent, hit), None) if hit is not None
           else (parent.zero(), None) if negligible(a.norm(), tol) else None
           for a, hit in zip(xs, hits)]
    misses = [i for i, found in enumerate(out) if found is None]
    coords = _cached(parent, _trace_coordinates, tol)[2] if misses else None
    if coords is not None and parent.is_unital(tol):
        for run in _chunks(misses, parent.dim ** 2):
            rows = np.array([xs[i].coeffs for i in run])
            for i, found in zip(run, _trace_form_projections(parent, rows, coords, tol)):
                out[i] = found
    for a, found in zip(xs, out):  # None: a row the trace-form path rejected, or every miss without its coordinates
        yield (_solved_right_projection(a, tol), None) if found is None else found


def _publish(parent, xs, es, tol):
    """Publish each row of ``es``, made read-only, as RP(x) at tol for the row x of ``xs`` beside it, for
    ``_right_projections_and_kernels`` to read; the weakly-Rickart pass is the one caller."""
    es.setflags(write=False)
    parent._cache.setdefault((_PUBLISHED_RPS, tol), {}).update((x.tobytes(), e) for x, e in zip(xs, es))


def _solved_right_projection(a, tol):
    """RP(a) as the projection sum of the decomposition of a*a, certified by a RP(a) = a."""
    e = spectral_decompose(_selfadjoint_square(a), tol).projection_sum()
    require(relative(float(_norms((a * e - a).coeffs)), a.norm()), certificate_bound(tol),
            DecompositionFailed, "RP certificate a*RP(a) = a fails")
    return e


def _trace_form_projections(parent, a, coords, tol):
    """RP of each row of ``a`` in trace-form coordinates with its route's kernel function (see
    ``_right_projections_and_kernels``); None where a certificate fails.

    On the monomial form with G diagonal, a multiple of one basis element is read off the product
    table (``_table_projections``); the other rows come from one stacked SVD (``_svd_projections``).
    One ``_certified`` call checks every row, and a table row it rejects is tried again by the SVD,
    whose kernel the row then takes."""
    diagonal = _cached(parent, _trace_coordinates, tol)[3]
    table = None if diagonal is None else _single_terms(parent, a)
    if table is None or not table.any():
        e, ranks, ok, kernels = _svd_projections(parent, a, coords, tol)
        return _kept(parent, e, ok & _certified(parent, a, e, ranks, tol), kernels)
    e, ranks, ok = np.empty_like(a), np.zeros(len(a), dtype=int), np.ones(len(a), dtype=bool)
    kernels = np.empty(len(a), dtype=object)
    e[table], ranks[table] = _table_projections(parent, a[table], diagonal, tol)
    if not table.all():
        e[~table], ranks[~table], ok[~table], kernels[~table] = _svd_projections(parent, a[~table], coords, tol)
    ok &= _certified(parent, a, e, ranks, tol)
    retry = table & ~ok
    if retry.any():
        e[retry], ranks[retry], ok[retry], kernels[retry] = _svd_projections(parent, a[retry], coords, tol)
        ok[retry] &= _certified(parent, a[retry], e[retry], ranks[retry], tol)
    return _kept(parent, e, ok, kernels)


def _kept(parent, e, ok, kernels):
    """Each row of ``e`` as an Element with its kernel function where ``ok`` holds, else None."""
    return [(Element(parent, row), kernel) if good else None for row, good, kernel in zip(e, ok.tolist(), kernels)]


def _table_projections(parent, a, diagonal, tol):
    """The candidate RP and rank of each row of ``a``, each a multiple c e_i of one basis element, off the
    product table of an algebra whose Gram matrix is diag(``diagonal``).

    With G = diag(g), W = diag(g^1/2) gives trace-form coordinates, and W L_a W^-1 maps e_j to
    c w[i, j] (g_t[i, j] / g_j)^1/2 e_t[i, j]. Its nonzero columns land on distinct t[i, j], so they are
    orthogonal: the singular values are s_j = |c w[i, j]| (g_t[i, j] / g_j)^1/2 with right singular
    vectors e_j, and L_RP(a) = W^-1 P W = P for P the projection onto the e_j whose s_j^2 is
    ``significant``, the SVD's rank rule. So RP(a) is the unit with every other coefficient set to 0."""
    s = _table_singular_values(parent, a, diagonal)
    keep = significant(s * s, tol)
    return parent.unit_vector(tol) * keep, keep.sum(axis=1)


def _svd_projections(parent, a, coords, tol):
    """The candidate RP, rank and kernel function of each row of ``a`` from one stacked SVD, and the mask
    of the rows whose matrix LAPACK accepted.

    With W L_a W^-1 = U S V^H, the kernel of L_a is W^-1 times the right
    singular vectors past the rank r, so L_RP(a) = W^-1 V_r V_r^H W and
    RP(a) is its value at 1. The rank rule is the solver's zero rule on the
    eigenvalues S^2 of L_{a*a}, one count over the whole stack."""
    w, w_inv = coords
    rejected = np.zeros(len(a), dtype=bool)
    _, s, vh = _lapack(np.linalg.svd, w @ _rowwise(parent.left_mat, a) @ w_inv, rejected)
    keep = significant(s * s, tol)  # the first rank entries of each row, as s is sorted descending
    ranks = keep.sum(axis=1)
    c = (vh @ (w @ parent.unit_vector(tol))) * keep
    e = (w_inv @ (vh.conj().swapaxes(-1, -2) @ c[:, :, None]))[..., 0]
    return e, ranks, ~rejected, [partial(_svd_kernel, w_inv, v[r:]) for v, r in zip(vh, ranks.tolist())]


def _svd_kernel(w_inv, tail):
    """ker L_a off the trace-form SVD: W^-1 times the right singular vectors ``tail`` past the rank, in unit
    columns."""
    if not len(tail):  # full rank: kernel {0}
        return np.zeros((len(w_inv), 0), dtype=complex)
    kernel = w_inv @ tail.conj().T
    return kernel / np.linalg.norm(kernel, axis=0)


def _certified(parent, a, e, ranks, tol):
    """Mask of the rows where e is RP(a) for a of rank ``ranks``: e = e*, e^2 = e and a e = a hold at
    certificate_bound(tol), and tau . e = rank (see ``_trace_ranks``), as rank L_e = rank L_a together
    with a e = a gives ker L_a = ker L_e. Each row's products run as for one element (``_rowwise``)."""
    worst = np.maximum(np.maximum(
        _norms(e - _rowwise(parent.star_coeffs, e)),
        _norms(_rowwise(parent.row_products, e, e) - e)),
        relative(_norms(_rowwise(parent.row_products, a, e) - a), _norms(a)))
    traced, off = _trace_ranks(parent, e)
    return (np.maximum(worst, off) <= certificate_bound(tol)) & (traced == ranks)


def right_projection(a, tol=DEFAULT_TOL):
    """RP(a): the projection e with ae = a and ker(a.) contained in ker(e.)."""
    return next(right_projections([a], tol))


def left_projection(a, tol=DEFAULT_TOL):
    return right_projection(a.star(), tol)


def quasi_inverse(a, tol=DEFAULT_TOL):
    """x with axa = a (and xax = x for this construction).

    x is read off the decomposition of a*a, which the solver's slot answers when
    the last decomposition on this algebra was of the same a*a; the certificate
    axa = a runs on every call."""
    if negligible(a.norm(), tol):
        return a.parent.zero()
    dec = spectral_decompose(_selfadjoint_square(a), tol)
    x = dec.map_values(lambda lam: 1.0 / lam) * a.star()
    res = relative((a * x * a - a).norm(), a.norm())
    require(res, certificate_bound(tol), DecompositionFailed, "quasi-inverse certificate axa = a fails")
    return x


def positive_sqrt(x, tol=DEFAULT_TOL):
    """The positive y with y^2 = x, inside the subalgebra generated by x.

    For x = a*a the decomposition is the one ``quasi_inverse(a)`` and ``ep_witness(a)``
    read, answered from the solver's slot when it was the last one on this algebra;
    the certificate y^2 = x runs on every call."""
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
    """Selfadjoint w in the subalgebra generated by a*a with (a*a)w^2 = RP(a) != 0.

    w is read off the decomposition of a*a, which the solver's slot answers when
    the last decomposition on this algebra was of the same a*a; the certificate
    (a*a)w^2 = RP(a) runs on every call."""
    if negligible(a.norm(), tol):
        raise DegenerateInput("EP witness undefined for the zero element")
    h = _selfadjoint_square(a)
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

    Returns ``(evals, evecs, coords, diagonal)``; ``coords``, the one positive-definiteness decision, is
    ``(W, W^-1)`` when every eigenvalue of G is ``significant``, else None. W = Lambda^1/2 V^H, so
    G = W^H W and W L_a W^-1 is L_a in a <.,.>-orthonormal basis. ``diagonal``, the one decision that
    G is diagonal, is G's diagonal g when coords exist and every entry off it is 0, else None; then
    diag(g^1/2) serves as W too. Use via _cached."""
    gram = _cached(algebra, _gram_matrix)
    evals, evecs = np.linalg.eigh(gram)
    coords = diagonal = None
    if significant(evals, tol)[0]:  # eigh sorts ascending
        root = np.sqrt(evals)
        coords = (root[:, None] * evecs.conj().T, evecs / root)
        if np.count_nonzero(gram) == len(gram):  # its diagonal is positive, so it holds all n nonzeros
            diagonal = np.diagonal(gram).real
    return evals, evecs, coords, diagonal


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
