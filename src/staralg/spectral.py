"""Orthogonal-projection decompositions and everything built on them.

A normal element of a proper algebra decomposes as ``b = sum lambda_j e_j``
with distinct nonzero scalars and nonzero orthogonal projections lying in the
subalgebra generated by b. Each projection is an interpolation idempotent on
the clustered eigenvalues of the regular representation, so it stays inside
the generated subalgebra by construction. Quasi-inverses, positive square
roots and the EP witness are read off the decomposition of a*a.

There is one solver, ``_spectral_decompose``, and it takes a stack of
elements of one parent. Each stage runs once per stack (a stack whose
intermediates would exceed ``_STACK_ENTRIES`` is solved in runs): the
normality product, the regular representations L_b, and the stacked
``eigvals``, ``eig`` and ``inv``; only the eigenvalue clustering is a loop
per element. Entry i of its result is element i's decomposition, or the
exception solving element i alone raises, so a failing element leaves the
others as they are. ``spectral_decompose(b)`` is a stack of one.

Right projections take a shorter path where they can. On a unital algebra
whose Gram matrix G passes ``check_proper``'s positivity rule, left
multiplication is a faithful *-representation on (A, <a, b> = tr L_{b*a}),
so RP(a) is the <.,.>-orthogonal projection onto ker(L_a)^perp applied to 1:
one stacked ``svd`` of W L_a W^-1, with G = W^H W, gives it for a whole
stack. Each such RP is certified as the one it claims to be; a row that
fails, and every row of an algebra without that factor, goes to the solver
as the decomposition of a*a. ``right_projections`` takes whole stacks: the
weakly-Rickart pass asks for the basis and its 8 samples in one call, and
``annihilator`` for its whole set; ``right_projection(a)`` is a stack of
one. Every product runs on slices shaped as for one element, so an
element's numbers do not depend on the elements stacked with it.

While an ``analyze``, ``check_baer`` or ``check_weakly_rickart`` call runs,
each input of ``right_projections`` is looked up on its own in a memo keyed
by ``(parent, coefficient bytes, tol)``: an input seen before returns the
stored RP, the distinct misses are solved in one stack, and a failure is not
stored. So the Baer guard's singletons reuse the right projections the
weakly-Rickart pass made. The memo lives in a context variable, is opened by
the outermost such call (an inner call shares it) and is dropped when that
call returns. It is not kept in ``algebra._cache``: on a long-lived algebra
it would grow with every query, and a query outside a run computes afresh.
Each caller's own certificates, such as ``a RP(a) = a`` in the
weakly-Rickart pass, still run on every call.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Element, _cached, _padded, _trace_form, _trace_ranks, _unitization
from .errors import DecompositionFailed, DegenerateInput, IllConditioned, NoCStarNorm, NotPositive
from .linalg import certificate_bound, cluster_points, relative_bound, require


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


# (parent, coefficient bytes, tol) -> RP of that element while a scope is open
_MEMO = contextvars.ContextVar("staralg_right_projections", default=None)


@contextlib.contextmanager
def _right_projection_scope():
    """Share right projections among the calls inside; an inner scope reuses the outer memo."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def spectral_decompose(b, tol=DEFAULT_TOL):
    """Write a normal element as a sum of scaled orthogonal projections.

    The zero eigenvalue is omitted. Raises DecompositionFailed when the
    certificates cannot be met, which is the expected signal on non-proper
    algebras.
    """
    return _raised(_spectral_decompose([b], tol)[0])


def _raised(entry):
    """A solver entry's value, or its exception raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry


# complex entries (256 KiB) that one stacked intermediate of the solver holds at most
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


def _norms(x):
    """``np.linalg.norm(x, axis=-1)``, the same arithmetic without its argument handling."""
    return np.sqrt((x.conj() * x).real.sum(axis=-1))


def _failure(residual, bound, error, message):
    """The exception ``require`` raises for this residual, or None within the bound."""
    try:
        require(residual, bound, error, message)
    except error as exc:
        return exc
    return None


def _lapack(fn, mats, errors):
    """``fn`` on a stack of matrices in one call, unless LAPACK rejects the stack.

    Then each matrix is tried alone: one that fails keeps its LinAlgError in
    ``errors`` (unless an earlier stage failed its row first) and becomes the
    identity in ``mats``, and the stack runs again."""
    try:
        return fn(mats)
    except np.linalg.LinAlgError:
        for i, mat in enumerate(mats):
            try:
                fn(mat)
            except np.linalg.LinAlgError as exc:
                errors[i] = errors[i] or exc
                mats[i] = np.eye(len(mat))
        return fn(mats)


def _outside_a(ps, tol, errors, rows):
    """Fail each row of unitization coefficients (g, J, 1 + n) whose projections leave A.

    A projection leaves A when its part along the adjoined unit, coordinate
    0, exceeds certificate_bound(tol) relative to its norm; its row keeps the
    IllConditioned, with the residual of its first such projection, in ``errors``."""
    res = _norms(ps[..., :1])
    outside = res > certificate_bound(tol) * np.maximum(1.0, _norms(ps))
    for i, row_res, row_outside in zip(rows, res, outside):
        if row_outside.any():
            exc = IllConditioned("hull element does not lie in the base algebra", float(row_res[row_outside][0]))
            errors[i] = errors[i] or exc


def _certificates(parent, bs, ps, lams, tol):
    """Per row, the exception the decomposition certificates raise, or None.

    Row g decomposes the element bs[g] as sum_j lams[g, j] ps[g, j] (ps is
    (g, J, n)): each projection must be nonzero and selfadjoint, the
    projections idempotent and pairwise orthogonal, and the sum must give
    bs[g], all within certificate_bound(tol)."""
    bound = certificate_bound(tol)
    # [g, i, j, :] = p_i p_j - delta_ij p_i in row g
    pairs = parent.products(ps, ps[:, None]) - np.eye(ps.shape[1])[:, :, None] * ps[:, None]
    total = (ps * lams[:, :, None]).sum(axis=1)
    worst = np.maximum(np.maximum(
        _norms(ps - parent.star_coeffs(ps)).max(axis=1, initial=0.0),
        _norms(pairs).max(axis=(1, 2), initial=0.0)),
        _norms(bs - total) / np.maximum(1.0, _norms(bs)))
    empty = (_norms(ps) <= bound).any(axis=1)
    return [DecompositionFailed("zero projection in decomposition") if zero else _failure(
                w, bound, DecompositionFailed,
                "decomposition certificates fail; the involution is likely not proper")
            for zero, w in zip(empty.tolist(), worst.tolist())]


def _spectral_decompose(bs, tol):
    """The one solver: decompose each element of ``bs``, all of one parent.

    Entry i is bs[i]'s SpectralDecomposition, or the exception solving bs[i]
    alone raises: DecompositionFailed when it is not normal or its
    certificates fail, IllConditioned when a projection leaves A, LinAlgError
    when LAPACK rejects it. The stack is solved in runs that bound the
    memory of its intermediates."""
    out = []
    for run in _chunks(bs, (bs[0].parent.dim + 1) ** 2):
        out += _solve_stack(run, tol)
    return out


def _solve_stack(bs, tol):
    parent = bs[0].parent
    bound = certificate_bound(tol)
    coeffs = np.array([b.coeffs for b in bs])
    norms = _norms(coeffs)
    both = np.concatenate([coeffs[:, None], _rowwise(parent.star_coeffs, coeffs)[:, None]], axis=1)
    squares = parent.products(both, both[:, None])  # [r, 1, 0] = b* b, [r, 0, 1] = b b*
    # an overflow or a NaN fails its row here, before LAPACK sees it
    normality = _norms(squares[:, 1, 0] - squares[:, 0, 1]) / np.maximum(1.0, norms) ** 2
    out = [_failure(r, bound, DecompositionFailed, "element is not normal")
           or (SpectralDecomposition(b, ()) if norm <= tol else None)
           for b, r, norm in zip(bs, normality.tolist(), norms.tolist())]
    live = [i for i, entry in enumerate(out) if entry is None]
    if not live:
        return out

    big = _cached(parent, _unitization, tol)
    pad = big.dim - parent.dim  # 1 when a unit was adjoined at coordinate 0
    one = big.unit if pad else parent.unit_vector(tol)
    errors = [None] * len(live)
    mats = _rowwise(big.left_mat, _padded(coeffs[live], pad))
    vals = _lapack(np.linalg.eigvals, mats, errors)
    # each idempotent is p_j(b) for the interpolation polynomial with
    # p_j(lam_k) = delta_jk, i.e. the eigenprojector of the regular
    # representation applied to the unit -- computed that way directly,
    # which is far better conditioned than multiplying Lagrange factors.
    evals, evecs = _lapack(np.linalg.eig, mats, errors)
    weights = _lapack(np.linalg.inv, evecs, errors) @ one

    # per row: the clustered eigenvalues kept (nonzero) and the mask whose
    # column j selects the eigenvectors clustered at the j-th kept one;
    # rows are grouped by how many they keep
    kept, masks, groups = [], [], {}
    for r in range(len(live)):
        lams = cluster_points(vals[r].tolist(), tol)
        zero = relative_bound(tol, max(abs(l) for l in lams))
        keep = [j for j, lam in enumerate(lams) if abs(lam) > zero]
        assign = np.abs(evals[r][:, None] - np.array(lams)[None, :]).argmin(axis=1)
        kept.append([lams[j] for j in keep])
        masks.append(assign[:, None] == np.array(keep, dtype=int)[None, :])
        groups.setdefault(len(keep), []).append(r)

    for size, members in groups.items():
        for group in _chunks(members, size * big.dim**2):
            ps = (evecs[group] @ (np.array([masks[r] for r in group]) * weights[group][:, :, None])).swapaxes(1, 2)
            ps = (ps + big.star_coeffs(ps)) * 0.5
            # one idempotent-polishing step, p^2 (3 - 2p)
            ps = big.row_products(big.row_products(ps, ps), one * 3.0 - ps * 2.0)
            if pad:
                _outside_a(ps, tol, errors, group)
                ps = ps[..., pad:]

            owners = [live[r] for r in group]
            lams = np.array([kept[r] for r in group], dtype=complex).reshape(len(group), size)
            failures = _certificates(parent, coeffs[owners], ps, lams, tol)
            for r, i, failure, p in zip(group, owners, failures, ps):
                errors[r] = errors[r] or failure
                out[i] = errors[r] or SpectralDecomposition(
                    bs[i], tuple((lam, Element(parent, q)) for lam, q in zip(kept[r], p)))
    return out


def _selfadjoint_part(x):
    return 0.5 * (x + x.star())


def right_projections(xs, tol=DEFAULT_TOL):
    """RP(a) for each a of ``xs``, all of one parent, solved as one stack.

    Entry i is RP(xs[i]), or the exception ``right_projection(xs[i])`` raises.
    Inside a right-projection scope an input seen before returns the stored
    RP; a failure is not stored."""
    memo = _MEMO.get()
    if memo is None:
        return _right_projections(xs, tol)
    # the parent itself, not id(): a freed algebra's id can be reused
    keys = [(a.parent, a.coeffs.tobytes(), tol) for a in xs]
    misses = {}
    for key, a in zip(keys, xs):
        if key not in memo:
            misses.setdefault(key, a)
    solved = dict(zip(misses, _right_projections(list(misses.values()), tol))) if misses else {}
    memo.update((key, e) for key, e in solved.items() if isinstance(e, Element))
    return [solved[key] if key in solved else memo[key] for key in keys]


def _right_projections(xs, tol):
    norms = [a.norm() for a in xs]
    out = [a.parent.zero() if norm <= tol else None for a, norm in zip(xs, norms)]
    live = [i for i, e in enumerate(out) if e is None]
    if not live:
        return out
    parent = xs[0].parent
    coords = _cached(parent, _trace_coordinates, tol)[2]
    a = np.array([xs[i].coeffs for i in live])
    if coords is not None:
        for run in _chunks(list(range(len(live))), parent.dim ** 2):
            for r, e in zip(run, _trace_form_projections(parent, a[run], coords, tol)):
                out[live[r]] = e
        rest = [r for r, i in enumerate(live) if out[i] is None]
        live, a = [live[r] for r in rest], a[rest]
        if not live:
            return out
    x = _rowwise(lambda c: parent.row_products(parent.star_coeffs(c), c), a)  # a* a
    h = (x + _rowwise(parent.star_coeffs, x)) * 0.5  # _selfadjoint_part, row by row
    decs = _spectral_decompose([Element(parent, row) for row in h], tol)
    e = np.array([dec.projection_sum().coeffs if isinstance(dec, SpectralDecomposition) else row
                  for dec, row in zip(decs, a)])  # a failed row stands in for its own RP
    res = _norms(_rowwise(parent.row_products, a, e) - a)
    for i, dec, p, residual in zip(live, decs, e, res.tolist()):
        out[i] = dec if isinstance(dec, Exception) else _failure(
            residual / max(1.0, norms[i]), certificate_bound(tol), DecompositionFailed,
            "RP certificate a*RP(a) = a fails",
        ) or Element(parent, p)
    return out


def _trace_form_projections(parent, a, coords, tol):
    """RP of each row of ``a`` from one stacked SVD in trace-form coordinates; None where a certificate fails.

    With W L_a W^-1 = U S V^H, the kernel of L_a is W^-1 times the right
    singular vectors past the rank r, so L_RP(a) = W^-1 V_r V_r^H W and
    RP(a) is its value at 1. The rank rule is the solver's zero rule on the
    eigenvalues S^2 of L_{a*a}. A row is kept when e = e*, e^2 = e and
    a e = a hold at certificate_bound and tau . e = r (see ``_trace_ranks``):
    rank L_e = rank L_a together with a e = a gives ker L_a = ker L_e."""
    w, w_inv = coords
    bound = certificate_bound(tol)
    errors = [None] * len(a)
    _, s, vh = _lapack(np.linalg.svd, w @ _rowwise(parent.left_mat, a) @ w_inv, errors)
    squares = s * s
    ranks = np.array([np.sum(row > relative_bound(tol, row[0])) for row in squares])
    c = (vh @ (w @ parent.unit_vector(tol))) * (np.arange(parent.dim) < ranks[:, None])
    e = (w_inv @ (vh.conj().swapaxes(-1, -2) @ c[:, :, None]))[..., 0]
    worst = np.maximum(np.maximum(
        _norms(e - _rowwise(parent.star_coeffs, e)),
        _norms(_rowwise(parent.row_products, e, e) - e)),
        _norms(_rowwise(parent.row_products, a, e) - a) / np.maximum(1.0, _norms(a)))
    traced, off = _trace_ranks(parent, e)
    ok = (np.maximum(worst, off) <= bound) & (traced == ranks)
    return [Element(parent, row) if good and error is None else None
            for row, good, error in zip(e, ok.tolist(), errors)]


def right_projection(a, tol=DEFAULT_TOL):
    """RP(a): the projection e with ae = a and ker(a.) contained in ker(e.)."""
    return _raised(right_projections([a], tol)[0])


def left_projection(a, tol=DEFAULT_TOL):
    return right_projection(a.star(), tol)


def quasi_inverse(a, tol=DEFAULT_TOL):
    """x with axa = a (and xax = x for this construction)."""
    if a.norm() <= tol:
        return a.parent.zero()
    dec = spectral_decompose(_selfadjoint_part(a.star() * a), tol)
    x = dec.map_values(lambda lam: 1.0 / lam) * a.star()
    res = (a * x * a - a).norm() / max(1.0, a.norm())
    require(res, certificate_bound(tol), DecompositionFailed, "quasi-inverse certificate axa = a fails")
    return x


def positive_sqrt(x, tol=DEFAULT_TOL):
    """The positive y with y^2 = x, inside the subalgebra generated by x."""
    scale = max(1.0, x.norm())
    require((x - x.star()).norm() / scale, certificate_bound(tol), NotPositive, "element is not selfadjoint")
    if x.norm() <= tol:
        return x.parent.zero()
    dec = spectral_decompose(_selfadjoint_part(x), tol)
    bound = certificate_bound(tol) * max(1.0, max((abs(l) for l, _ in dec.terms), default=0.0))
    for lam, _ in dec.terms:
        if abs(lam.imag) > bound or lam.real < -bound:
            raise NotPositive(f"negative/complex spectral value {lam}")
    y = dec.map_values(lambda lam: np.sqrt(max(lam.real, 0.0)))
    res = (y * y - x).norm() / scale
    require(res, certificate_bound(tol), DecompositionFailed, "square-root certificate y^2 = x fails")
    return y


def ep_witness(a, tol=DEFAULT_TOL):
    """Selfadjoint w in the subalgebra generated by a*a with (a*a)w^2 = RP(a) != 0."""
    if a.norm() <= tol:
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
    require(res, certificate_bound(tol) * max(1.0, proj.norm()), DecompositionFailed,
            "EP witness certificate (a*a)w^2 = RP(a) fails")
    return w


def _gram_matrix(algebra, tol):
    """Hermitian form <a, b> = trace of left multiplication by b* a in ``_unitization(A)``.

    Row i of the padded star^T holds e_i* in the unitization's coordinates,
    so with F its trace form and L linear, tr(L_{e_i* e_j}) is
    (star^T F)[i, pad + j]: A's columns of the form. Use via _cached."""
    pad = _cached(algebra, _unitization, tol).dim - algebra.dim
    g = (_padded(algebra.star.T, pad) @ _cached(algebra, _trace_form, tol))[:, pad:]
    return 0.5 * (g + g.conj().T)


def _trace_coordinates(algebra, tol):
    """The ``eigh`` of the Gram matrix G and, where A has them, its trace-form coordinates; use via _cached.

    Returns ``(evals, evecs, coords)``. ``coords`` is ``(W, W^-1)`` when A is
    unital and G passes ``check_proper``'s positivity rule, else None:
    W = Lambda^1/2 V^H, so G = W^H W and W L_a W^-1 is L_a in a
    <.,.>-orthonormal basis."""
    evals, evecs = np.linalg.eigh(_cached(algebra, _gram_matrix, tol))
    coords = None
    if algebra.is_unital(tol) and evals[0] > relative_bound(tol, evals[-1]):
        root = np.sqrt(evals)
        coords = (root[:, None] * evecs.conj().T, evecs / root)
    return evals, evecs, coords


def cstar_norm(a, tol=DEFAULT_TOL):
    """The unique pre-C*-norm, via the Gram-symmetrized regular representation.

    Any faithful *-representation computes the same value; this one needs no
    block decomposition. Raises NoCStarNorm when the trace form is not
    positive definite (non-proper involution).
    """
    algebra = a.parent
    g = _cached(algebra, _gram_matrix, tol)
    evals, evecs = np.linalg.eigh(g)
    if evals[0] <= relative_bound(tol, evals[-1]):
        raise NoCStarNorm("trace form not positive definite; no C*-norm exists")
    ghalf = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
    ginvhalf = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
    # a positive-definite trace form forces properness, hence A is unital and
    # left multiplication on (A, <.,.>) is a faithful *-representation
    lmat = a.lmat()
    return float(np.linalg.norm(ghalf @ lmat @ ginvhalf, 2))
