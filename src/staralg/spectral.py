"""Orthogonal-projection decompositions and everything built on them.

A normal element of a proper algebra decomposes as ``b = sum lambda_j e_j``
with distinct nonzero scalars and nonzero orthogonal projections lying in the
subalgebra generated by b. Each projection is an interpolation idempotent on
the clustered eigenvalues of the regular representation, so it stays inside
the generated subalgebra by construction. Right projections,
quasi-inverses, positive square roots and the EP witness are all read off the
decomposition of a*a.

There is one solver, ``_spectral_decompose``, and it takes a stack of
elements of one parent. Each stage runs once per stack (a stack whose
intermediates would exceed ``_STACK_ENTRIES`` is solved in runs): the
normality product, the regular representations L_b, and the stacked
``eigvals``, ``eig`` and ``inv``; only the eigenvalue clustering is a loop
per element. Entry i of its result is element i's decomposition, or the
exception solving element i alone raises, so a failing element leaves the
others as they are. ``spectral_decompose(b)`` and ``right_projection(a)`` are
stacks of one. ``right_projections`` takes whole stacks: the weakly-Rickart
pass asks for the basis and its 8 samples in one call, and ``annihilator``
for its whole set. Every product runs on slices shaped as for one element
(the projections are grouped by their number), so an element's numbers do
not depend on the elements stacked with it.

While an ``analyze``, ``check_baer`` or ``check_weakly_rickart`` call runs,
each element is looked up on its own in a memo keyed by
``(parent, coefficient bytes, tol)``: an input seen before returns the stored
result, the distinct misses are solved in one stack, and a failure is not
stored. So the Baer guard reuses the right projections the weakly-Rickart
pass made, and equal inputs (g*g = 1 for every group element,
e_ij* e_ij = e_jj in M_k) share one decomposition. The memo lives in a
context variable, is opened by the outermost such call (an inner call
shares it) and is dropped when that call returns. It is not kept in
``algebra._cache``: on a long-lived algebra it would grow with every query,
and a query outside a run computes afresh. Each caller's own certificates,
such as ``a RP(a) = a``, still run on every call.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Element, _cached, _trace_form, unital_hull
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


# (parent, coefficient bytes, tol) -> SpectralDecomposition while a scope is open
_MEMO = contextvars.ContextVar("staralg_decompositions", default=None)


@contextlib.contextmanager
def _decomposition_scope():
    """Share decompositions among the calls inside; an inner scope reuses the outer memo."""
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
    algebras. Inside a decomposition scope an input seen before returns the
    stored result; a failure is not stored.
    """
    return _raised(_decompositions([b], tol)[0])


def _raised(entry):
    """A solver entry's value, or its exception raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def _decompositions(bs, tol):
    """``_spectral_decompose(bs, tol)``, each element looked up in the memo while a scope is open."""
    memo = _MEMO.get()
    if memo is None:
        return _spectral_decompose(bs, tol)
    # the parent itself, not id(): a freed algebra's id can be reused
    keys = [(b.parent, b.coeffs.tobytes(), tol) for b in bs]
    misses = {}
    for key, b in zip(keys, bs):
        if key not in memo:
            misses.setdefault(key, b)
    solved = dict(zip(misses, _spectral_decompose(list(misses.values()), tol))) if misses else {}
    memo.update((key, dec) for key, dec in solved.items() if isinstance(dec, SpectralDecomposition))
    return [solved[key] if key in solved else memo[key] for key in keys]


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


def _restricted(hull, ps, tol, errors, rows):
    """``hull.restrict_coeffs`` on a stack of rows' projections (g, J, m).

    When some projection lies outside A, each row is restricted alone and a
    failing row keeps its IllConditioned in ``errors``."""
    try:
        return hull.restrict_coeffs(ps, tol)
    except IllConditioned:
        out = np.zeros(ps.shape[:-1] + hull.embed_mat.shape[1:], dtype=complex)
        for r, i in enumerate(rows):
            try:
                out[r] = hull.restrict_coeffs(ps[r], tol)
            except IllConditioned as exc:
                errors[i] = errors[i] or exc
        return out


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

    hull = unital_hull(parent, tol)
    big = hull.algebra
    rows = coeffs[live] @ hull.embed_mat.T if hull.adjoined else coeffs[live]
    errors = [None] * len(live)
    mats = _rowwise(big.left_mat, rows)
    vals = _lapack(np.linalg.eigvals, mats, errors)
    # each idempotent is p_j(b) for the interpolation polynomial with
    # p_j(lam_k) = delta_jk, i.e. the eigenprojector of the regular
    # representation applied to the unit -- computed that way directly,
    # which is far better conditioned than multiplying Lagrange factors.
    evals, evecs = _lapack(np.linalg.eig, mats, errors)
    weights = _lapack(np.linalg.inv, evecs, errors) @ hull.unit_coeffs

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
            ps = big.row_products(big.row_products(ps, ps), hull.unit_coeffs * 3.0 - ps * 2.0)
            if hull.adjoined:
                ps = _restricted(hull, ps, tol, errors, group)

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
    """RP(a) for each a of ``xs``, all of one parent, from one stacked solve.

    Entry i is RP(xs[i]), or the exception ``right_projection(xs[i])`` raises."""
    norms = [a.norm() for a in xs]
    out = [a.parent.zero() if norm <= tol else None for a, norm in zip(xs, norms)]
    live = [i for i, e in enumerate(out) if e is None]
    if not live:
        return out
    parent = xs[0].parent
    a = np.array([xs[i].coeffs for i in live])
    x = _rowwise(lambda c: parent.row_products(parent.star_coeffs(c), c), a)  # a* a
    h = (x + _rowwise(parent.star_coeffs, x)) * 0.5  # _selfadjoint_part, row by row
    decs = _decompositions([Element(parent, row) for row in h], tol)
    e = np.array([dec.projection_sum().coeffs if isinstance(dec, SpectralDecomposition) else row
                  for dec, row in zip(decs, a)])  # a failed row stands in for its own RP
    res = _norms(_rowwise(parent.row_products, a, e) - a)
    for i, dec, p, residual in zip(live, decs, e, res.tolist()):
        out[i] = dec if isinstance(dec, Exception) else _failure(
            residual / max(1.0, norms[i]), certificate_bound(tol), DecompositionFailed,
            "RP certificate a*RP(a) = a fails",
        ) or Element(parent, p)
    return out


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
    """Hermitian form <a, b> = trace of left multiplication by b* a in the hull.

    With E the hull embedding and F the hull trace form, tr(L_{e_i* e_j}) is
    ((E star)^T F E)[i, j], since L is linear. Use via _cached."""
    emb = unital_hull(algebra, tol).embed_mat
    g = (emb @ algebra.star).T @ _cached(algebra, _trace_form, tol) @ emb
    return 0.5 * (g + g.conj().T)


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
