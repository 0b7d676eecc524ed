"""Orthogonal-projection decompositions and everything built on them.

A normal element of a proper algebra decomposes as ``b = sum lambda_j e_j``
with distinct nonzero scalars and nonzero orthogonal projections lying in the
subalgebra generated by b. Each projection is an interpolation idempotent on
the clustered eigenvalues of the regular representation, so it stays inside
the generated subalgebra by construction. Right projections,
quasi-inverses, positive square roots and the EP witness are all read off the
decomposition of a*a.

While an ``analyze``, ``check_baer`` or ``check_weakly_rickart`` call runs,
each decomposition is computed once: ``spectral_decompose`` looks its input
up in a memo keyed by ``(parent, coefficient bytes, tol)``, so the Baer guard
reuses the right projections the weakly-Rickart pass made, and equal inputs
(g*g = 1 for every group element, e_ij* e_ij = e_jj in M_k) share one
decomposition. The memo
lives in a context variable, is opened by the outermost such call (an inner
call shares it) and is dropped when that call returns. It is not kept in
``algebra._cache``: on a long-lived algebra it would grow with every query,
and a query outside a run computes afresh. Each caller's own certificates,
such as ``a RP(a) = a``, still run on every call.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Element, _cached, _trace_form, distinct_eigenvalues, unital_hull
from .errors import DecompositionFailed, DegenerateInput, NoCStarNorm, NotPositive
from .linalg import certificate_bound, relative_bound, require


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


def _certify(dec, tol):
    """Residual certificates; raises DecompositionFailed beyond certificate_bound(tol)."""
    b = dec.source
    algebra = b.parent
    ps = np.array([p.coeffs for p in dec.projections()], dtype=complex).reshape(-1, algebra.dim)
    if np.any(np.linalg.norm(ps, axis=1) <= certificate_bound(tol)):
        raise DecompositionFailed("zero projection in decomposition")
    # [i, j, :] = p_i p_j - delta_ij p_i: idempotent and pairwise orthogonal
    pairs = algebra.products(ps, ps) - np.eye(len(ps))[:, :, None] * ps
    worst = float(np.max([
        np.max(np.linalg.norm(ps - algebra.star_coeffs(ps), axis=-1), initial=0.0),
        np.max(np.linalg.norm(pairs, axis=-1), initial=0.0),
        (b - dec.map_values(lambda lam: lam)).norm() / max(1.0, b.norm()),
    ]))
    require(worst, certificate_bound(tol), DecompositionFailed,
            "decomposition certificates fail; the involution is likely not proper")


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
    memo = _MEMO.get()
    if memo is None:
        return _spectral_decompose(b, tol)
    # the parent itself, not id(): a freed algebra's id can be reused
    key = (b.parent, b.coeffs.tobytes(), tol)
    if key not in memo:
        memo[key] = _spectral_decompose(b, tol)
    return memo[key]


def _spectral_decompose(b, tol):
    scale = max(1.0, b.norm())
    both = np.stack([b.coeffs, b.star().coeffs])
    squares = b.parent.products(both, both)  # [1, 0] = b* b, [0, 1] = b b*
    normality = float(np.linalg.norm(squares[1, 0] - squares[0, 1])) / scale**2
    require(normality, certificate_bound(tol), DecompositionFailed, "element is not normal")
    if b.norm() <= tol:
        return SpectralDecomposition(b, ())

    hull = unital_hull(b.parent, tol)
    big = hull.algebra
    lams = distinct_eigenvalues(b, tol)
    zero = relative_bound(tol, max(abs(l) for l in lams))
    keep = [j for j, lam in enumerate(lams) if abs(lam) > zero]

    # each idempotent is p_j(b) for the interpolation polynomial with
    # p_j(lam_k) = delta_jk, i.e. the eigenprojector of the regular
    # representation applied to the unit -- computed that way directly,
    # which is far better conditioned than multiplying Lagrange factors.
    # Column j of mask selects the eigenvectors clustered at lams[keep[j]].
    evals, evecs = np.linalg.eig(hull.embed(b).lmat())
    assign = np.argmin(np.abs(evals[:, None] - np.array(lams)[None, :]), axis=1)
    mask = assign[:, None] == np.array(keep, dtype=int)[None, :]
    ps = (evecs @ (mask * (np.linalg.inv(evecs) @ hull.unit_coeffs)[:, None])).T
    ps = (ps + big.star_coeffs(ps)) * 0.5
    # one idempotent-polishing step, p^2 (3 - 2p)
    ps = big.row_products(big.row_products(ps, ps), hull.unit_coeffs * 3.0 - ps * 2.0)
    if hull.adjoined:
        ps = hull.restrict_coeffs(ps, tol)

    dec = SpectralDecomposition(b, tuple((lams[j], Element(b.parent, p)) for j, p in zip(keep, ps)))
    _certify(dec, tol)
    return dec


def _selfadjoint_part(x):
    return 0.5 * (x + x.star())


def right_projection(a, tol=DEFAULT_TOL):
    """RP(a): the projection e with ae = a and ker(a.) contained in ker(e.)."""
    if a.norm() <= tol:
        return a.parent.zero()
    dec = spectral_decompose(_selfadjoint_part(a.star() * a), tol)
    e = dec.projection_sum()
    res = (a * e - a).norm() / max(1.0, a.norm())
    require(res, certificate_bound(tol), DecompositionFailed, "RP certificate a*RP(a) = a fails")
    return e


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
