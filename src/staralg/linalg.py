"""Small numerical helpers shared by all modules, and the tolerance policy.

All subspace computations are SVD-based with relative tolerances; bases are
returned as matrices with orthonormal columns. Only this module decides what a
residual is measured against: each bound is a named function of ``tol`` and of
the size of what it compares, floored at 1 here, and ``negligible`` is the zero
rule. No other module scales ``tol``, floors a size or compares with ``tol``.
"""

import numpy as np

KAPPA = 1e3  #: slack factor for kernel/rank based assertions; reported, never hidden
SPAN_TOL = 1e-12  #: for expansions in an exact matrix span, which are exact up to rounding


def _floor(size):
    """max(1, size), elementwise on an array; a scalar NaN reads as 1, as with the builtin max, at less cost."""
    if isinstance(size, np.ndarray):
        return np.maximum(1.0, size)
    return size if size > 1.0 else 1.0


def certificate_bound(tol, size=0.0):
    """Bound on a certified residual (projection, reconstruction, relation defects): tol KAPPA max(1, size)."""
    return tol * KAPPA * _floor(size)


def membership_bound(tol, size=0.0):
    """Bound on a vector's distance to a subspace it lies in (right ideals, corners): sqrt(tol) max(1, size)."""
    return np.sqrt(tol) * _floor(size)


def relative_bound(tol, size):
    """``tol`` relative to a magnitude (a norm, an eigenvalue, a product size): tol max(1, size)."""
    return tol * _floor(size)


def rounding_bound(tol, size):
    """certificate_bound(tol) times ``size``, the 2-norm of a matrix in absolute values, unfloored."""
    return certificate_bound(tol) * size


def relative(residual, size):
    """``residual`` relative to max(1, size), the size of what it compares."""
    return residual / _floor(size)


def negligible(norm, tol):
    """The zero rule: a norm at most ``tol`` reads as zero (a NaN never does)."""
    return norm <= tol


def significant(values, tol):
    """Mask of the values above ``relative_bound(tol, largest)`` (a NaN largest reads as 1): the one
    cut-off that decides numerical rank, zero eigenvalues and positive definiteness."""
    return values > relative_bound(tol, float(values.max()))


def sampled_identity_bound(tol):
    """Bound on the identities checked over sampled elements (regular, square root)."""
    return 100 * tol


def require(residual, bound, error, message):
    """Raise ``error(message, residual)`` unless residual <= bound (NaN fails)."""
    if not residual <= bound:
        raise error(message, residual)


def require_each(residuals, bounds, error, message):
    """``require`` on every residual against its own bound, reporting the worst offender."""
    excess = np.where(residuals <= bounds, -np.inf, residuals - bounds)  # NaN stays NaN, argmax takes it
    worst = np.argmax(excess)
    require(float(residuals[worst]), float(bounds[worst]), error, message)


def nullspace(mat, tol):
    """Orthonormal basis (columns) of the kernel of `mat` at relative tol; for a stack of matrices, the
    list of their kernels from one stacked SVD, each bit for bit what its matrix alone gives."""
    mat = np.atleast_2d(mat)
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    # only vh is read; a tall matrix's reduced SVD already gives all of it, without the square U
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[-2] < mat.shape[-1])
    if mat.ndim > 2:
        return [v[np.count_nonzero(significant(row, tol)):].conj().T for row, v in zip(s, vh)]
    return vh[np.count_nonzero(significant(s, tol)):].conj().T


def colspace(mat, tol):
    """Orthonormal basis (columns) of the column space of `mat`."""
    mat = np.atleast_2d(mat)
    if mat.size == 0 or not np.any(mat):
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return u[:, :np.count_nonzero(significant(s, tol))]


def subspaces_equal(u, v, tol):
    """Tolerance-equality of two subspaces, each given by orthonormal columns: every column of either
    lies within tol of the other's span."""
    return u.shape[1] == v.shape[1] and all(
        np.max(np.linalg.norm(x - y @ (y.conj().T @ x), axis=0), initial=0.0) <= tol for x, y in ((u, v), (v, u)))


def cluster_points(points, tol):
    """Cluster means of a greedy merge of complex points closer than relative_bound(tol, max|point|)."""
    pts = list(points)
    if not pts:
        return []
    thresh = relative_bound(tol, max(abs(p) for p in pts))
    clusters = []  # [first point, sum, count]
    for p in sorted(pts, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(p - c[0]) <= thresh:
                c[1] += p
                c[2] += 1
                break
        else:
            clusters.append([p, p, 1])
    return [total / count for _, total, count in clusters]
