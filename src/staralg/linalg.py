"""Small numerical helpers shared by all modules, and the tolerance policy.

All subspace computations are SVD-based with relative tolerances; bases are
returned as matrices with orthonormal columns. Every residual bound is one of
the named functions of ``tol`` below; no other module scales ``tol`` itself.
"""

import numpy as np

#: slack factor for kernel/rank based assertions; reported, never hidden
KAPPA = 1e3


def certificate_bound(tol):
    """Bound on a certified residual: projection, reconstruction and relation defects."""
    return tol * KAPPA


def membership_bound(tol):
    """Bound on a vector's distance to a subspace it must lie in (right ideals, corners)."""
    return np.sqrt(tol)


def relative_bound(tol, size):
    """``tol`` relative to a magnitude (a norm, an eigenvalue, a product size), never below ``tol``."""
    return tol * max(1.0, size)


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


def subspace_residual(u, v):
    """Largest norm of a column of `u` after projecting out span(v).

    Both arguments must have orthonormal columns. Zero-column `u` gives 0.
    """
    if u.shape[1] == 0:
        return 0.0
    res = u - v @ (v.conj().T @ u)
    return float(np.max(np.linalg.norm(res, axis=0)))


def subspaces_equal(u, v, tol):
    """Tolerance-equality of two subspaces via mutual projection residuals."""
    if u.shape[1] != v.shape[1]:
        return False
    return subspace_residual(u, v) <= tol and subspace_residual(v, u) <= tol


def cluster_points(points, tol):
    """Greedy merge of complex points closer than tol*max(1, max|point|).

    Returns the list of cluster means, each distinct at the merged scale.
    """
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
