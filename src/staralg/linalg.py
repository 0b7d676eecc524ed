"""Small numerical helpers shared by all modules.

All subspace computations are SVD-based with relative tolerances; bases are
returned as matrices with orthonormal columns.
"""

import numpy as np

#: slack factor for kernel/rank based assertions; reported, never hidden
KAPPA = 1e3


def nullspace(mat, tol):
    """Orthonormal basis (columns) of the kernel of `mat` at relative tol."""
    mat = np.atleast_2d(mat)
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(mat)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > tol * max(1.0, smax)))
    return vh[rank:].conj().T


def colspace(mat, tol):
    """Orthonormal basis (columns) of the column space of `mat`."""
    mat = np.atleast_2d(mat)
    if mat.size == 0 or not np.any(mat):
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > tol * max(1.0, smax)))
    return u[:, :rank]


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
    thresh = tol * max(1.0, max(abs(p) for p in pts))
    clusters = []  # list of lists
    for p in sorted(pts, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(p - c[0]) <= thresh:
                c.append(p)
                break
        else:
            clusters.append([p])
    return [complex(np.mean(c)) for c in clusters]
