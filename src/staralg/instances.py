"""Constructors for concrete algebras: matrix blocks, mutants, random instances.

These are the workhorses of the test suite and of the certification drivers.
"""

import numpy as np

from .core import DEFAULT_TOL, StarAlgebra, unitize
from .errors import MalformedInput
from .linalg import SPAN_TOL, certificate_bound, relative_bound, require_each


def from_matrix_basis(mats):
    """Structure constants of the span of `mats` inside M_d, star = conjugate transpose.

    The matrices must be linearly independent and their span closed under
    products and adjoints.
    """
    mats = np.asarray(mats, dtype=complex)  # (n, d, d)
    n, d = mats.shape[:2]
    basis = mats.reshape(n, d * d).T

    def expand(stack):
        """Coordinates of each matrix of the stack, one column each."""
        v = stack.reshape(len(stack), d * d).T
        x, *_ = np.linalg.lstsq(basis, v, rcond=None)
        require_each(np.linalg.norm(basis @ x - v, axis=0),
                     certificate_bound(SPAN_TOL, np.linalg.norm(v, axis=0)),
                     MalformedInput, "matrix span is not closed under the operation")
        return x

    # one solve per left factor: row j of expand(m_i @ mats).T is the product m_i m_j
    c = np.array([expand(m @ mats).T for m in mats])
    s = expand(mats.conj().transpose(0, 2, 1))

    unit = None
    eye = np.eye(d, dtype=complex).reshape(-1)
    x, *_ = np.linalg.lstsq(basis, eye, rcond=None)
    if float(np.linalg.norm(basis @ x - eye)) <= relative_bound(DEFAULT_TOL, d):
        unit = x
    return StarAlgebra(c, s, unit=unit)


def matrix_algebra(n):
    """Full matrix algebra M_n with matrix-unit basis E_pq (row-major order)."""
    dim = n * n  # E_pq has index p n + q
    p, q, s = np.indices((n, n, n))
    c = np.zeros((dim, dim, dim), dtype=complex)
    c[p * n + q, q * n + s, p * n + s] = 1.0  # E_pq E_qs = E_ps
    e = np.arange(dim)
    st = np.zeros((dim, dim), dtype=complex)
    st[e % n * n + e // n, e] = 1.0  # E_pq* = E_qp
    unit = np.eye(n, dtype=complex).reshape(dim)  # the sum of the E_pp
    labels = tuple(f"E{p}{q}" for p in range(n) for q in range(n))
    return StarAlgebra(c, st, unit=unit, labels=labels)


def diagonal_algebra(n):
    """Commutative C^n with pointwise product and identity involution."""
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i] = 1.0
    return StarAlgebra(c, np.eye(n, dtype=complex), unit=np.ones(n, dtype=complex))


def direct_sum(a, b):
    n, m = a.dim, b.dim
    c = np.zeros((n + m, n + m, n + m), dtype=complex)
    c[:n, :n, :n] = a.products(np.eye(n), np.eye(n))
    c[n:, n:, n:] = b.products(np.eye(m), np.eye(m))
    s = np.zeros((n + m, n + m), dtype=complex)
    s[:n, :n] = a.star
    s[n:, n:] = b.star
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = np.concatenate([a.unit, b.unit])
    return StarAlgebra(c, s, unit=unit)


def nilpotent_line():
    """The non-unital algebra C x with x^2 = 0 and x* = x."""
    c = np.zeros((1, 1, 1), dtype=complex)
    s = np.eye(1, dtype=complex)
    return StarAlgebra(c, s)


def unitized_nilpotent():
    """Unitization of C x: hermitian, not semisimple, not proper."""
    return unitize(nilpotent_line())


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _block_matrix_basis(block_sizes, abelian_dim):
    sizes = list(block_sizes) + [1] * abelian_dim
    d = sum(sizes)
    mats = []
    off = 0
    for sz in sizes:
        for p in range(sz):
            for q in range(sz):
                m = np.zeros((d, d), dtype=complex)
                m[off + p, off + q] = 1.0
                mats.append(m)
        off += sz
    return mats


def semisimple_instance(block_sizes, abelian_dim, rng):
    """A *-algebra isomorphic to (+)M_{n_k} (+) C^m in a scrambled basis.

    The matrix realization is conjugated by a random unitary (preserving the
    conjugate-transpose involution) and the basis is mixed by a random
    well-conditioned linear map, so nothing about the block structure is
    visible in the structure constants.
    """
    mats = _block_matrix_basis(block_sizes, abelian_dim)
    d = mats[0].shape[0]
    u = random_unitary(d, rng)
    mats = [u @ m @ u.conj().T for m in mats]
    n = len(mats)
    # singular values in [0.5, 2]: keeps the change of basis well conditioned
    a = random_unitary(n, rng)
    b = random_unitary(n, rng)
    svals = 0.5 + 1.5 * rng.random(n)
    s = a @ np.diag(svals) @ b
    stack = np.stack([m.reshape(-1) for m in mats], axis=1) @ s
    mats = [stack[:, i].reshape(d, d) for i in range(n)]
    return from_matrix_basis(mats)


def swap_mutant(pairs):
    """C^(2*pairs) with the involution swapping each coordinate pair: semisimple, not proper."""
    n = 2 * pairs
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i] = 1.0
    s = np.zeros((n, n), dtype=complex)
    for p in range(pairs):
        s[2 * p, 2 * p + 1] = 1.0
        s[2 * p + 1, 2 * p] = 1.0
    return StarAlgebra(c, s, unit=np.ones(n, dtype=complex))


def nilpotent_mutant(abelian_dim=0):
    """Unitized nilpotent line, plus the commutative summand C^abelian_dim when that is nonzero."""
    alg = unitized_nilpotent()
    if abelian_dim:
        alg = direct_sum(alg, diagonal_algebra(abelian_dim))
    return alg
