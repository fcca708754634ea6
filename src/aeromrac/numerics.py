"""Dense small-matrix kernels: Lyapunov solves, biorthogonal eigenbases,
transmission zeros and pole placement.

All routines operate on small dense systems (n <= ~32); complex arithmetic is
confined to this module and :mod:`aeromrac.romgen`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# eig_biorthogonal rejects a right eigenbasis whose condition number exceeds this
_COND_MAX = 1e8


class NumericsError(ValueError):
    """Raised when a numerical precondition is violated."""


def solve_lyapunov(Am: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve Am^T P + P Am = -Q for the SPD matrix P.

    Uses a direct vectorised linear solve (Kronecker form), adequate for the
    small systems handled here.  Am must be Hurwitz and Q symmetric
    positive-definite.
    """
    Am = np.asarray(Am, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = Am.shape[0]
    if Am.shape != (n, n) or Q.shape != (n, n):
        raise NumericsError("Am and Q must be square matrices of equal size")
    if not np.allclose(Q, Q.T, atol=1e-12, rtol=0.0):
        raise NumericsError("Q is not symmetric within 1e-12")
    eigs = np.linalg.eigvals(Am)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0.0:
        raise NumericsError(f"Am is not Hurwitz: eigenvalue {worst} has Re >= 0")

    # vec(Am^T P + P Am) = (I (x) Am^T + Am^T (x) I) vec(P)
    eye = np.eye(n)
    lhs = np.kron(eye, Am.T) + np.kron(Am.T, eye)
    P = np.linalg.solve(lhs, -Q.reshape(n * n)).reshape(n, n)
    P = 0.5 * (P + P.T)
    return P


@dataclass(frozen=True)
class SpectralDecomposition:
    """Biorthogonal eigendecomposition: Psi @ A @ Phi = diag(eigenvalues),
    Psi @ Phi = I.  Complex-conjugate pairs are adjacent (positive imaginary
    part first); ordering is deterministic (|Im| ascending, then Re
    descending, then LAPACK's order)."""

    eigenvalues: np.ndarray  # (n,) complex
    right_basis: np.ndarray  # Phi, (N, n) complex
    left_basis: np.ndarray  # Psi, (n, N) complex

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eig_biorthogonal(A: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition with the left basis Psi = Phi^-1, so Psi @ Phi = I.

    Raises if the right eigenbasis is ill-conditioned (near-defective), naming
    the clustered eigenvalues.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    eigs, phi = np.linalg.eig(A)
    cond = np.linalg.cond(phi)
    if cond > _COND_MAX:
        order = np.argsort(eigs.real)
        gaps = np.abs(np.diff(eigs[order]))
        k = int(np.argmin(gaps)) if n > 1 else 0
        pair = eigs[order][k : k + 2]
        raise NumericsError(
            f"eigenbasis condition number {cond:.3e} exceeds {_COND_MAX:.1e}; "
            f"clustered eigenvalues near {pair}"
        )
    # LAPACK returns a real matrix's conjugate pairs exactly conjugate and
    # adjacent, +Im first; a stable sort on (|Im|, -Re) keeps them so
    order = np.lexsort((-eigs.real, np.abs(eigs.imag)))
    eigs, phi = eigs[order], phi[:, order]
    return SpectralDecomposition(eigenvalues=eigs, right_basis=phi, left_basis=np.linalg.inv(phi))


def transmission_zeros(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Finite invariant zeros of (A, B, C) from the system pencil
    [[A - sI, B], [C, 0]].  Requires a square (same input/output count)
    system."""
    import scipy.linalg  # here, not at module load: no CLI command needs it

    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    m = B.shape[1]
    p = C.shape[0]
    if p != m:
        raise NumericsError(f"zero computation requires a square system, got {m} inputs, {p} outputs")

    pencil = np.block([[A, B], [C, np.zeros((p, m))]])
    E = np.zeros_like(pencil)
    E[:n, :n] = np.eye(n)
    alpha, beta = scipy.linalg.eig(pencil, E, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-9 * max(1.0, np.abs(alpha).max())
    zeros = alpha[finite] / beta[finite]
    # scrub roundoff imaginary parts on (near-)real zeros
    zeros = np.where(np.abs(zeros.imag) < 1e-9 * (1.0 + np.abs(zeros)), zeros.real + 0j, zeros)
    return np.sort_complex(zeros)


def controllability_matrix(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = A.shape[0]
    cols = [b]
    for _ in range(n - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def bass_gura_place(A: np.ndarray, b: np.ndarray, desired_poly: np.ndarray) -> np.ndarray:
    """Single-input pole placement gain K0 such that A - b K0 has the desired
    characteristic polynomial (monic, highest power first)."""
    import scipy.linalg  # here too: only mrac.minimum_phase_correct places poles

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    desired = np.asarray(desired_poly, dtype=float)
    n = A.shape[0]
    if desired.shape[0] != n + 1:
        raise NumericsError(f"desired polynomial must have degree {n}")
    desired = desired / desired[0]

    ctrb = controllability_matrix(A, b)
    svals = np.linalg.svd(ctrb, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals[0] > 0 else 0
    if rank < n:
        raise NumericsError(f"(A, b) uncontrollable: controllability matrix rank {rank} < {n}")

    a = np.poly(A)  # [1, a1, ..., an]
    # Toeplitz W with first row [1, a1, ..., a_{n-1}]
    W = scipy.linalg.toeplitz(np.r_[1.0, np.zeros(n - 1)], a[:n])
    K0 = np.linalg.solve((ctrb @ W).T, desired[1:] - a[1:])
    return K0
