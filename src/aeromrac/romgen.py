"""Reduced-order model construction by biorthogonal eigenvector projection.

``default_rom`` is the one ROM builder: it selects the modes, ranking real
modes by the residue-weighted gust participation ||psi_i B_g|| ||C_out phi_i||,
and projects onto them; each retained ``ModeInfo`` reports the input-only
participation ||psi_i B_g||.  The reduced dynamics keep a subset of the
full-order eigenvalues; complex pairs are stored as 2x2 real rotation-scaling
blocks so everything exported to the control modules is real.  The reduced
model carries a projected polynomial nonlinearity, held as data, and every
plant's derivative is one ``PolyField``: its operators as data, the inputs as
coordinates of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import eig_biorthogonal

_REAL_TOL = 1e-9


class RomError(ValueError):
    """Raised for invalid reduction requests."""


@dataclass(frozen=True)
class ModeInfo:
    eigenvalue: complex
    kind: str  # "oscillatory" | "real-gust"
    gust_participation: float


def realify(eigenvalues: np.ndarray, phi: np.ndarray, psi: np.ndarray):
    """Similarity transform from complex modal form to real block-diagonal
    form.  Conjugate pairs (lead with +Im) map to [[s, w], [-w, s]] blocks;
    real modes pass through.  Returns (A_real, Phi_real, Psi_real)."""
    n = eigenvalues.shape[0]
    A = np.zeros((n, n))
    Phi = np.zeros((phi.shape[0], n))
    Psi = np.zeros((n, psi.shape[1]))
    k = 0
    while k < n:
        lam = eigenvalues[k]
        if abs(lam.imag) <= _REAL_TOL:
            A[k, k] = lam.real
            Phi[:, k] = phi[:, k].real
            Psi[k, :] = psi[k, :].real
            k += 1
            continue
        if k + 1 >= n or abs(eigenvalues[k + 1] - np.conj(lam)) > 1e-6 * max(1.0, abs(lam)):
            raise RomError(f"spectrum not closed under conjugation at eigenvalue {lam}")
        s, w = lam.real, lam.imag
        A[k : k + 2, k : k + 2] = [[s, w], [-w, s]]
        Phi[:, k] = phi[:, k].real
        Phi[:, k + 1] = phi[:, k].imag
        Psi[k, :] = 2.0 * psi[k, :].real
        Psi[k + 1, :] = -2.0 * psi[k, :].imag
        k += 2
    return A, Phi, Psi


@dataclass(frozen=True)
class PolyNonlinearity:
    """Polynomial force F(x) = G (quad * z^2 + cubic * z^3) with z = H x.

    H (k, n) picks the k coordinates the springs act on, G (n, k) maps the
    forces back into the state rows.  ``x`` may be one state or a (T, n)
    batch of rows."""

    G: np.ndarray  # (n, k)
    H: np.ndarray  # (k, n)
    quad: np.ndarray  # (k,)
    cubic: np.ndarray  # (k,)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        z = x @ self.H.T
        # quad z^2 + cubic z^3 factored as z^2 (quad + cubic z): fewer array ops
        return (z * z * (self.quad + self.cubic * z)) @ self.G.T

    def project(self, Phi: np.ndarray, Psi: np.ndarray) -> PolyNonlinearity:
        """The same force in reduced coordinates: Psi F(Phi x)."""
        return PolyNonlinearity(Psi @ self.G, self.H @ Phi, self.quad, self.cubic)


@dataclass(frozen=True)
class PolyField:
    """The field f(y, u) = y L + u U + ((z P_1) * (z P_2) * (z P_3)) G as data,
    on rows z = [y | u | 1]: one product z W gives the linear part and the
    three factors, with P_3's offset c in the constant row, and [I; G] maps
    the linear part and the triple product back.  W is stored transposed, one
    operator that every row shares."""

    W: np.ndarray  # (N + 3K, Z): W z^T
    back: np.ndarray  # (N, N + K): [I; G]^T

    def __call__(self, z):
        """f on a row z (Z,) or rows (..., Z)."""
        N, K = self.back.shape[0], self.back.shape[1] - self.back.shape[0]
        Y = (self.W @ z[..., None])[..., 0]
        F = Y[..., N:N + K]
        F *= Y[..., N + K:N + 2 * K]
        F *= Y[..., N + 2 * K:]
        return (self.back @ Y[..., :N + K, None])[..., 0]


@dataclass(frozen=True, kw_only=True)
class Plant:
    """State-space plant x' = A x + B_c u_c + B_g u_d + F(x) with outputs
    y = C_out x and an optional polynomial nonlinearity F (``nl``)."""

    A: np.ndarray  # (n, n)
    B_c: np.ndarray  # (n, m)
    B_g: np.ndarray  # (n, p)
    C_out: np.ndarray  # (q, n)
    output_labels: tuple[str, ...]
    nl: PolyNonlinearity | None = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B_c.shape[1]

    @property
    def p(self) -> int:
        return self.B_g.shape[1]

    def eval_f_nr(self, x: np.ndarray) -> np.ndarray:
        """Nonlinear residual F(x) of one state or a (T, n) batch; zero for a
        linear plant."""
        if self.nl is None:
            return np.zeros(np.shape(x))
        return self.nl(x)

    def springs(self):
        """F(x) as ``PolyField``'s triple product: ((H^T, H^T, H^T
        diag(cubic)), quad, G^T); no product columns without F."""
        if self.nl is None:
            return (np.zeros((self.n, 0)),) * 3, np.zeros(0), np.zeros((0, self.n))
        H_T = self.nl.H.T
        return (H_T, H_T, H_T * self.nl.cubic), self.nl.quad, self.nl.G.T

    def field(self) -> PolyField:
        """The derivative as a PolyField on rows [x | u_c | u_d | 1]: L = A^T,
        U = [B_c^T; B_g^T] and the springs as the triple product."""
        P, c, G = self.springs()
        n, K = self.n, c.shape[0]
        W = np.zeros((n + self.m + self.p + 1, n + 3 * K))  # one row per coordinate of z
        W[:n, :n], W[n:-1, :n], W[:n, n:], W[-1, n + 2 * K:] = \
            self.A.T, np.vstack([self.B_c.T, self.B_g.T]), np.hstack(P), c
        return PolyField(W.T.copy(), np.hstack([np.eye(n), G.T]))

    def rhs(self, x, u_c, u_d):
        """Time derivative of one state or a (B, n) batch of rows, whose
        inputs are (B, m) and (B, p) rows or shared by every row."""
        x, n, p = np.asarray(x, dtype=float), self.n, self.p
        z = np.ones(x.shape[:-1] + (n + self.m + p + 1,))
        z[..., :n], z[..., n:-1 - p], z[..., -1 - p:-1] = x, u_c, u_d
        return self.field()(z)


def _block_diag(blocks) -> np.ndarray:
    return np.block([[b if i == j else np.zeros((b.shape[0], c.shape[1]))
                      for j, c in enumerate(blocks)] for i, b in enumerate(blocks)])


def stack_plants(*plants: Plant) -> Plant:
    """The uncoupled parts as one Plant on their concatenated states:
    block-diagonal A, C_out and nonlinearity, with B_c and B_g stacked
    row-wise so that every part reads the same u_c and u_d.  A linear part
    adds no spring coordinates, so a stack of linear parts is linear."""
    nls = [p.nl for p in plants if p.nl is not None]
    nl = PolyNonlinearity(
        _block_diag([np.zeros((p.n, 0)) if p.nl is None else p.nl.G for p in plants]),
        _block_diag([np.zeros((0, p.n)) if p.nl is None else p.nl.H for p in plants]),
        np.concatenate([f.quad for f in nls]), np.concatenate([f.cubic for f in nls]),
    ) if nls else None
    return Plant(A=_block_diag([p.A for p in plants]),
                 B_c=np.vstack([p.B_c for p in plants]), B_g=np.vstack([p.B_g for p in plants]),
                 C_out=_block_diag([p.C_out for p in plants]),
                 output_labels=sum((tuple(p.output_labels) for p in plants), ()), nl=nl)


@dataclass(frozen=True, kw_only=True)
class ReducedOrderModel(Plant):
    """Real block-modal reduced model with the projected polynomial
    nonlinearity; A is block-diagonal, C_out reconstructs the physical
    outputs."""

    Phi: np.ndarray  # (N, n) real right basis
    Psi: np.ndarray  # (n, N) real left basis
    modes: tuple[ModeInfo, ...]
    source_hash: str = ""


def default_rom(fom, n: int = 8, n_real: int = 2,
                source_hash: str = "") -> ReducedOrderModel:
    """The one ROM builder: keep the (n - n_real) / 2 lowest-frequency
    conjugate pairs and the n_real real modes of largest residue-weighted
    gust participation ||psi_i B_g|| ||C_out phi_i||, which is
    normalisation-invariant (control participation ||psi_i B_c||
    ||C_out phi_i|| breaks ties), and project a full-order plant (aerofoil
    model or external bundle) and its nonlinearity onto them.  Conjugate
    pairs are always kept together."""
    decomp = eig_biorthogonal(fom.A)
    if n < 1 or n_real < 0:
        raise RomError(f"need n >= 1 and n_real >= 0, got n = {n}, n_real = {n_real}")
    if n < n_real or (n - n_real) % 2:
        raise RomError(f"cannot fit {n_real} real modes plus conjugate pairs into n = {n}")
    N, eigs = decomp.dim, decomp.eigenvalues
    if n > N:
        raise RomError(f"requested reduced dimension {n} exceeds N = {N}")
    p_out = np.linalg.norm(fom.C_out @ decomp.right_basis, axis=0)
    part = np.linalg.norm(decomp.left_basis @ fom.B_g, axis=1) * p_out
    ctrl = np.linalg.norm(decomp.left_basis @ fom.B_c, axis=1) * p_out

    pair_leads = [i for i in range(N) if eigs[i].imag > _REAL_TOL]
    reals = [i for i in range(N) if abs(eigs[i].imag) <= _REAL_TOL]
    pair_leads.sort(key=lambda i: (eigs[i].imag, -part[i], i))
    reals.sort(key=lambda i: (-part[i], -ctrl[i], i))
    n_pairs = (n - n_real) // 2
    if n_pairs > len(pair_leads) or n_real > len(reals):
        raise RomError(
            f"spectrum has {len(pair_leads)} pairs and {len(reals)} real modes; "
            f"cannot satisfy n = {n}, n_real = {n_real}"
        )
    idx: list[int] = []
    for i in pair_leads[:n_pairs]:
        idx.extend([i, i + 1])  # conjugate stored adjacent by eig_biorthogonal
    idx.extend(sorted(reals[:n_real]))

    kept, psi = eigs[idx], decomp.left_basis[idx, :]
    A, Phi, Psi = realify(kept, decomp.right_basis[:, idx], psi)
    modes = tuple(  # each reports the input-only participation ||psi_i B_g||
        ModeInfo(eigenvalue=complex(lam),
                 kind="oscillatory" if abs(lam.imag) > _REAL_TOL else "real-gust",
                 gust_participation=float(pp))
        for lam, pp in zip(kept, np.linalg.norm(psi @ fom.B_g, axis=1)))
    return ReducedOrderModel(
        A=A,
        B_c=Psi @ fom.B_c,
        B_g=Psi @ fom.B_g,
        C_out=fom.C_out @ Phi,
        output_labels=tuple(fom.output_labels),
        nl=None if fom.nl is None else fom.nl.project(Phi, Psi),
        Phi=Phi,
        Psi=Psi,
        modes=modes,
        source_hash=source_hash,
    )
