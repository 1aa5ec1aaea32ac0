"""Steady states of the Lindblad generator.

The kernel of the 16x16 generator is found by replacing one redundant
diagonal-element row with the trace constraint and solving the dense
bordered system. Uniqueness is checked first through the relative gap
of the second-smallest singular value (threshold 1e-8); when the gap
check fails, levels that receive no population or coherence inflow
("unfed" levels, e.g. Q when Omega_C = 0) are removed and the reduced
block is solved with the removed levels empty, which is the
physically prepared branch. A degenerate kernel that no such
reduction explains raises DegenerateKernel.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateKernel, NoConvergence
from .liouvillian import Superoperator, unvec
from .model import DensityMatrix

#: relative singular-value gap below which the kernel is treated as degenerate
GAP_THRESHOLD = 1e-8
#: structural-zero threshold for the unfed-level test, relative to the largest singular value
STRUCTURAL_TOL = 1e-12
#: max |M vec(rho)| allowed for an accepted solution
RESIDUAL_TOL = 1e-10


def steady_state(superop: Superoperator) -> DensityMatrix:
    """Unique physical steady state of the generator."""
    rho = unvec(_steady_vec(np.asarray(superop.matrix), 4))
    return _physical(rho)


def steady_state_of_matrix(matrix: np.ndarray) -> np.ndarray:
    """Steady state of an n-level generator given as an n^2 x n^2 matrix.

    Returns the (hermitized, trace-1) n x n density matrix without the
    4-level wrapper; used for restricted blocks in tests.
    """
    matrix = np.asarray(matrix)
    n = round(matrix.shape[0] ** 0.5)
    x = _steady_vec(matrix, n)
    rho = x.reshape((n, n), order="F")
    return 0.5 * (rho + rho.conj().T)


def residual(superop: Superoperator, rho: DensityMatrix) -> float:
    """max |M vec(rho)|, the stationarity defect of a solution."""
    return float(np.abs(superop.matrix @ rho.matrix.flatten(order="F")).max())


def _steady_vec(m: np.ndarray, n: int) -> np.ndarray:
    try:
        sing = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular values of the generator: {exc}") from None
    if sing[0] < 1e-300:
        raise DegenerateKernel("generator is identically zero")
    if sing[-2] >= GAP_THRESHOLD * sing[0]:
        return _bordered_solve(m, n)

    unfed = _unfed_levels(m, n, sing[0])
    kept = [l for l in range(n) if l not in unfed]
    if not unfed or len(kept) < 2:
        raise DegenerateKernel(
            f"kernel is degenerate (relative gap {sing[-2] / sing[0]:.2e}) "
            "and no decoupled level explains it"
        )
    sub_idx = [kept[i] + n * kept[j] for j in range(len(kept)) for i in range(len(kept))]
    x_sub = _steady_vec(m[np.ix_(sub_idx, sub_idx)], len(kept))
    x = np.zeros(n * n, dtype=complex)
    x[sub_idx] = x_sub
    return x


def _bordered_solve(m: np.ndarray, n: int) -> np.ndarray:
    a = m.astype(complex).copy()
    diag_idx = [i + n * i for i in range(n)]
    a[diag_idx[0], :] = 0.0
    a[diag_idx[0], diag_idx] = 1.0
    b = np.zeros(n * n, dtype=complex)
    b[diag_idx[0]] = 1.0
    try:
        x = np.linalg.solve(a, b)
        x += np.linalg.solve(a, b - a @ x)  # one step of iterative refinement
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernel(f"bordered system singular: {exc}") from exc
    x = x / np.sum(x[diag_idx])
    defect = float(np.abs(m @ x).max())
    if defect > RESIDUAL_TOL:
        raise NoConvergence(f"stationarity defect {defect:.2e} exceeds {RESIDUAL_TOL:.0e}")
    return x


def _unfed_levels(m: np.ndarray, n: int, scale: float) -> list[int]:
    """Levels whose sector rows have no inflow from outside the sector.

    The sector of level l is every vec index (i, j) with i == l or
    j == l. Outflow from the sector into the rest is allowed; any
    entry feeding the sector marks the level as fed.
    """
    unfed = []
    tol = STRUCTURAL_TOL * scale
    for level in range(n):
        in_sector = np.zeros(n * n, dtype=bool)
        for j in range(n):
            for i in range(n):
                if i == level or j == level:
                    in_sector[i + n * j] = True
        inflow = m[np.ix_(in_sector, ~in_sector)]
        if inflow.size == 0 or np.abs(inflow).max() <= tol:
            unfed.append(level)
    return unfed


def _physical(rho: np.ndarray) -> DensityMatrix:
    rho = 0.5 * (rho + rho.conj().T)
    try:
        eigvals, eigvecs = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalues of the steady state: {exc}") from None
    if eigvals.min() < -1e-10:
        raise NoConvergence(f"steady state has eigenvalue {eigvals.min():.2e} < -1e-10")
    clipped = np.clip(eigvals, 0.0, None)
    rho = (eigvecs * clipped) @ eigvecs.conj().T
    rho /= np.real(rho.trace())
    return DensityMatrix(rho)
