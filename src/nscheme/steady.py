"""Steady states of the Lindblad generator.

The kernel of a generator M is found by replacing its first
diagonal-element row with the trace row and solving this bordered
system A x = e_0 with one LU factorization. The kernel must be unique:
the relative gap sigma_{n^2-1} / sigma_1 of M's singular values must
reach GAP_THRESHOLD (1e-8).

Uniqueness is certified first, from the bordered system itself: one
inverse A^-1 gives x as its first column, and since A differs from M
in one row, GAP_THRESHOLD ||M||_F ||A^-1||_F <= 1 proves the gap
(interlacing; see _certified). Such a point is accepted without an
SVD. Only the uncertified points, or every point of a stack that holds
an exactly singular A, have their singular values computed, and the
gap decides them. Below the gap, levels that receive no population
or coherence inflow ("unfed" levels, e.g. Q when Omega_C = 0) are
removed and the reduced block is solved with the removed levels empty,
which is the physically prepared branch. A degenerate kernel that no
such reduction explains raises DegenerateKernel.

Every step runs on a stack of generators, one generator being a stack
of one, and each point keeps its own verdict. Only a LAPACK failure of
a stacked SVD, or of the bordered solve on a stack whose A is exactly
singular, raises for the whole stack, as the SolverError that step
maps it to.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateKernel, NoConvergence, SolverError
from .liouvillian import Superoperator
from .model import DensityMatrix, check_density_matrices

#: relative singular-value gap below which the kernel is treated as degenerate
GAP_THRESHOLD = 1e-8
#: structural-zero threshold for the unfed-level test, relative to the largest singular value
STRUCTURAL_TOL = 1e-12
#: max |M vec(rho)| allowed for an accepted solution
RESIDUAL_TOL = 1e-10


def steady_state(superop: Superoperator) -> DensityMatrix:
    """Unique physical steady state of the generator."""
    rho, errors = steady_states(np.asarray(superop.matrix)[None])
    if errors[0] is not None:
        raise errors[0]
    return DensityMatrix(rho[0], check=False)  # steady_states ran the checks


def steady_states(matrices: np.ndarray) -> tuple[np.ndarray, list]:
    """Steady states of a stack of 4-level generators (k, 16, 16).

    Returns the density matrices (k, 4, 4), each through
    DensityMatrix's checks and NaN where its point failed, and per
    point None or the SolverError the point failed with.
    """
    x, errors = _steady_vecs(matrices, 4)
    return _physical(np.swapaxes(x.reshape(-1, 4, 4), -1, -2), errors)


def residuals(matrices: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """max |M vec(rho)| of each point of a stack, the stationarity defects."""
    return np.abs(matrices @ np.swapaxes(rho, -1, -2).reshape(*rho.shape[:-2], 16, 1)).max(axis=(-2, -1))


def residual(superop: Superoperator, rho: DensityMatrix) -> float:
    """max |M vec(rho)|, the stationarity defect of a solution."""
    return float(residuals(superop.matrix, rho.matrix))


def bordered_kernel(m: np.ndarray, n: int) -> np.ndarray:
    """Kernel vectors (k, n^2) of a stack of n-level generators, of trace 1 up to rounding.

    One LU solve of the bordered system A x = e_0 per point; a singular
    A raises DegenerateKernel for the whole stack.
    """
    try:
        return np.linalg.solve(_bordered(m, n), np.eye(n * n, 1))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernel(f"bordered system singular: {exc}") from None


def _bordered(m: np.ndarray, n: int) -> np.ndarray:
    """Bordered matrices A of a stack of generators.

    The first diagonal-element row of each generator is replaced by the
    trace row, so A x = e_0 gives a kernel vector of trace 1.
    """
    a = np.array(m, dtype=complex)
    a[:, 0, :] = 0.0
    a[:, 0, [i + n * i for i in range(n)]] = 1.0
    return a


def _certified(m: np.ndarray, a_inv: np.ndarray, n: int) -> np.ndarray:
    """Points whose relative singular-value gap provably reaches GAP_THRESHOLD.

    A differs from M in one row, so by interlacing sigma_{n^2-1}(M) >=
    sigma_min(A) >= 1 / ||A^-1||_F; and ||M||_F / n <= sigma_1(M) <=
    ||M||_F. A point with GAP_THRESHOLD ||M||_F ||A^-1||_F <= 1 and
    ||M||_F >= n 1e-300 thus passes the SVD gap test.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm leaves its point uncertified
        norm_m = np.linalg.norm(m, axis=(1, 2))
        return (norm_m >= n * 1e-300) & (GAP_THRESHOLD * norm_m * np.linalg.norm(a_inv, axis=(1, 2)) <= 1.0)


def _steady_vec(m: np.ndarray, n: int) -> np.ndarray:
    x, errors = _steady_vecs(m[None], n)
    if errors[0] is not None:
        raise errors[0]
    return x[0]


def _steady_vecs(m: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    try:
        a_inv = np.linalg.inv(_bordered(m, n))  # column 0, A^-1 e_0, is the kernel vector
    except np.linalg.LinAlgError:
        a_inv = None  # an exactly singular A: the SVD decides every point of the stack
    gapped = np.zeros(len(m), dtype=bool) if a_inv is None else _certified(m, a_inv, n)
    uncertified = np.flatnonzero(~gapped)
    sing = np.empty((0, n * n))
    if uncertified.size:
        try:
            sing = np.linalg.svd(m[uncertified], compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular values of the generator: {exc}") from None
        gapped[uncertified] = (sing[:, 0] >= 1e-300) & (sing[:, -2] >= GAP_THRESHOLD * sing[:, 0])
    x = np.full((len(m), n * n), np.nan, dtype=complex)
    errors = [None] * len(m)
    if gapped.any():
        sol = bordered_kernel(m[gapped], n) if a_inv is None else a_inv[gapped, :, 0]
        x[gapped] = sol / sol[:, [i + n * i for i in range(n)]].sum(axis=1, keepdims=True)
        defects = np.abs(m[gapped] @ x[gapped, :, None]).max(axis=(1, 2))
        for i, defect in zip(np.flatnonzero(gapped), defects):
            if defect > RESIDUAL_TOL:
                errors[i] = NoConvergence(f"stationarity defect {defect:.2e} exceeds {RESIDUAL_TOL:.0e}")
    for i, sing_i in zip(uncertified, sing):
        if not gapped[i]:
            try:
                x[i] = _reduced_vec(m[i], n, sing_i)
            except SolverError as exc:
                errors[i] = exc
    return x, errors


def _reduced_vec(m: np.ndarray, n: int, sing: np.ndarray) -> np.ndarray:
    """Kernel below the gap: the unfed levels stay empty, the rest is solved."""
    if sing[0] < 1e-300:
        raise DegenerateKernel("generator is identically zero")
    unfed = _unfed_levels(m, n, sing[0])
    kept = [l for l in range(n) if l not in unfed]
    if not unfed or len(kept) < 2:
        raise DegenerateKernel(
            f"kernel is degenerate (relative gap {sing[-2] / sing[0]:.2e}) "
            "and no decoupled level explains it"
        )
    sub_idx = [kept[i] + n * kept[j] for j in range(len(kept)) for i in range(len(kept))]
    x = np.zeros(n * n, dtype=complex)
    x[sub_idx] = _steady_vec(m[np.ix_(sub_idx, sub_idx)], len(kept))
    return x


def _unfed_levels(m: np.ndarray, n: int, scale: float) -> list[int]:
    """Levels whose sector rows have no inflow from outside the sector.

    The sector of level l is every vec index (i, j) with i == l or
    j == l. Outflow from the sector into the rest is allowed; any
    entry feeding the sector marks the level as fed.
    """
    unfed = []
    tol = STRUCTURAL_TOL * scale
    row, col = np.indices((n, n)).reshape(2, -1, order="F")  # (i, j) of vec index i + n j
    for level in range(n):
        in_sector = (row == level) | (col == level)
        inflow = m[np.ix_(in_sector, ~in_sector)]
        if inflow.size == 0 or np.abs(inflow).max() <= tol:
            unfed.append(level)
    return unfed


def _physical(rho: np.ndarray, errors: list) -> tuple[np.ndarray, list]:
    """Hermitize and renormalize every solved point; clip the points with a negative eigenvalue.

    One eigvalsh per point gives the spectrum that decides the clip and
    that check_density_matrices gates; only the clipped points are
    decomposed again.
    """
    failed = np.array([e is not None for e in errors])
    # a valid stand-in keeps the failed points out of the stacked calls
    rho = np.where(failed[:, None, None], np.eye(4) / 4, rho)
    rho = 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())
    rho /= np.real(np.trace(rho, axis1=-2, axis2=-1))[:, None, None]
    try:
        eigvals = np.linalg.eigvalsh(rho)
        negative = np.flatnonzero(eigvals[:, 0] < 0.0)
        for i in negative[eigvals[negative, 0] < -1e-10]:
            errors[i] = NoConvergence(f"steady state has eigenvalue {eigvals[i, 0]:.2e} < -1e-10")
        if negative.size:
            vals, vecs = np.linalg.eigh(rho[negative])
            clipped = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ np.swapaxes(vecs, -1, -2).conj()
            clipped /= np.real(np.trace(clipped, axis1=-2, axis2=-1))[:, None, None]
            rho[negative] = clipped
            eigvals[negative] = np.linalg.eigvalsh(clipped)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalues of the steady state: {exc}") from None
    check_density_matrices(rho, eigvals=eigvals)
    rho[[e is not None for e in errors]] = np.nan
    return rho, errors
