"""Steady state of the periodically driven problem, expanded in trap harmonics.

For an ion oscillating at the trap frequency nu, the density matrix
is expanded as rho(t) = sum_n rho(n) exp(i n nu t) with |n| <= N.
The stationary blocks x_n = vec(rho(n)) obey a block-tridiagonal
system: row n reads (M0 - i n nu) x_n + C (x_{n-1} + x_{n+1}) = 0,
with M0 the carrier generator, C the sideband commutator -i[H_side, .]
and x_{+-(N+1)} = 0.

It is solved by the matrix continued fraction (Risken, The
Fokker-Planck Equation, ch. 9). With S_{N+1} = 0 the upper harmonics
follow x_n = S_n x_{n-1}, S_n = -(M0 - i n nu + C S_{n+1})^{-1} C.
Both M0 and C map X+ to (M X)+ (C because H_side is Hermitian), so
the block system is invariant under rho(n) -> rho(-n)+: the lower
ratio is T_1 = P conj(S_1) P, with P the vec-transpose permutation,
and the lower blocks are the mirrored upper ones, rho(-n) = rho(n)+.
The n = 0 row leaves the 16x16 effective generator M0 + C S_1 + C
T_1, whose kernel one LU of the bordered system gives; rho(0) is
normalized and hermitized, and the upper blocks follow from it. A
stack solve returns the upper blocks only; a single solve sets each
lower block to its upper block's conjugate transpose. The n = 0
block carries the physical populations; blocks with n != 0 are
traceless. The pairing defect is the hermiticity defect of rho(0)
before it was hermitized, rounding only. The residual over the block
rows n = 0..N is the correctness gate; row -n is row n mirrored.

Every step runs on a stack of points, given as a model.ParamTable; a
single solve is a table of one.

A long sweep along one table column takes a second route, a matrix
pencil (cf. the shifted systems of Frommer and Glassner, SIAM J. Sci.
Comput. 19, 15 (1998)). The bordered block system A, of size
16 (2N + 1) with the n = 0 block's first diagonal-element row replaced
by the trace row, is affine in one coordinate q of every column the
sweep may move: the column value itself, or 1 / wavelength, since eta
is direction x amplitude / wavelength and only eta Omega enters C. So
A(q) = A(q0) + (q - q0) B, and B has nonzero entries in few columns
(30 for a detuning at order 2), and is of lower rank still along a
column that moves C, since a commutator superoperator has a kernel.
With B[:, cols] = P V+ at its numerical rank r,
FloquetPencil inverts A(q0) at the sweep's middle point and takes one
eigendecomposition W diag(mu) W^-1 of the r x r matrix
Z = V+ A(q0)^-1[cols] P; by the Woodbury identity every point's
solution is then x(q) = A(q0)^-1 e0 - L diag(c(q)) R e0, with
L = A(q0)^-1 P W, R = W^-1 V+ A(q0)^-1[cols] and
c_i(q) = (q - q0) / (1 + (q - q0) mu_i).
Each point then takes one refinement step against the block system
built from its own M0 and C. A point the pencil cannot answer to the
continued fraction's accuracy is left to the continued fraction.

Both routes build M0, C and the shift -i nu in one place
(_generators) and end in one verdict (_verdict): the same trace
normalization, hermitized rho(0) and pairing defect, the same
residual over rows 0..N (_block_rows) and the same gates, so a point
passes or fails for the same reasons on either route.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateKernel, MotionDisabled, NoConvergence, TruncationNotConverged
from .liouvillian import commutator_superoperator, hamiltonian_stack, superoperator_stack
from .model import _TABLE_FIELDS, ParamTable, SystemConfig, level_index, require_integer
from .steady import bordered_kernel

#: residual bound on the full block system
FLOQUET_RESIDUAL_TOL = 1e-9
#: |rho0_N - rho0_{N+1}| bound for flagging a truncation as converged
TRUNCATION_TOL = 1e-8
#: looser bound at which solve_floquet_steady refuses to return a result.
#: Between the two the solve is usable but convergence_check reports False;
#: order-2 vs order-3 deltas sit near 1e-6 at typical sideband parameters,
#: so the strict flag cannot double as the solve gate.
SOLVE_TRUNCATION_TOL = 1e-5
DEFAULT_ORDER = 2
#: largest truncation order a solve, a convergence check or a sweep may ask for.
#: Each order costs one stacked 16x16 solve per point; the truncation check
#: solves once more at order + 1, which solve_floquet_stack still accepts
MAX_ORDER = 64

#: largest refinement correction max |dx| of a pencil point; past it the
#: pencil's first solution was too rough for one step to reach the
#: continued fraction's accuracy, and the continued fraction solves the point
PENCIL_STEP_TOL = 1e-8

#: largest truncation order a sweep solves on the pencil (see _pencil_pays)
PENCIL_MAX_ORDER = 16

_DIAG = [5 * k for k in range(4)]  # vec indices of the diagonal of a 4x4 block
_TRANSPOSE = [4 * (i % 4) + i // 4 for i in range(16)]  # vec(X^T) = vec(X)[_TRANSPOSE]


@dataclasses.dataclass(frozen=True)
class FloquetBlockSystem:
    """Solved harmonic blocks rho(n), n in [-order, order].

    blocks[n] are 4x4; populations come from the real diagonal of the
    n = 0 block, and rho(-n) = rho(n)+ exactly. pairing_defect is the
    max |rho(0) - rho(0)+| of the solved rho(0) before it was
    hermitized, which measures rounding only. residual is the max-norm
    defect of the block system's rows, those with n < 0 being the
    mirrored rows n > 0.
    """

    order: int
    nu: float
    blocks: dict
    residual: float
    pairing_defect: float

    def block(self, n: int) -> np.ndarray:
        return self.blocks[n]

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.blocks[0]))

    def population(self, label: str) -> float:
        return float(self.populations[level_index(label)])

    def to_json(self) -> dict:
        """All blocks as nested [re, im] lists, for cross-checking."""
        return {
            "order": self.order,
            "trap_frequency": self.nu,
            "residual": self.residual,
            "pairing_defect": self.pairing_defect,
            "blocks": {
                str(n): [[[float(z.real), float(z.imag)] for z in row] for row in self.blocks[n]]
                for n in sorted(self.blocks)
            },
        }


def solve_floquet_stack(table: ParamTable, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Stationary upper Floquet blocks of every point of the table at one truncation order.

    Returns the blocks rho(0)..rho(order), (k, order + 1, 4, 4) (NaN
    where a point failed), the block-system residuals (k,) over rows n
    = 0..order, the pairing defects (k,), and for each point None or the
    SolverError it failed with (see _verdict). It makes order + 1
    stacked solves, one per upper ratio S_n and one for the kernel. The
    lower blocks are the mirrored upper ones, rho(-n) = rho(n)+. order
    must lie in [1, MAX_ORDER + 1]. A LAPACK failure of a stacked call
    raises the SolverError it maps to for the whole stack.
    """
    if not table.enabled.all():
        raise MotionDisabled("the Floquet expansion needs motion enabled")
    if not 1 <= require_integer(order, "Floquet order") <= MAX_ORDER + 1:
        raise ConfigError(f"Floquet order must lie in [1, {MAX_ORDER + 1}], got {order}")
    # non-finite values of an overflowing point stay in that point and fail its gates
    with np.errstate(all="ignore"):
        m0, c, coupling, shift = _generators(table)
        upper = _fraction(m0, c, shift, order)
        t_1 = upper[0][:, _TRANSPOSE][:, :, _TRANSPOSE].conj()  # T_1 = P conj(S_1) P
        x0 = bordered_kernel(m0 + c @ upper[0] + c @ t_1, 4)
    x, residual, pairing, errors = _verdict(x0[:, None], coupling, shift, upper)
    return np.swapaxes(x.reshape(*x.shape[:2], 4, 4), -1, -2), residual, pairing, errors


def _generators(table: ParamTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """M0, C, [M0, C] transposed (k, 32, 16) and the shift -i nu (k, 1) of the table's points."""
    parts = hamiltonian_stack(table)
    m0 = superoperator_stack(parts.h_total, table)
    c = commutator_superoperator(parts.h_side)
    return m0, c, np.concatenate([m0, c], axis=2).mT, -1j * table.trap_frequency[:, None]


def _verdict(x: np.ndarray, coupling: np.ndarray, shift: np.ndarray,
             upper: Sequence[np.ndarray] = ()) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Normalized blocks x_0..x_order (k, order + 1, 16), residuals, pairing defects and errors of a stack.

    x (k, m, 16) holds each point's blocks x_0..x_{m-1} up to a factor;
    they are divided by the trace of rho(0), rho(0) is hermitized, and
    each ratio S_n of upper appends x_n = S_n x_{n-1}. errors[i] is None
    or the SolverError of the first gate point i fails: a trace not
    finite or vanishing, a residual not at most FLOQUET_RESIDUAL_TOL, a
    rho(0) eigenvalue below -1e-8; a failed point's values are NaN. A
    LAPACK failure of the stacked eigvalsh raises NoConvergence.
    """
    with np.errstate(all="ignore"):
        trace = x[:, 0, _DIAG].sum(axis=1)
        x = x / trace[:, None, None]
        mirrored = x[:, 0, _TRANSPOSE].conj()
        pairing = np.abs(x[:, 0] - mirrored).max(axis=1)
        x[:, 0] = 0.5 * (x[:, 0] + mirrored)
        if len(upper):
            column = [x[:, 0].reshape(-1, 16, 1)]
            for s_n in upper:
                column.append(s_n @ column[-1])
            x = np.concatenate([x, np.concatenate(column[1:], axis=2).mT], axis=1)
        # rows n = 0..order with x_{-1} = x_1+ (row -n is row n mirrored) and x_{order+1} = 0
        padded = np.concatenate([x[:, 1:2, _TRANSPOSE].conj(), x, np.zeros_like(x[:, :1])], axis=1)
        residual = np.abs(_block_rows(coupling, shift, padded, 0)).max(axis=(1, 2))
    errors = [None] * len(x)
    # the gates in reverse order, so that the first gate a point fails names its error
    for i in np.flatnonzero(~(residual <= FLOQUET_RESIDUAL_TOL)):
        errors[i] = NoConvergence(f"Floquet residual {residual[i]:.3e} exceeds {FLOQUET_RESIDUAL_TOL:.0e}")
    for i in np.flatnonzero(np.abs(trace) < 1e-300):
        errors[i] = DegenerateKernel("Floquet solution has vanishing trace")
    for i in np.flatnonzero(~np.isfinite(trace)):
        errors[i] = NoConvergence("Floquet solution overflowed")
    failed = np.array([e is not None for e in errors])
    try:
        # a valid stand-in keeps the failed points out of the stacked call
        lowest = np.linalg.eigvalsh(np.where(failed[:, None, None], np.eye(4) / 4,
                                             np.swapaxes(x[:, 0].reshape(-1, 4, 4), -1, -2)))[:, 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalues of rho(0): {exc}") from None
    for i in np.flatnonzero(lowest < -1e-8):
        errors[i] = NoConvergence(f"rho(0) eigenvalue {lowest[i]:.3e} below -1e-8")
    failed = [e is not None for e in errors]
    x[failed] = residual[failed] = pairing[failed] = np.nan
    return x, residual, pairing, errors


def require_order(order, what: str = "Floquet order") -> int:
    """A requested truncation order as an int in [1, MAX_ORDER]; anything else raises ConfigError."""
    number = require_integer(order, what)
    if not 1 <= number <= MAX_ORDER:
        raise ConfigError(f"{what} must lie in [1, {MAX_ORDER}], got {order}")
    return number


def _shifted(m0: np.ndarray, n: int, shift: np.ndarray) -> np.ndarray:
    """M0 - i n nu of every point: shift (k, 1) times n added to a copy's diagonal."""
    out = m0.copy()
    out.reshape(len(out), -1)[:, ::17] += n * shift  # a strided view of each 16x16 diagonal
    return out


def _fraction(m0: np.ndarray, c: np.ndarray, shift: np.ndarray, order: int) -> list:
    """Ratios R_1..R_order of x_n = R_n x_{n-1}, R_n = -(M0 - i n nu + C R_{n+1})^{-1} C."""
    ratios = []
    coupled = np.zeros_like(m0)  # C R_{n+1}, zero past the truncation
    for n in range(order, 0, -1):
        try:
            ratio = -np.linalg.solve(_shifted(m0, n, shift) + coupled, c)
        except np.linalg.LinAlgError as exc:
            raise DegenerateKernel(f"Floquet continued fraction is singular: {exc}") from None
        ratios.insert(0, ratio)
        coupled = c @ ratio
    return ratios


def solve_floquet_steady(config: SystemConfig, order: int = DEFAULT_ORDER, *,
                         check_truncation: bool = True) -> FloquetBlockSystem:
    """Stationary Floquet blocks at the given truncation order, in [1, MAX_ORDER].

    The solution must make the full (untruncated-row) system residual
    smaller than 1e-9; with check_truncation the n = 0 block is also
    compared against the order + 1 solution and the solve fails with
    TruncationNotConverged when they differ by more than 1e-5. The
    stricter 1e-8 convergence flag is reported by convergence_check.
    """
    solution = _solve(config, require_order(order))
    if check_truncation:
        delta = _truncation_delta(config, solution)
        if delta >= SOLVE_TRUNCATION_TOL:
            raise TruncationNotConverged(
                f"order {order} vs {order + 1} differ by {delta:.3e} (tolerance {SOLVE_TRUNCATION_TOL:.0e})"
            )
    return solution


def _solve(config: SystemConfig, order: int) -> FloquetBlockSystem:
    """solve_floquet_stack for one config, any order it accepts; raises the point's error."""
    blocks, residual, pairing, errors = solve_floquet_stack(ParamTable.of([config]), order)
    if errors[0] is not None:
        raise errors[0]
    return FloquetBlockSystem(
        order=order,
        nu=config.motion.trap_frequency,
        blocks={n: blocks[0, n] if n >= 0 else blocks[0, -n].conj().T for n in range(-order, order + 1)},
        residual=float(residual[0]),
        pairing_defect=float(pairing[0]),
    )


def convergence_check(config: SystemConfig, order: int) -> tuple[float, bool]:
    """Max |rho0_N - rho0_{N+1}| and whether it is below 1e-8."""
    delta = _truncation_delta(config, solve_floquet_steady(config, order, check_truncation=False))
    return delta, bool(delta < TRUNCATION_TOL)


def _truncation_delta(config: SystemConfig, solution: FloquetBlockSystem) -> float:
    """Max |rho0_N - rho0_{N+1}| of a solution at order N."""
    finer = _solve(config, solution.order + 1)
    return float(np.abs(finer.block(0) - solution.block(0)).max())


def _block_system(table: ParamTable, order: int) -> np.ndarray:
    """Bordered block systems A (k, 16 (2 order + 1), 16 (2 order + 1)) of the table's points.

    Block rows and columns run over n = -order..order; the first
    diagonal-element row of the n = 0 block is the trace row, so
    A x = e0 (e0 at index 16 order) is the truncated block system with
    trace 1.
    """
    m0, c, _, shift = _generators(table)
    size = 2 * order + 1
    a = np.zeros((len(table), size, 16, size, 16), dtype=complex)
    for b in range(size):
        a[:, b, :, b] = _shifted(m0, b - order, shift)
        if b:
            a[:, b, :, b - 1] = a[:, b - 1, :, b] = c
    a[:, order, 0] = 0.0
    a[:, order, 0, order, _DIAG] = 1.0
    return a.reshape(len(table), 16 * size, 16 * size)


def _block_rows(coupling: np.ndarray, shift: np.ndarray, x: np.ndarray, first: int) -> np.ndarray:
    """Block rows n = first, first + 1, ... of the block system, (k, m, 16).

    coupling is [M0, C] transposed, (k, 32, 16); x (k, m + 2, 16) holds
    the blocks x_{first - 1} .. x_{first + m}. Row n is
    (M0 - i n nu) x_n + C (x_{n-1} + x_{n+1}), one stacked product.
    """
    centre = x[:, 1:-1]
    n = np.arange(first, first + centre.shape[1])
    return (np.concatenate([centre, x[:, :-2] + x[:, 2:]], axis=2) @ coupling
            + (shift * n)[:, :, None] * centre)


def _coordinate(values: np.ndarray, reciprocal: bool) -> np.ndarray:
    """The coordinate q of a column's values in which the block system is affine."""
    return 1.0 / values if reciprocal else values


@dataclasses.dataclass(frozen=True, eq=False)
class FloquetPencil:
    """A sweep's bordered block system, factored once at its middle point (see the module docstring).

    column is the swept ParamTable column and q its coordinate (the
    value, or 1 / value for a wavelength); q0 is the anchor's
    coordinate, a0_inv the inverse of A(q0) and x0 = A(q0)^-1 e0. cols
    are the nonzero columns of B, and B[:, cols] = P V+ at its numerical
    rank; mu are the eigenvalues of Z = V+ A(q0)^-1 P = W diag(mu) W^-1,
    left = A(q0)^-1 P W, project = W^-1 V+ (applied to a vector's cols
    entries) and right = project x0[cols], so that
    A(q)^-1 y = A(q0)^-1 y - left diag(c(q)) project (A(q0)^-1 y)[cols].
    """

    column: int
    reciprocal: bool
    order: int
    q0: float
    a0_inv: np.ndarray
    cols: np.ndarray
    mu: np.ndarray
    project: np.ndarray
    left: np.ndarray
    right: np.ndarray
    x0: np.ndarray

    def _inverse(self, y: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """A(q)^-1 y of each point by the Woodbury identity, y (k, n); coef (k, r) holds c_i(q)."""
        y = y @ self.a0_inv.T
        return y - (coef * (y[:, self.cols] @ self.project.T)) @ self.left.T

    def solve(self, table: ParamTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Populations (k, 4), residuals (k,), pairing defects (k,) and solved mask (k,) of a block of the sweep.

        A point is solved when _verdict passes its refined solution and
        its refinement correction is at most PENCIL_STEP_TOL; the other
        points hold NaN and are left to the continued fraction, as is
        every point of a block whose generators hold a non-finite value
        or whose stacked eigvalsh fails.
        """
        k, order = len(table), self.order
        unsolved = np.full((k, 4), np.nan), np.full(k, np.nan), np.full(k, np.nan), np.zeros(k, dtype=bool)
        with np.errstate(all="ignore"):
            _, _, coupling, shift = _generators(table)
            if not np.isfinite(coupling).all():
                return unsolved
            delta = (_coordinate(table.data[:, self.column], self.reciprocal) - self.q0)[:, None]
            coef = delta / (1.0 + delta * self.mu)
            x = self.x0 - (coef * self.right) @ self.left.T
            # one refinement step x += A(q)^-1 (e0 - A(q) x) against the point's own system
            blocks = x.reshape(k, 2 * order + 1, 16)
            pad = np.zeros((k, 1, 16), dtype=complex)
            defect = -_block_rows(coupling, shift, np.concatenate([pad, blocks, pad], axis=1), -order)
            defect[:, order, 0] = 1.0 - blocks[:, order, _DIAG].sum(axis=1)
            step = self._inverse(defect.reshape(k, -1), coef)
            x += step  # blocks is a view of x
        try:
            blocks, residual, pairing, errors = _verdict(blocks[:, order:], coupling, shift)
        except NoConvergence:  # the stacked eigvalsh failed: the continued fraction decides every point
            return unsolved
        solved = np.array([e is None for e in errors]) & (np.abs(step).max(axis=1) <= PENCIL_STEP_TOL)
        residual[~solved] = pairing[~solved] = np.nan
        return np.where(solved[:, None], blocks[:, 0, _DIAG].real, np.nan), residual, pairing, solved


def _pencil_pays(points: int, order: int) -> bool:
    """Whether a sweep of this many points costs fewer operations on the pencil than on the continued fraction.

    The continued fraction makes order + 1 16x16 solves per point, the
    pencil one inverse of the 16 (2 order + 1) block system per sweep.
    Each pencil point also multiplies by that inverse, (16 (2 order + 1))^2
    operations, which nears the continued fraction's cost per point as
    the order grows (measured at 256 points, one BLAS thread: 155 against
    341 us per point at order 16, 438 against 653 at order 32), while
    the inverse grows as the cube; so past PENCIL_MAX_ORDER the
    continued fraction solves every sweep.
    """
    return order <= PENCIL_MAX_ORDER and points * (order + 1) >= (2 * order + 1) ** 3


def floquet_pencil(table: ParamTable, column: int, order: int) -> Optional[FloquetPencil]:
    """The pencil of a sweep that moves one table column, or None to solve every point by the continued fraction.

    None when the column has no affine coordinate (motion.enabled),
    when the continued fraction costs fewer operations (_pencil_pays),
    when motion is off at a point, or when the anchor's system does not
    factor into finite values. B is A(1) - A(0) in the column's
    coordinate, exact up to rounding; every point is refined against
    its own system in any case.
    """
    field = _TABLE_FIELDS[column][1]
    if field == "enabled" or not _pencil_pays(len(table), order) or not table.enabled.all():
        return None
    reciprocal = field == "wavelength"
    anchor = table.data[len(table) // 2]
    probe = np.repeat(anchor[None], 3, axis=0)
    probe[1:, column] = (np.inf, 1.0) if reciprocal else (0.0, 1.0)  # the points q = 0 and q = 1
    with np.errstate(all="ignore"):
        a = _block_system(ParamTable(probe), order)
        b = a[2] - a[1]
        cols = np.flatnonzero((b != 0.0).any(axis=0))
        if not (np.isfinite(a[0]).all() and np.isfinite(b).all()):
            return None
        try:
            # B[:, cols] = P V+ at its numerical rank, so that Z has no null space of B's making
            u, sing, vh = np.linalg.svd(b[:, cols], full_matrices=False)
            rank = int((sing > sing[:1] * max(b.shape) * np.finfo(float).eps).sum())
            a0_inv = np.linalg.inv(a[0])
            inv_p = a0_inv @ (u[:, :rank] * sing[:rank])
            mu, w = np.linalg.eig(vh[:rank] @ inv_p[cols])
            project = np.linalg.solve(w, vh[:rank])
        except np.linalg.LinAlgError:
            return None
        x0 = a0_inv[:, 16 * order]
        pencil = FloquetPencil(column=column, reciprocal=reciprocal, order=order,
                               q0=float(_coordinate(anchor[column], reciprocal)), a0_inv=a0_inv, cols=cols,
                               mu=mu, project=project, left=inv_p @ w, right=project @ x0[cols], x0=x0)
    if not all(np.isfinite(v).all() for v in (a0_inv, mu, project, pencil.left)):
        return None
    return pencil
