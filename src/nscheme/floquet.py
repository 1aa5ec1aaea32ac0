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
normalized and hermitized, the upper blocks follow from it, and each
lower block is set to its upper block's conjugate transpose. The
n = 0 block carries the physical populations; blocks with n != 0 are
traceless. The pairing defect is the hermiticity defect of rho(0)
before it was hermitized, rounding only. The residual over the block
rows n = 0..N is the correctness gate; row -n is row n mirrored.

Every step runs on a stack of points, given as a model.ParamTable; a
single solve is a table of one.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, DegenerateKernel, MotionDisabled, NoConvergence, TruncationNotConverged
from .liouvillian import commutator_superoperator, hamiltonian_stack, superoperator_stack
from .model import ParamTable, SystemConfig, level_index, require_integer
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
    """Stationary Floquet blocks of every point of the table at one truncation order.

    Returns the blocks (k, 2 order + 1, 4, 4) ordered n =
    -order..order (NaN where a point failed), the block-system
    residuals (k,) over rows n = 0..order, the pairing defects (k,),
    and for each point None or the SolverError it failed with. It
    makes order + 1 stacked solves, one per upper ratio S_n and one
    for the kernel. The lower blocks are the mirrored upper ones,
    rho(-n) = rho(n)+, so the pairing defect is the hermiticity defect
    of rho(0) before it was hermitized. A point fails when its trace is
    not finite or vanishes, its residual exceeds 1e-9 or rho(0) has an
    eigenvalue below -1e-8. order must lie in [1, MAX_ORDER + 1]. A
    LAPACK failure of a stacked call raises the SolverError it maps to
    for the whole stack.
    """
    if not table.enabled.all():
        raise MotionDisabled("the Floquet expansion needs motion enabled")
    if not 1 <= require_integer(order, "Floquet order") <= MAX_ORDER + 1:
        raise ConfigError(f"Floquet order must lie in [1, {MAX_ORDER + 1}], got {order}")
    shift = -1j * table.trap_frequency[:, None]  # the diagonal of d/dt over one harmonic, (k, 1)

    # non-finite values of an overflowing point stay in that point and fail its gates
    with np.errstate(all="ignore"):
        parts = hamiltonian_stack(table)
        m0 = superoperator_stack(parts.h_total, table)
        c = commutator_superoperator(parts.h_side)
        upper = _fraction(m0, c, shift, order)
        t_1 = upper[0][:, _TRANSPOSE][:, :, _TRANSPOSE].conj()  # T_1 = P conj(S_1) P
        x0 = bordered_kernel(m0 + c @ upper[0] + c @ t_1, 4)
        trace = x0[:, _DIAG].sum(axis=1)
        x0 = (x0 / trace[:, None])[..., None]  # column vectors (k, 16, 1)
        mirrored = _mirror(x0)
        pairing = np.abs(x0 - mirrored).max(axis=(1, 2))
        x = [0.5 * (x0 + mirrored)]  # x_0..x_order, rho(0) hermitized
        for s_n in upper:
            x.append(s_n @ x[-1])
        # block rows n = 0..order of (M0 - i n nu) x_n + C (x_{n-1} + x_{n+1}), x_{order+1} = 0;
        # row -n is row n mirrored, since M0 and C commute with X -> X+
        padded = [_mirror(x[1]), *x, 0.0]
        residual = np.zeros(len(table))
        for n in range(order + 1):
            row = _shifted(m0, n, shift) @ x[n] + c @ (padded[n] + padded[n + 2])
            residual = np.maximum(residual, np.abs(row).max(axis=(1, 2)))
        # rho(-n) = rho(n)+: x stacked (k, 2 order + 1, 16, 1) over n = -order..order
        x = np.stack([_mirror(x_n) for x_n in x[:0:-1]] + x, axis=1)
        blocks = np.swapaxes(x.reshape(*x.shape[:2], 4, 4), -1, -2)

    errors = [None] * len(table)
    for i in range(len(table)):
        if not np.isfinite(trace[i]):
            errors[i] = NoConvergence("Floquet solution overflowed")
        elif abs(trace[i]) < 1e-300:
            errors[i] = DegenerateKernel("Floquet solution has vanishing trace")
        elif residual[i] > FLOQUET_RESIDUAL_TOL:
            errors[i] = NoConvergence(f"Floquet residual {residual[i]:.3e} exceeds {FLOQUET_RESIDUAL_TOL:.0e}")
    failed = np.array([e is not None for e in errors])
    try:
        # a valid stand-in keeps the failed points out of the stacked call
        lowest = np.linalg.eigvalsh(np.where(failed[:, None, None], np.eye(4) / 4, blocks[:, order]))[:, 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalues of rho(0): {exc}") from None
    for i in np.flatnonzero(lowest < -1e-8):
        errors[i] = NoConvergence(f"rho(0) eigenvalue {lowest[i]:.3e} below -1e-8")
    failed = [e is not None for e in errors]
    blocks[failed] = residual[failed] = pairing[failed] = np.nan
    return blocks, residual, pairing, errors


def _mirror(x: np.ndarray) -> np.ndarray:
    """vec(X+) of a stack of column vectors vec(X), (k, 16, 1)."""
    return x[:, _TRANSPOSE].conj()


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
        blocks={n: blocks[0, n + order] for n in range(-order, order + 1)},
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
