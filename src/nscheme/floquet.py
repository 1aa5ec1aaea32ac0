"""Steady state of the periodically driven problem, expanded in trap harmonics.

For an ion oscillating at the trap frequency nu, the density matrix
is expanded as rho(t) = sum_n rho(n) exp(i n nu t) with |n| <= N.
The stationary blocks x_n = vec(rho(n)) obey a block-tridiagonal
system: row n reads (M0 - i n nu) x_n + C (x_{n-1} + x_{n+1}) = 0,
with M0 the carrier generator, C the sideband commutator -i[H_side, .]
and x_{+-(N+1)} = 0.

It is solved by the matrix continued fraction (Risken, The
Fokker-Planck Equation, ch. 9). With S_{N+1} = 0 the upper harmonics
follow x_n = S_n x_{n-1}, S_n = -(M0 - i n nu + C S_{n+1})^{-1} C, and
the lower ones independently x_{-n} = T_n x_{-(n-1)} with T_n the
same recursion at +i n nu. The n = 0 row then leaves the 16x16
effective generator M0 + C S_1 + C T_1, whose kernel the steady
state's bordered solve finds. The n = 0 block carries the physical
populations; blocks with n != 0 are traceless and paired by rho(-n) =
rho(n)+, a pairing the independent T recursion makes measurable.

Every step runs on a stack of points; a single solve is a stack of
one.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, DegenerateKernel, MotionDisabled, NoConvergence, TruncationNotConverged
from .liouvillian import commutator_superoperator, hamiltonian_stack, superoperator_stack
from .model import SystemConfig, level_index
from .steady import bordered_solve

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

_EYE16 = np.eye(16)
_DIAG = [5 * k for k in range(4)]  # vec indices of the diagonal of a 4x4 block


@dataclasses.dataclass(frozen=True)
class FloquetBlockSystem:
    """Solved harmonic blocks rho(n), n in [-order, order].

    blocks[n] are 4x4; populations come from the real diagonal of the
    n = 0 block. pairing_defect is the largest deviation from rho(-n)
    = rho(n)+ measured before the pairing was enforced; residual is
    the max-norm defect of the unmodified block system.
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


def solve_floquet_stack(configs, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Stationary Floquet blocks of every config at one truncation order.

    Returns the paired blocks (k, 2 order + 1, 4, 4) ordered n =
    -order..order (NaN where a point failed), the block-system
    residuals (k,), the pairing defects (k,), and for each point None
    or the SolverError it failed with. A point fails when its trace is
    not finite or vanishes, its residual exceeds 1e-9 or rho(0) has an
    eigenvalue below -1e-8. A LAPACK failure of a stacked call raises
    the SolverError it maps to for the whole stack.
    """
    if not all(c.motion.enabled for c in configs):
        raise MotionDisabled("the Floquet expansion needs motion enabled")
    if order < 1:
        raise ConfigError(f"Floquet order must be >= 1, got {order}")
    shift = -1j * np.array([cfg.motion.trap_frequency for cfg in configs])[:, None, None] * _EYE16

    # non-finite values of an overflowing point stay in that point and fail its gates
    with np.errstate(all="ignore"):
        parts = hamiltonian_stack(configs)
        m0 = superoperator_stack(parts.h_total, configs)
        c = commutator_superoperator(parts.h_side)
        upper = _fraction(m0, c, shift, order)
        lower = _fraction(m0, c, -shift, order)
        x0 = bordered_solve(m0 + c @ upper[0] + c @ lower[0], 4)
        trace = x0[:, _DIAG].sum(axis=1)
        x = [(x0 / trace[:, None])[..., None]]  # column vectors (k, 16, 1)
        for s_n, t_n in zip(upper, lower):
            x = [t_n @ x[0]] + x + [s_n @ x[-1]]
        # block rows (M0 - i n nu) x_n + C (x_{n-1} + x_{n+1}), x_{+-(order+1)} = 0
        padded = [0.0, *x, 0.0]
        residual = np.zeros(len(configs))
        for j, n in enumerate(range(-order, order + 1)):
            row = (m0 + n * shift) @ x[j] + c @ (padded[j] + padded[j + 2])
            residual = np.maximum(residual, np.abs(row).max(axis=(1, 2)))
        x = np.stack(x, axis=1)  # (k, 2 order + 1, 16, 1), n = -order..order
        raw = np.swapaxes(x.reshape(*x.shape[:2], 4, 4), -1, -2)
        mirrored = np.swapaxes(raw[:, ::-1], -1, -2).conj()  # rho(-n)+ at position n
        pairing = np.abs(raw - mirrored).max(axis=(1, 2, 3))
        blocks = 0.5 * (raw + mirrored)

    errors = [None] * len(configs)
    for i in range(len(configs)):
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


def _fraction(m0: np.ndarray, c: np.ndarray, shift: np.ndarray, order: int) -> list:
    """Ratios R_1..R_order of x_n = R_n x_{n-1}, R_n = -(M0 + n shift + C R_{n+1})^{-1} C."""
    ratios = []
    coupled = np.zeros_like(m0)  # C R_{n+1}, zero past the truncation
    for n in range(order, 0, -1):
        try:
            ratio = -np.linalg.solve(m0 + n * shift + coupled, c)
        except np.linalg.LinAlgError as exc:
            raise DegenerateKernel(f"Floquet continued fraction is singular: {exc}") from None
        ratios.insert(0, ratio)
        coupled = c @ ratio
    return ratios


def solve_floquet_steady(config: SystemConfig, order: int = DEFAULT_ORDER, *,
                         check_truncation: bool = True) -> FloquetBlockSystem:
    """Stationary Floquet blocks at the given truncation order.

    The solution must make the full (untruncated-row) system residual
    smaller than 1e-9; with check_truncation the n = 0 block is also
    compared against the order + 1 solution and the solve fails with
    TruncationNotConverged when they differ by more than 1e-5. The
    stricter 1e-8 convergence flag is reported by convergence_check.
    """
    blocks, residual, pairing, errors = solve_floquet_stack([config], order)
    if errors[0] is not None:
        raise errors[0]
    solution = FloquetBlockSystem(
        order=order,
        nu=config.motion.trap_frequency,
        blocks={n: blocks[0, n + order] for n in range(-order, order + 1)},
        residual=float(residual[0]),
        pairing_defect=float(pairing[0]),
    )
    if check_truncation:
        delta = _truncation_delta(config, solution)
        if delta >= SOLVE_TRUNCATION_TOL:
            raise TruncationNotConverged(
                f"order {order} vs {order + 1} differ by {delta:.3e} (tolerance {SOLVE_TRUNCATION_TOL:.0e})"
            )
    return solution


def convergence_check(config: SystemConfig, order: int) -> tuple[float, bool]:
    """Max |rho0_N - rho0_{N+1}| and whether it is below 1e-8."""
    delta = _truncation_delta(config, solve_floquet_steady(config, order, check_truncation=False))
    return delta, bool(delta < TRUNCATION_TOL)


def _truncation_delta(config: SystemConfig, solution: FloquetBlockSystem) -> float:
    """Max |rho0_N - rho0_{N+1}| of a solution at order N."""
    finer = solve_floquet_steady(config, solution.order + 1, check_truncation=False)
    return float(np.abs(finer.block(0) - solution.block(0)).max())
