"""Steady state of the periodically driven problem, expanded in trap harmonics.

For an ion oscillating at the trap frequency nu, the density matrix
is expanded as rho(t) = sum_n rho(n) exp(i n nu t) with |n| <= N.
The stationary blocks obey a block-tridiagonal linear system: block
row n couples rho(n) through the carrier generator shifted by -i n
nu, and rho(n -+ 1) through the sideband commutator -i[H_side, .].
The n = 0 block carries the physical populations; blocks with n != 0
are traceless and paired by rho(-n) = rho(n)+.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, DegenerateKernel, MotionDisabled, NoConvergence, TruncationNotConverged
from .liouvillian import build_hamiltonian, build_superoperator, commutator_superoperator
from .model import SystemConfig, level_index

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


def build_floquet_generator(config: SystemConfig, order: int) -> np.ndarray:
    """Block-tridiagonal generator of dimension 16(2N+1).

    Blocks are ordered n = -N..N. Row n encodes (M0 - i n nu) rho(n)
    - i[H_side, rho(n-1) + rho(n+1)] with rho(+-(N+1)) truncated to
    zero; M0 is the carrier generator including dissipation.
    """
    if not config.motion.enabled:
        raise MotionDisabled("the Floquet expansion needs motion enabled")
    if order < 1:
        raise ConfigError(f"Floquet order must be >= 1, got {order}")

    parts = build_hamiltonian(config)
    m0 = build_superoperator(parts.h_total, config).matrix
    c_side = commutator_superoperator(parts.h_side)
    nu = config.motion.trap_frequency

    nblocks = 2 * order + 1
    gen = np.zeros((16 * nblocks, 16 * nblocks), dtype=complex)
    for b in range(nblocks):
        n = b - order
        rows = slice(16 * b, 16 * (b + 1))
        gen[rows, rows] = m0 - 1j * n * nu * np.eye(16)
        if b > 0:
            gen[rows, 16 * (b - 1):16 * b] = c_side
        if b + 1 < nblocks:
            gen[rows, 16 * (b + 1):16 * (b + 2)] = c_side
    return gen


def _solve_blocks(gen: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Bordered solve: trace row on the n=0 block replaces one redundancy."""
    dim = gen.shape[0]
    base = 16 * order  # start of the n = 0 block
    diag_idx = [base + 5 * k for k in range(4)]

    a = gen.copy()
    b = np.zeros(dim, dtype=complex)
    a[diag_idx[0], :] = 0.0
    a[diag_idx[0], diag_idx] = 1.0
    b[diag_idx[0]] = 1.0
    try:
        x = np.linalg.solve(a, b)
        x += np.linalg.solve(a, b - a @ x)
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernel(f"Floquet block system is singular: {exc}") from None

    trace = x[diag_idx].sum()
    if not np.isfinite(trace):
        raise NoConvergence("Floquet solution overflowed")
    if abs(trace) < 1e-300:
        raise DegenerateKernel("Floquet solution has vanishing trace")
    x = x / trace
    defect = float(np.abs(gen @ x).max())
    if defect > FLOQUET_RESIDUAL_TOL:
        raise NoConvergence(f"Floquet residual {defect:.3e} exceeds {FLOQUET_RESIDUAL_TOL:.0e}")
    return x, defect


def _blocks_from_vector(x: np.ndarray, order: int) -> tuple[dict, float]:
    """Unpack, measure the pairing defect, then enforce the pairing."""
    raw = {
        n: x[16 * (n + order):16 * (n + order + 1)].reshape((4, 4), order="F")
        for n in range(-order, order + 1)
    }
    defect = 0.0
    for n in range(0, order + 1):
        defect = max(defect, float(np.abs(raw[-n] - raw[n].conj().T).max()))
    blocks = {}
    for n in range(0, order + 1):
        sym = 0.5 * (raw[n] + raw[-n].conj().T)
        blocks[n] = sym
        blocks[-n] = sym.conj().T
    return blocks, defect


def solve_floquet_steady(config: SystemConfig, order: int = DEFAULT_ORDER, *,
                         check_truncation: bool = True) -> FloquetBlockSystem:
    """Stationary Floquet blocks at the given truncation order.

    The solution must make the full (untruncated-row) system residual
    smaller than 1e-9; with check_truncation the n = 0 block is also
    compared against the order + 1 solution and the solve fails with
    TruncationNotConverged when they differ by more than 1e-5. The
    stricter 1e-8 convergence flag is reported by convergence_check.
    """
    gen = build_floquet_generator(config, order)
    x, residual = _solve_blocks(gen, order)
    blocks, pairing = _blocks_from_vector(x, order)

    rho0 = blocks[0]
    try:
        eigs = np.linalg.eigvalsh(rho0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalues of rho(0): {exc}") from None
    if eigs.min() < -1e-8:
        raise NoConvergence(f"rho(0) eigenvalue {eigs.min():.3e} below -1e-8")

    if check_truncation:
        gen_up = build_floquet_generator(config, order + 1)
        x_up, _ = _solve_blocks(gen_up, order + 1)
        blocks_up, _ = _blocks_from_vector(x_up, order + 1)
        delta = float(np.abs(blocks_up[0] - rho0).max())
        if delta >= SOLVE_TRUNCATION_TOL:
            raise TruncationNotConverged(
                f"order {order} vs {order + 1} differ by {delta:.3e} (tolerance {SOLVE_TRUNCATION_TOL:.0e})"
            )

    return FloquetBlockSystem(
        order=order,
        nu=config.motion.trap_frequency,
        blocks=blocks,
        residual=residual,
        pairing_defect=pairing,
    )


def convergence_check(config: SystemConfig, order: int) -> tuple[float, bool]:
    """Max |rho0_N - rho0_{N+1}| and whether it is below 1e-8."""
    if order < 1:
        raise ConfigError(f"Floquet order must be >= 1, got {order}")
    lo = solve_floquet_steady(config, order, check_truncation=False)
    hi = solve_floquet_steady(config, order + 1, check_truncation=False)
    delta = float(np.abs(lo.block(0) - hi.block(0)).max())
    return delta, bool(delta < TRUNCATION_TOL)
