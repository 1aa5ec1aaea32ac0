"""Hamiltonian and Lindblad superoperator construction.

Density matrices are vectorized column-major (Fortran order): element
(i, j) of rho sits at vec index i + 4*j, so vec(A rho B) =
(B^T kron A) vec(rho) and the coherent part of the generator is
M = -i [(1 kron h) - (h^T kron 1)].

There is one way to build the generator: the commutator of h, plus
the Lindblad dissipator of the config's jump operators (P decays at
gamma_p with branching beta_ps to S and beta_pd to D; Q decays at
gamma_q to S only), minus the laser-linewidth dephasing rates on the
diagonal. Multi-photon coherences dephase at the summed linewidths of
the lasers involved; with every linewidth zero the last term vanishes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NotHermitian
from .model import SystemConfig, lamb_dicke_parameters

_I4 = np.eye(4)

# level indices in the fixed (S, P, D, Q) order
_S, _P, _D, _Q = 0, 1, 2, 3


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a 4x4 matrix."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v, dtype=complex).reshape((4, 4), order="F")


def _kron4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 4x4 matrices as 16x16, broadcast over leading axes."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], 16, 16)


@dataclasses.dataclass(frozen=True, eq=False)
class HamiltonianParts:
    """Static part, carrier couplings, and the sideband coupling.

    h_side multiplies both exp(+i nu t) and exp(-i nu t) in the
    interaction Hamiltonian (the motion is a cosine) and vanishes with
    motion disabled. All 4x4, rad/us.
    """

    h0: np.ndarray
    h_carrier: np.ndarray
    h_side: np.ndarray

    def __post_init__(self):
        for m in (self.h0, self.h_carrier, self.h_side):
            m.setflags(write=False)

    @property
    def h_total(self) -> np.ndarray:
        """Carrier Hamiltonian h0 + h_carrier."""
        return self.h0 + self.h_carrier


def build_hamiltonian(config: SystemConfig) -> HamiltonianParts:
    """Rotating-frame Hamiltonian of the three-laser N scheme.

    h0 = diag(0, -Delta_B, Delta_R - Delta_B, -Delta_C); the carrier
    couples S-P, D-P and S-Q with half the respective Rabi
    frequencies. With motion enabled, first order in the modulation
    indices eta gives h_side = sum_j i eta_j (Omega_j/2) x
    (coupling_j) + h.c.
    """
    db = config.laser_b.detuning
    dr = config.laser_r.detuning
    dc = config.laser_c.detuning

    h0 = np.diag([0.0, -db, dr - db, -dc]).astype(complex)

    h_carrier = np.zeros((4, 4), dtype=complex)
    h_carrier[_P, _S] = config.laser_b.rabi / 2.0
    h_carrier[_P, _D] = config.laser_r.rabi / 2.0
    h_carrier[_Q, _S] = config.laser_c.rabi / 2.0
    h_carrier = h_carrier + h_carrier.conj().T

    if config.motion.enabled:
        eta = lamb_dicke_parameters(config)
        h_side = np.zeros((4, 4), dtype=complex)
        h_side[_P, _S] = 1j * eta.eta_b * config.laser_b.rabi / 2.0
        h_side[_P, _D] = 1j * eta.eta_r * config.laser_r.rabi / 2.0
        h_side[_Q, _S] = 1j * eta.eta_c * config.laser_c.rabi / 2.0
        h_side = h_side + h_side.conj().T
    else:
        h_side = np.zeros((4, 4), dtype=complex)

    return HamiltonianParts(h0=h0, h_carrier=h_carrier, h_side=h_side)


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i [h, .] in the column-major convention.

    h may be a stack (..., 4, 4); the result is then (..., 16, 16).
    """
    return -1j * (_kron4(_I4, h) - _kron4(np.swapaxes(h, -1, -2), _I4))


def lindblad_dissipator(jump_ops: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Generic Lindblad dissipator for (rate, L) pairs.

    sum_k rate_k [L rho L+ - (L+L rho + rho L+L)/2], as a 16x16
    superoperator; with rates of shape (k,), a (k, 16, 16) stack.
    """
    m = np.zeros(np.broadcast_shapes(*(np.shape(rate) for rate, _ in jump_ops)) + (16, 16), dtype=complex)
    for rate, op in jump_ops:
        op = np.asarray(op, dtype=complex)
        ldl = op.conj().T @ op
        m += np.asarray(rate)[..., None, None] * (
            _kron4(op.conj(), op)
            - 0.5 * _kron4(_I4, ldl)
            - 0.5 * _kron4(ldl.T, _I4)
        )
    return m


def jump_operators(config: SystemConfig) -> list[tuple[float, np.ndarray]]:
    """(rate, operator) pairs of the three decay channels."""
    atom = config.atom
    l_ps = np.zeros((4, 4)); l_ps[_S, _P] = 1.0
    l_pd = np.zeros((4, 4)); l_pd[_D, _P] = 1.0
    l_qs = np.zeros((4, 4)); l_qs[_S, _Q] = 1.0
    return [
        (atom.beta_ps * atom.gamma_p, l_ps),
        (atom.beta_pd * atom.gamma_p, l_pd),
        (atom.gamma_q, l_qs),
    ]


def dephasing_rates(config: SystemConfig) -> np.ndarray:
    """Symmetric matrix of coherence decay rates from laser linewidths.

    Entry (i, j) is the extra decay of rho_ij. One-photon coherences
    decay at the linewidth of the laser driving them, multi-photon
    coherences at the sum over the connecting path: S-D at b_B + b_R,
    Q-P at b_B + b_C, Q-D at b_B + b_R + b_C.
    """
    b_b = config.laser_b.linewidth
    b_r = config.laser_r.linewidth
    b_c = config.laser_c.linewidth
    rates = np.zeros((4, 4))
    rates[_P, _S] = b_b
    rates[_P, _D] = b_r
    rates[_Q, _S] = b_c
    rates[_S, _D] = b_b + b_r
    rates[_Q, _P] = b_b + b_c
    rates[_Q, _D] = b_b + b_r + b_c
    return rates + rates.T


@dataclasses.dataclass(frozen=True, eq=False)
class Superoperator:
    """16x16 generator acting on column-major vectorized rho."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    _eig_cache = None

    def eig(self):
        """Cached eigendecomposition (eigenvalues, V, V^-1, cond(V)).

        An exactly singular V has no inverse: V^-1 is then None and
        cond(V) infinite. Idempotent, so a concurrent duplicate
        computation is harmless.
        """
        cached = self._eig_cache
        if cached is None:
            lam, v = np.linalg.eig(self.matrix)
            try:
                v_inv, cond = np.linalg.inv(v), np.linalg.cond(v)
            except np.linalg.LinAlgError:
                v_inv, cond = None, np.inf
            cached = (lam, v, v_inv, cond)
            object.__setattr__(self, "_eig_cache", cached)
        return cached


def superoperator_stack(h: np.ndarray, configs) -> np.ndarray:
    """Generators of a stack of points, (k, 16, 16), one per config.

    h is (k, 4, 4). Point i is commutator_superoperator(h[i]) +
    lindblad_dissipator(jump_operators(configs[i])), with
    dephasing_rates(configs[i]) subtracted from the diagonal entries
    of the coherences. Every generator, single or swept, is built here.
    """
    ops = [jump_operators(c) for c in configs]
    rates = np.array([[rate for rate, _ in point] for point in ops])
    channels = [(rates[:, k], op) for k, (_, op) in enumerate(ops[0])]
    m = commutator_superoperator(h) + lindblad_dissipator(channels)
    dephasing = np.stack([dephasing_rates(c) for c in configs])
    diag = np.arange(16)
    m[:, diag, diag] -= np.swapaxes(dephasing, -1, -2).reshape(len(configs), 16)
    return m


def build_superoperator(h: np.ndarray, config: SystemConfig) -> Superoperator:
    """Full generator: -i[h, .] plus decay, minus linewidth dephasing.

    superoperator_stack for one point: the config's linewidths alone
    decide the dephasing. h must be Hermitian to 1e-10; callers
    typically pass HamiltonianParts.h_total.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise NotHermitian(f"expected a 4x4 Hamiltonian, got shape {h.shape}")
    if np.abs(h - h.conj().T).max() > 1e-10:
        raise NotHermitian("Hamiltonian deviates from Hermitian by more than 1e-10")
    return Superoperator(matrix=superoperator_stack(h[None], [config])[0])


def apply(superop: Superoperator, rho: np.ndarray) -> np.ndarray:
    """d rho / dt for the given state (4x4 in, 4x4 out)."""
    rho = np.asarray(rho, dtype=complex)
    return unvec(superop.matrix @ vec(rho))


def trace_defect(matrix: np.ndarray) -> float:
    """Max absolute entry of the summed diagonal-element rows.

    Zero for any trace-preserving generator: the rows of d rho_ii /
    dt must cancel columnwise.
    """
    diag_rows = [i + 4 * i for i in range(4)]
    return float(np.abs(matrix[diag_rows, :].sum(axis=0)).max())

