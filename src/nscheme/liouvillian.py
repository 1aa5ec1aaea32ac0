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
Every input of the generator (Hamiltonian, jump rates, dephasing) is
built as a stack over points; a single point is a stack of one.
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
    motion disabled. 4x4, or (k, 4, 4) stacks, in rad/us.
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


def hamiltonian_stack(configs) -> HamiltonianParts:
    """Rotating-frame Hamiltonians of the three-laser N scheme, one per config.

    h0 = diag(0, -Delta_B, Delta_R - Delta_B, -Delta_C); the carrier
    couples S-P, D-P and S-Q with half the respective Rabi
    frequencies. With motion enabled, first order in the modulation
    indices eta gives h_side = sum_j i eta_j (Omega_j/2) x
    (coupling_j) + h.c. Each part is a (k, 4, 4) stack.
    """
    lasers = [(c.laser_b, c.laser_r, c.laser_c) for c in configs]
    db, dr, dc = np.array([[l.detuning for l in point] for point in lasers]).T
    rabi = np.array([[l.rabi for l in point] for point in lasers])
    eta = np.array([lamb_dicke_parameters(c)[:3] if c.motion.enabled else (0.0, 0.0, 0.0) for c in configs])

    h0 = np.zeros((len(configs), 4, 4), dtype=complex)
    h0[:, _P, _P], h0[:, _D, _D], h0[:, _Q, _Q] = -db, dr - db, -dc
    with np.errstate(all="ignore"):  # an eta Omega past the float range is inf, as in Python
        h_side = _couplings(1j * eta * rabi / 2.0)
    return HamiltonianParts(h0=h0, h_carrier=_couplings(rabi / 2.0), h_side=h_side)


def _couplings(values: np.ndarray) -> np.ndarray:
    """Hermitian (k, 4, 4) stack with values (k, 3) on the S-P, D-P and S-Q couplings."""
    h = np.zeros((len(values), 4, 4), dtype=complex)
    h[:, [_P, _P, _Q], [_S, _D, _S]] = values
    return h + np.swapaxes(h, -1, -2).conj()


def build_hamiltonian(config: SystemConfig) -> HamiltonianParts:
    """hamiltonian_stack for one point: 4x4 parts."""
    parts = hamiltonian_stack([config])
    return HamiltonianParts(h0=parts.h0[0], h_carrier=parts.h_carrier[0], h_side=parts.h_side[0])


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


def _decay_stack(configs) -> tuple[list, np.ndarray]:
    """(rates (k,), operator) of the P->S, P->D, Q->S decays, and dephasing (k, 4, 4).

    Dephasing entry [i, a, b] is the extra decay of rho_ab at point i:
    one-photon coherences decay at the linewidth of the laser driving
    them, multi-photon coherences at the sum over the connecting path:
    S-D at b_B + b_R, Q-P at b_B + b_C, Q-D at b_B + b_R + b_C.
    """
    rates = np.array([(c.atom.beta_ps * c.atom.gamma_p, c.atom.beta_pd * c.atom.gamma_p, c.atom.gamma_q)
                      for c in configs])
    ops = np.zeros((3, 4, 4))
    ops[[0, 1, 2], [_S, _D, _S], [_P, _P, _Q]] = 1.0
    b_b, b_r, b_c = np.array([(c.laser_b.linewidth, c.laser_r.linewidth, c.laser_c.linewidth)
                              for c in configs]).T
    dephasing = np.zeros((len(configs), 4, 4))
    dephasing[:, _P, _S] = b_b
    dephasing[:, _P, _D] = b_r
    dephasing[:, _Q, _S] = b_c
    dephasing[:, _S, _D] = b_b + b_r
    dephasing[:, _Q, _P] = b_b + b_c
    dephasing[:, _Q, _D] = b_b + b_r + b_c
    return list(zip(rates.T, ops)), dephasing + np.swapaxes(dephasing, -1, -2)


def jump_operators(config: SystemConfig) -> list[tuple[float, np.ndarray]]:
    """(rate, operator) pairs of the three decay channels."""
    return [(float(rate[0]), op) for rate, op in _decay_stack([config])[0]]


def dephasing_rates(config: SystemConfig) -> np.ndarray:
    """Symmetric 4x4 matrix of coherence decay rates from laser linewidths."""
    return _decay_stack([config])[1][0]


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

    h is (k, 4, 4), typically hamiltonian_stack(configs).h_total. Point
    i is commutator_superoperator(h[i]) plus the dissipator of the
    decay channels at configs[i]'s rates, minus its dephasing rates on
    the coherences' diagonal entries. The rates and dephasing are built
    as stacks too; every generator, single or swept, is built here.
    """
    channels, dephasing = _decay_stack(configs)
    m = commutator_superoperator(h) + lindblad_dissipator(channels)
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

