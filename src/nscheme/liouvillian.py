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
built as a stack over points from a model.ParamTable, the parameter
columns of the points; a single point is a table of one. The
commutator superoperator is written by index: its 112 structural
nonzeros are entries of h, so no Kronecker product is formed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NoConvergence, NotHermitian
from .model import ParamTable, SystemConfig

_I4 = np.eye(4)

# level indices in the fixed (S, P, D, Q) order
_S, _P, _D, _Q = 0, 1, 2, 3


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a 4x4 matrix."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


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


def hamiltonian_stack(table: ParamTable) -> HamiltonianParts:
    """Rotating-frame Hamiltonians of the three-laser N scheme, one per point of the table.

    h0 = diag(0, -Delta_B, Delta_R - Delta_B, -Delta_C); the carrier
    couples S-P, D-P and S-Q with half the respective Rabi
    frequencies. With motion enabled, first order in the modulation
    indices eta gives h_side = sum_j i eta_j (Omega_j/2) x
    (coupling_j) + h.c. Each part is a (k, 4, 4) stack. A value past
    the float range (Delta_R - Delta_B, eta Omega) is inf, as in Python
    float arithmetic, and stays in its point.
    """
    db, dr, dc = table.detuning.T
    rabi = table.rabi
    h0 = np.zeros((len(table), 4, 4), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        h0[:, _P, _P], h0[:, _D, _D], h0[:, _Q, _Q] = -db, dr - db, -dc
        h_side = _couplings(1j * table.lamb_dicke() * rabi / 2.0)
    return HamiltonianParts(h0=h0, h_carrier=_couplings(rabi / 2.0), h_side=h_side)


def _couplings(values: np.ndarray) -> np.ndarray:
    """Hermitian (k, 4, 4) stack with values (k, 3) on the S-P, D-P and S-Q couplings."""
    h = np.zeros((len(values), 4, 4), dtype=complex)
    h[:, [_P, _P, _Q], [_S, _D, _S]] = values
    return h + np.swapaxes(h, -1, -2).conj()


def build_hamiltonian(config: SystemConfig) -> HamiltonianParts:
    """hamiltonian_stack for one point: 4x4 parts.

    A carrier Hamiltonian that is not finite (Delta_R - Delta_B past
    the float range) raises NoConvergence, as every solve of it would.
    """
    parts = hamiltonian_stack(ParamTable.of([config]))
    parts = HamiltonianParts(h0=parts.h0[0], h_carrier=parts.h_carrier[0], h_side=parts.h_side[0])
    if not np.isfinite(parts.h_total).all():
        raise NoConvergence("carrier Hamiltonian overflows the float range")
    return parts


# flat (row * 16 + column) positions of the commutator superoperator's
# nonzeros and the flat (4 q + s) entries of h they hold: in the
# column-major convention 1 kron h puts h[q, s] at (4p + q, 4p + s), and
# h^T kron 1 puts h[r, p] at (4p + q, 4r + q); the two meet on the
# diagonal p = r, q = s.
_p, _q, _r = np.indices((4, 4, 4)).reshape(3, -1)
_LEFT = 16 * (4 * _p + _q) + 4 * _p + _r, 4 * _q + _r
_RIGHT = 16 * (4 * _p + _q) + 4 * _r + _q, 4 * _r + _p
del _p, _q, _r


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i [h, .] in the column-major convention.

    h may be a stack (..., 4, 4); the result is then (..., 16, 16).
    Only the structural nonzeros are written, so a non-finite entry of
    h spreads to the entries that hold it and no further.
    """
    h = np.asarray(h)
    with np.errstate(invalid="ignore"):  # -1j * inf
        entries = -1j * h.reshape(*h.shape[:-2], 16)
    m = np.zeros((*h.shape[:-2], 256), dtype=complex)
    m[..., _LEFT[0]] = entries[..., _LEFT[1]]
    with np.errstate(over="ignore", invalid="ignore"):  # h[q, q] - h[p, p] past the float range
        m[..., _RIGHT[0]] -= entries[..., _RIGHT[1]]
    return m.reshape(*h.shape[:-2], 16, 16)


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


# the P->S, P->D and Q->S jump operators, in the order of _decay_stack's rate columns
_DECAY_OPS = np.zeros((3, 4, 4))
_DECAY_OPS[[0, 1, 2], [_S, _D, _S], [_P, _P, _Q]] = 1.0
_DECAY_OPS.setflags(write=False)
# their dissipators at unit rate; a channel's dissipator is its rate times its basis entry
_DISSIPATOR_BASIS = np.stack([lindblad_dissipator([(1.0, op)]).real for op in _DECAY_OPS])
_DISSIPATOR_BASIS.setflags(write=False)
# the flat entries where any of them is nonzero; elsewhere a sum of finite rates times them is +0.0
_DISSIPATOR_SUPPORT = np.flatnonzero(_DISSIPATOR_BASIS.any(axis=0))
_DISSIPATOR_ON_SUPPORT = _DISSIPATOR_BASIS.reshape(3, 256)[:, _DISSIPATOR_SUPPORT]


def _decay_stack(table: ParamTable) -> tuple[np.ndarray, np.ndarray]:
    """Rates (k, 3) of the P->S, P->D, Q->S decays, and dephasing (k, 4, 4).

    Dephasing entry [i, a, b] is the extra decay of rho_ab at point i:
    one-photon coherences decay at the linewidth of the laser driving
    them, multi-photon coherences at the sum over the connecting path:
    S-D at b_B + b_R, Q-P at b_B + b_C, Q-D at b_B + b_R + b_C.
    """
    rates = np.stack([table.beta_ps * table.gamma_p, table.beta_pd * table.gamma_p, table.gamma_q], axis=1)
    b_b, b_r, b_c = table.linewidth.T
    dephasing = np.zeros((len(table), 4, 4))
    dephasing[:, _P, _S] = b_b
    dephasing[:, _P, _D] = b_r
    dephasing[:, _Q, _S] = b_c
    dephasing[:, _S, _D] = b_b + b_r
    dephasing[:, _Q, _P] = b_b + b_c
    dephasing[:, _Q, _D] = b_b + b_r + b_c
    return rates, dephasing + np.swapaxes(dephasing, -1, -2)


@dataclasses.dataclass(frozen=True, eq=False)
class Superoperator:
    """16x16 generator acting on column-major vectorized rho."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def eig(self):
        """Eigendecomposition (eigenvalues, V, V^-1, cond(V)).

        An exactly singular V has no inverse: V^-1 is then None and
        cond(V) infinite.
        """
        lam, v = np.linalg.eig(self.matrix)
        try:
            v_inv, cond = np.linalg.inv(v), np.linalg.cond(v)
        except np.linalg.LinAlgError:
            v_inv, cond = None, np.inf
        return lam, v, v_inv, cond


def superoperator_stack(h: np.ndarray, table: ParamTable) -> np.ndarray:
    """Generators of a stack of points, (k, 16, 16), one per point of the table.

    h is (k, 4, 4), typically hamiltonian_stack(table).h_total. Point
    i is commutator_superoperator(h[i]) plus the dissipator of the
    decay channels at the table's rates of point i, minus its dephasing
    rates on the coherences' diagonal entries. The rates and dephasing
    are built as stacks too; every generator, single or swept, is built
    here. The dissipator sums the channels' rates times their unit-rate
    dissipators in channel order, on the entries where those are
    nonzero, which is lindblad_dissipator's sum to the bit for finite
    rates.
    """
    k = len(table)
    rates, dephasing = _decay_stack(table)
    on_support = np.zeros((k, _DISSIPATOR_SUPPORT.size))
    for rate, basis in zip(rates.T, _DISSIPATOR_ON_SUPPORT):
        on_support += rate[:, None] * basis
    dissipator = np.zeros((k, 256))
    dissipator[:, _DISSIPATOR_SUPPORT] = on_support
    m = commutator_superoperator(h)
    m += dissipator.reshape(k, 16, 16)
    diag = np.arange(16)
    m[:, diag, diag] -= np.swapaxes(dephasing, -1, -2).reshape(k, 16)
    return m


def build_superoperator(h: np.ndarray, config: SystemConfig) -> Superoperator:
    """Full generator: -i[h, .] plus decay, minus linewidth dephasing.

    superoperator_stack for one point: the config's linewidths alone
    decide the dephasing. h must be Hermitian to 1e-10, which a
    non-finite h is not; callers typically pass
    HamiltonianParts.h_total.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 4):
        raise NotHermitian(f"expected a 4x4 Hamiltonian, got shape {h.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, |z| past the float range
        defect = np.abs(h - h.conj().T).max()
    if not defect <= 1e-10:
        raise NotHermitian("Hamiltonian deviates from Hermitian by more than 1e-10")
    return Superoperator(matrix=superoperator_stack(h[None], ParamTable.of([config]))[0])
