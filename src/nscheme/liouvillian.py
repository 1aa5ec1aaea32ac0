"""Hamiltonian and Lindblad generator construction.

A Hermitian 4x4 matrix X is held as 16 real coordinates in an
orthonormal basis F_s of Hermitian matrices, Tr(F_s F_t) = delta_st
(the coherence vector of Alicki and Lendi, Quantum Dynamical Semigroups
and Applications, LNP 286, 1987): x_s = Tr(F_s X) and X = sum_s x_s F_s.
Slot 5 i holds X_ii; for each level pair i < j, slot i + 4 j holds
sqrt(2) Re X_ij and slot j + 4 i holds sqrt(2) Im X_ij. So the trace is
the sum of slots 0, 5, 10, 15, slot i + 4 j involves levels i and j
alone, and X+ has the conjugate coordinates of X (a Floquet harmonic
rho(n), n != 0, has complex ones).

The generator L of the master equation acts on the coordinates as the
real 16x16 matrix R_st = Tr(F_s L(F_t)): the complex superoperator of
L on column-major vec(rho) in a unitary change of basis, with the same
spectrum and singular values. It is built one way: the commutator of
h, plus the Lindblad dissipator of the config's jump operators (P
decays at gamma_p with branching beta_ps to S and beta_pd to D; Q
decays at gamma_q to S only), minus the laser-linewidth dephasing of
the coherences, where a multi-photon coherence dephases at the summed
linewidths of the lasers involved. R is linear in the 16 real
components of h (h_ii, Re h_ij, Im h_ij), the three decay rates and
the three linewidths, so a stack of generators is one product of
those columns, taken from a model.ParamTable, with a constant basis
of unit generators. The sideband coupling C is the commutator part
alone, applied to the components of h_side.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NoConvergence, NotHermitian
from .model import ParamTable, SystemConfig

# level indices in the fixed (S, P, D, Q) order
_S, _P, _D, _Q = 0, 1, 2, 3

# the level pairs i < j, and the slots of their real and imaginary parts
_I, _J = np.triu_indices(4, 1)
_RE = _I + 4 * _J
_IM = _J + 4 * _I
_DIAG = 5 * np.arange(4)
# coordinate of a unit component: 1 on the diagonal, sqrt(2) for a real or imaginary part
_SCALE = np.ones(16)
_SCALE[np.r_[_RE, _IM]] = np.sqrt(2.0)


def _components(x: np.ndarray) -> np.ndarray:
    """Real components (..., 16) of Hermitian matrices (..., 4, 4): X_ii at 5 i, Re and Im X_ij at i + 4 j, j + 4 i."""
    x, out = np.asarray(x), np.empty(np.shape(x)[:-2] + (16,))
    upper = x[..., _I, _J]
    out[..., _DIAG], out[..., _RE], out[..., _IM] = np.diagonal(x, axis1=-2, axis2=-1).real, upper.real, upper.imag
    return out


def vec(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., 16) of Hermitian matrices (..., 4, 4), in the slot layout above."""
    return _components(rho) * _SCALE


def unvec(x: np.ndarray) -> np.ndarray:
    """The matrices (..., 4, 4) of coordinates (..., 16); real coordinates give Hermitian matrices."""
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1] + (4, 4), dtype=complex)
    out[..., range(4), range(4)] = x[..., _DIAG]
    with np.errstate(invalid="ignore"):  # 1j * inf
        re, im = x[..., _RE] / _SCALE[_RE], 1j * (x[..., _IM] / _SCALE[_IM])
        out[..., _I, _J] = re + im
        out[..., _J, _I] = re - im
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class HamiltonianParts:
    """Carrier Hamiltonian and the sideband coupling.

    h_side multiplies both exp(+i nu t) and exp(-i nu t) in the
    interaction Hamiltonian (the motion is a cosine) and vanishes with
    motion disabled. 4x4, or (k, 4, 4) stacks, in rad/us.
    """

    h_total: np.ndarray
    h_side: np.ndarray

    def __post_init__(self):
        for m in (self.h_total, self.h_side):
            m.setflags(write=False)


def hamiltonian_stack(table: ParamTable) -> HamiltonianParts:
    """Rotating-frame Hamiltonians of the three-laser N scheme, one per point of the table.

    h_total is h0 = diag(0, -Delta_B, Delta_R - Delta_B, -Delta_C) plus
    the carrier couplings of S-P, D-P and S-Q at half the respective
    Rabi frequencies; the sum turns a -0.0 of h0 into 0.0, so no -0.0
    reaches the diagonal. With motion enabled, first order in the
    modulation indices eta gives h_side = sum_j i eta_j (Omega_j/2) x
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
    return HamiltonianParts(h_total=h0 + _couplings(rabi / 2.0), h_side=h_side)


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
    parts = HamiltonianParts(h_total=parts.h_total[0], h_side=parts.h_side[0])
    if not np.isfinite(parts.h_total).all():
        raise NoConvergence("carrier Hamiltonian overflows the float range")
    return parts


def _unit_generators() -> np.ndarray:
    """Generators (22, 256) of each unit component of h, unit decay rate and unit linewidth.

    Each is R_st = Tr(F_s L(F_t)), found from the exact components of L
    applied to the unit-component matrices G_t (entries 0, +-1, +-i),
    scaled once to the orthonormal basis F_t = G_t / _SCALE[t].
    """
    units = np.zeros((16, 4, 4), dtype=complex)
    units[_DIAG, range(4), range(4)] = 1.0
    units[_RE, _I, _J] = units[_RE, _J, _I] = 1.0
    units[_IM, _I, _J], units[_IM, _J, _I] = 1j, -1j
    # the jump operators |S><P|, |D><P|, |S><Q|, and each laser's linewidth on the coherences of its
    # path (b_B, b_R, b_C): a coherence dephases at the sum over the lasers connecting its levels
    ops, widths = np.zeros((3, 4, 4)), np.zeros((3, 4, 4))
    ops[range(3), [_S, _D, _S], [_P, _P, _Q]] = 1.0
    for laser, pairs in enumerate([[(_P, _S), (_S, _D), (_Q, _P), (_Q, _D)], [(_P, _D), (_S, _D), (_Q, _D)],
                                   [(_Q, _S), (_Q, _P), (_Q, _D)]]):
        for a, b in pairs:
            widths[laser, a, b] = widths[laser, b, a] = 1.0
    images = [-1j * (g @ units - units @ g) for g in units]
    images += [op @ units @ op.T - 0.5 * (op.T @ op @ units + units @ op.T @ op) for op in ops]
    images += [-w * units for w in widths]
    basis = np.stack([_components(image).T * (_SCALE[:, None] / _SCALE) for image in images])
    return basis.reshape(len(images), 256)


_GENERATORS = _unit_generators()
_GENERATORS.setflags(write=False)


def _generator_of(columns: np.ndarray) -> np.ndarray:
    """Generators (k, 16, 16) of the columns (k, m), the weights of the first m unit generators.

    A non-finite column value makes its own point's generator non-finite
    and no other point's.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, sums past the float range
        return (columns @ _GENERATORS[:columns.shape[-1]]).reshape(len(columns), 16, 16)


def commutator_stack(h: np.ndarray) -> np.ndarray:
    """Real generators (k, 16, 16) of -i [h, .] for a stack of Hermitian h (k, 4, 4)."""
    return _generator_of(_components(h))


def superoperator_stack(h: np.ndarray, table: ParamTable) -> np.ndarray:
    """Generators of a stack of points, (k, 16, 16), one per point of the table.

    h is (k, 4, 4), typically hamiltonian_stack(table).h_total. Point i
    is the commutator of h[i], plus the dissipator of the decay
    channels at the table's rates of point i, minus its linewidth
    dephasing; every generator, single or swept, is built here.
    """
    rates = np.stack([table.beta_ps * table.gamma_p, table.beta_pd * table.gamma_p, table.gamma_q], axis=1)
    return _generator_of(np.concatenate([_components(h), rates, table.linewidth], axis=1))


@dataclasses.dataclass(frozen=True, eq=False)
class Superoperator:
    """A real generator: 16x16 on the coordinates of rho (see vec), or the 15x15 affine form of dynamics."""

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
