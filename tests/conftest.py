"""Shared config builders and reference solvers for the test suite."""

import dataclasses

import numpy as np

from nscheme.dynamics import _as_matrix, propagate_vectors
from nscheme.errors import ConfigError, DegenerateKernel, MotionDisabled, NoConvergence, SolverError
from nscheme.floquet import FLOQUET_RESIDUAL_TOL
from nscheme.liouvillian import _kron4, build_hamiltonian, build_superoperator
from nscheme.model import (
    FREQUENCY_FIELDS,
    GAMMA_Q_DEFAULT,
    AtomSpec,
    LaserDrive,
    MotionSpec,
    SystemConfig,
    _resolve_path,
    from_mhz,
    with_gamma_q,
)
from nscheme.steady import GAP_THRESHOLD, RESIDUAL_TOL, _physical, _unfed_levels, bordered_kernel

# oscillation amplitude giving |eta_B| = 0.1 at 397 nm
OSC_AMPLITUDE_NM = 12.636902481496492


def make_config(db=8.0, dr=3.0, dc=5.0, ob=10.0, orr=2.5, oc=0.05, *, gq=None,
                lw=0.0, counter=False, motion=False, trap=1.0, amp=None):
    """Four-level config with all frequencies quoted in MHz (units of 2pi MHz).

    Defaults are the three-photon working point; pass dr=db, dc=0 for the
    two+one-photon point. gq=None keeps the physical metastable decay,
    gq=0.0 switches it off.
    """
    if amp is None:
        amp = OSC_AMPLITUDE_NM if motion else 0.0
    return SystemConfig(
        laser_b=LaserDrive(rabi=from_mhz(ob), detuning=from_mhz(db), wavelength=397.0,
                           direction=(-1 if counter else 1), linewidth=from_mhz(lw)),
        laser_r=LaserDrive(rabi=from_mhz(orr), detuning=from_mhz(dr), wavelength=866.0,
                           linewidth=from_mhz(lw)),
        laser_c=LaserDrive(rabi=from_mhz(oc), detuning=from_mhz(dc), wavelength=729.0,
                           linewidth=from_mhz(lw)),
        atom=AtomSpec(gamma_q=(GAMMA_Q_DEFAULT if gq is None else gq)),
        motion=MotionSpec(enabled=motion, trap_frequency=from_mhz(trap), amplitude=amp),
    )


def two_plus_one(**kw):
    kw.setdefault("db", 8.0)
    kw.setdefault("dr", 8.0)
    kw.setdefault("dc", 0.0)
    return make_config(**kw)


def sup_of(config):
    return build_superoperator(build_hamiltonian(config).h_total, config)


def replace_param(config, path, value):
    """New config with one field replaced, e.g. ('laser_R.detuning', 18.85).

    The path uses the JSON schema names; the value is in internal
    units (rad/us for frequencies). Validation reruns on the rebuilt
    section.
    """
    attr, field = _resolve_path(path)
    new_section = dataclasses.replace(getattr(config, attr), **{field: value})
    return dataclasses.replace(config, **{attr: new_section})


def unvec(v):
    """Inverse of liouvillian.vec: the 4x4 matrix of a column-major vector."""
    return np.asarray(v, dtype=complex).reshape((4, 4), order="F")


def propagate(superop, rho0, t, *, method="auto"):
    """Single-time propagation; returns the hermitized 4x4 rho(t)."""
    if t == 0.0:
        return _as_matrix(rho0)
    stack = propagate_vectors(superop, rho0, np.array([0.0, float(t)]), method=method)
    rho = unvec(stack[-1])
    return 0.5 * (rho + rho.conj().T)


def point_configs(config, spec):
    """One config per point of a scan, each built and validated on its own.

    Reference for the scan's parameter table, which builds no per-point
    config: the axis value (MHz converted for frequency fields) replaces
    the field, then gamma_q_mode "zero" clears gamma_Q.
    """
    configs = []
    for v in spec.values_mhz:
        cfg = replace_param(config, spec.axis, from_mhz(float(v)) if spec.axis in FREQUENCY_FIELDS else float(v))
        configs.append(with_gamma_q(cfg, 0.0) if spec.gamma_q_mode == "zero" else cfg)
    return configs


def broadcast_commutator(h):
    """-i [h, .] as two broadcast Kronecker products, (..., 16, 16).

    Reference for liouvillian.commutator_superoperator, which writes the
    nonzeros by index.
    """
    eye = np.eye(4)
    return -1j * (_kron4(eye, h) - _kron4(np.swapaxes(h, -1, -2), eye))


def with_linewidths(config, lw_mhz):
    lw = from_mhz(lw_mhz)
    return dataclasses.replace(
        config,
        laser_b=dataclasses.replace(config.laser_b, linewidth=lw),
        laser_r=dataclasses.replace(config.laser_r, linewidth=lw),
        laser_c=dataclasses.replace(config.laser_c, linewidth=lw),
    )


def build_floquet_generator(config, order):
    """Block-tridiagonal generator of dimension 16(2N+1).

    Blocks are ordered n = -N..N. Row n encodes (M0 - i n nu) rho(n)
    - i[H_side, rho(n-1) + rho(n+1)] with rho(+-(N+1)) truncated to
    zero; M0 is the carrier generator including dissipation. Reference
    for the continued-fraction solver.
    """
    if not config.motion.enabled:
        raise MotionDisabled("the Floquet expansion needs motion enabled")
    if order < 1:
        raise ConfigError(f"Floquet order must be >= 1, got {order}")

    parts = build_hamiltonian(config)
    m0 = build_superoperator(parts.h_total, config).matrix
    c_side = broadcast_commutator(parts.h_side)
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


def floquet_lower_ratios(config, order):
    """Ratios T_1..T_order of the lower harmonics, x_{-n} = T_n x_{-(n-1)}.

    T_n = -(M0 + i n nu + C T_{n+1})^{-1} C with T_{order+1} = 0, solved
    as its own recursion. Reference for the production solver, which
    takes T_n from the upper ratios by Hermitian symmetry.
    """
    parts = build_hamiltonian(config)
    m0 = build_superoperator(parts.h_total, config).matrix
    c_side = broadcast_commutator(parts.h_side)
    shift = 1j * config.motion.trap_frequency * np.eye(16)
    ratios = []
    coupled = np.zeros_like(m0)
    for n in range(order, 0, -1):
        ratio = -np.linalg.solve(m0 + n * shift + coupled, c_side)
        ratios.insert(0, ratio)
        coupled = c_side @ ratio
    return ratios


def solve_floquet_blocks(gen, order):
    """Bordered solve of the whole block system: trace row on the n=0 block.

    Returns the trace-normalized solution vector and its residual.
    """
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


def svd_gated_steady_states(matrices):
    """steady.steady_states with every point's uniqueness decided by its singular values.

    Reference for the production route, which skips the SVD on the
    points its bordered-inverse certificate accepts. Both take the
    kernel vector from one LU of the bordered system, so they agree
    bitwise.
    """
    x, errors = svd_gated_steady_vecs(matrices, 4)
    return _physical(np.swapaxes(x.reshape(-1, 4, 4), -1, -2), errors)


def svd_gated_steady_vecs(m, n):
    """Kernel vectors (k, n^2) and per-point errors, gated by the SVD gap of every point."""
    try:
        sing = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular values of the generator: {exc}") from None
    x = np.full((len(m), n * n), np.nan, dtype=complex)
    errors = [None] * len(m)
    gapped = (sing[:, 0] >= 1e-300) & (sing[:, -2] >= GAP_THRESHOLD * sing[:, 0])
    if gapped.any():
        sol = bordered_kernel(m[gapped], n)
        x[gapped] = sol / sol[:, [i + n * i for i in range(n)]].sum(axis=1, keepdims=True)
        defects = np.abs(m[gapped] @ x[gapped, :, None]).max(axis=(1, 2))
        for i, defect in zip(np.flatnonzero(gapped), defects):
            if defect > RESIDUAL_TOL:
                errors[i] = NoConvergence(f"stationarity defect {defect:.2e} exceeds {RESIDUAL_TOL:.0e}")
    for i in np.flatnonzero(~gapped):
        try:
            x[i] = _svd_gated_reduced_vec(m[i], n, sing[i])
        except SolverError as exc:
            errors[i] = exc
    return x, errors


def _svd_gated_reduced_vec(m, n, sing):
    """Kernel below the gap: unfed levels stay empty, the rest is solved by the same route."""
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
    sub, errors = svd_gated_steady_vecs(m[np.ix_(sub_idx, sub_idx)][None], len(kept))
    if errors[0] is not None:
        raise errors[0]
    x = np.zeros(n * n, dtype=complex)
    x[sub_idx] = sub[0]
    return x
