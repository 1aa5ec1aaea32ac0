"""Exception hierarchy.

ConfigError subclasses indicate invalid input (CLI exit code 1),
SolverError subclasses indicate a numerical failure of an otherwise
valid problem (CLI exit code 2).
"""


class NSchemeError(Exception):
    """Base class for all package errors."""


class ConfigError(NSchemeError):
    """Invalid configuration or input data."""


class NegativeRate(ConfigError):
    """A rate, coupling, wavelength or amplitude has a forbidden sign."""


class BranchingNotNormalized(ConfigError):
    """Branching fractions out of range or not summing to one."""


class BadDirection(ConfigError):
    """Propagation direction must be +1 or -1."""


class UnknownLevel(ConfigError):
    """Level label outside {S, P, D, Q}."""


class MotionDisabled(ConfigError):
    """Operation requires motion parameters but motion is disabled."""


class MotionUnsupported(ConfigError):
    """Operation is carrier-only but the config has motion enabled."""


class LinewidthUnsupported(ConfigError):
    """Operation has no dephasing model but a laser linewidth is set."""


class ZeroDetuningC(ConfigError):
    """Perturbative report undefined at zero detuning of the C laser."""


class ZeroCoupling(ConfigError):
    """Lambda eigensystem undefined when both Raman couplings vanish."""


class NotHermitian(ConfigError):
    """Hamiltonian handed to the superoperator builder is not Hermitian."""


class NonPhysicalState(ConfigError):
    """Matrix, ket or trajectory request outside the physical domain.

    An invalid density matrix or initial ket, jump times out of order, a
    trajectory length or dark threshold that is not finite and positive,
    fewer than one trajectory, or a negative seed.
    """


class SolverError(NSchemeError):
    """A solve failed on a structurally valid problem."""


class DegenerateKernel(SolverError):
    """Steady state not unique (multiple stationary solutions)."""


class NoConvergence(SolverError):
    """Residual above tolerance after the linear solve."""


class DefectiveGenerator(SolverError):
    """Eigenbasis of the generator too ill-conditioned to propagate."""


class TruncationNotConverged(SolverError):
    """Sideband expansion not converged at the requested order."""


class ZeroFluorescence(SolverError):
    """Correlation function undefined: steady state emits no photons."""


class FitFailed(SolverError):
    """Timescale extraction failed on the supplied trace."""


class NoJumps(SolverError):
    """Photon statistics requested but no trajectory recorded a jump."""


class PerturbationInvalid(UserWarning):
    """Perturbative report requested outside its validity range."""
