"""Exception types shared across the package.

Everything derives from AFDError so callers can catch one base class.
The split matters mostly for the command line driver, which maps input
problems and numerical degeneracies to different exit codes.
"""


class AFDError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AFDError):
    """Malformed or inconsistent user input (files, grids, parameters)."""


class ParseError(InputError):
    """Input file could not be parsed."""


class NonUniformGrid(InputError):
    """Sample times do not match the uniform circular grid t_j = 2*pi*j/N."""


class NonRealInput(InputError):
    """Real-valued input required but imaginary content exceeds tolerance."""


class ZeroSignal(InputError):
    """Signal is numerically zero where nonzero energy is required."""


class ParamOutOfDisc(InputError):
    """A pole parameter lies on or outside the unit circle."""


class NumericalDegeneracy(AFDError):
    """Base for conditions where the computation cannot proceed stably."""


class NearZeroModulus(NumericalDegeneracy):
    """Boundary or interior modulus vanishes where a phase is needed."""


class PhaseUnresolved(NumericalDegeneracy):
    """Grid too coarse to unwrap the phase (a step of size >= pi)."""


class DegenerateModulus(NumericalDegeneracy):
    """Signal is numerically zero, so no outer factor exists."""


class ZeroResidual(NumericalDegeneracy):
    """Residual norm is below the selection floor.

    Selection raises it; the greedy driver ends the run on it.
    """


class DegenerateGram(NumericalDegeneracy):
    """Gram-Schmidt step collapsed; kernels are numerically dependent."""


class TailEnergy(NumericalDegeneracy):
    """Signal energy leaks off the ends of the finite grid."""
