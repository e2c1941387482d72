"""Shared exception hierarchy.

Not every error derives from RelbettiError.  A malformed argument or
payload part raises ValueError (a missing key or a value of the wrong
type may surface as KeyError or TypeError), and so do some mathematical
refusals, such as a transition asked for between incomparable elements.
The CLI turns those of the input it reads into InputError, exit 4,
through cli._input_error.  The other refusals raise the RelbettiError
subclasses below.  They live here (leaf module, no imports) and are
re-exported by the module that raises them.
"""


class RelbettiError(Exception):
    pass


# input
class InputError(RelbettiError):
    """Malformed payload, unknown name, or bad invocation: exit code 4."""


# linear algebra
class NoSolution(RelbettiError):
    pass


class ComplexInvalid(RelbettiError):
    pass


# posets
class CyclicCovers(RelbettiError):
    pass


class RedundantCover(RelbettiError):
    pass


class SizeBoundExceeded(RelbettiError):
    pass


class NotSemilattice(RelbettiError):
    pass


# modules
class FunctorialityViolation(RelbettiError):
    pass


class PosetMismatch(RelbettiError):
    pass


class InvalidSpread(RelbettiError):
    pass


# homological algebra
class MeetHypothesisFailed(RelbettiError):
    pass


class NotSubfunctor(RelbettiError):
    pass


# collections
class NameClash(RelbettiError):
    """A base element's name clashes with an index name made from it."""


# relative machinery
class NotThin(RelbettiError):
    pass


class HypothesisNotVerified(RelbettiError):
    pass


class DmaxReached(RelbettiError):
    pass
