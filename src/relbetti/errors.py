"""Shared exception hierarchy.

Every error raised by this package derives from RelbettiError so callers can
catch one base class. Concrete classes live here (leaf module, no imports)
and are re-exported by the module that raises them.
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
