"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type. Sub-hierarchies mirror the package layout:
structural errors from ``repro.core``, overlay errors from
``repro.chord``, and protocol errors from ``repro.runtime``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class StructureError(ReproError):
    """An invalid structural request on the decomposition tree.

    Raised, for example, when asking for the children of a leaf
    component, or when a width is not a power of two.
    """


class InvalidCutError(StructureError):
    """A set of components does not form a valid cut of ``T_w``.

    A valid cut's members are the leaves of a pruned version of the
    decomposition tree: every root-to-leaf path of ``T_w`` must cross
    exactly one member (Definition 2.1 of the paper).
    """


class StepPropertyViolation(ReproError):
    """A quiescent output distribution violates the step property.

    Carries the offending output sequence and the first violating index
    pair so failures in large randomised tests are diagnosable.
    """

    def __init__(self, counts, i, j):
        self.counts = list(counts)
        self.i = i
        self.j = j
        super().__init__(
            "step property violated: x[%d]=%d, x[%d]=%d (need 0 <= x_i - x_j <= 1)"
            % (i, self.counts[i], j, self.counts[j])
        )


class RingError(ReproError):
    """An invalid operation on the Chord ring (e.g. empty-ring lookup)."""


class MembershipError(RingError):
    """A join/leave/crash request referenced an unknown or duplicate node."""


class ProtocolError(ReproError):
    """The distributed runtime reached an inconsistent protocol state."""


class ComponentNotFound(ProtocolError):
    """A message was routed to a component that no longer exists anywhere."""


class InvalidTransitionError(InvalidCutError, ProtocolError):
    """A reconfiguration was rejected by static validation.

    Raised by :mod:`repro.runtime.reconfig` before any state is touched
    when :mod:`repro.staticcheck.cuts` finds that a requested split or
    merge would not preserve the token-conservation precondition (the
    target is not a valid cut, the member is not live/splittable, or
    the live subtree does not partition the merge target). Inherits
    from both :class:`InvalidCutError` and :class:`ProtocolError` so
    structural and protocol handlers alike catch it; the full
    diagnostic report is on ``.report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.format())


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""
