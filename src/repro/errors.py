"""Exception hierarchy for the Infopipes middleware.

All framework errors derive from :class:`InfopipeError`, so applications can
catch middleware failures with a single ``except`` clause while still being
able to distinguish composition-time problems (raised while a pipeline is
being wired up) from run-time problems (raised while data is flowing).
"""

from __future__ import annotations


class InfopipeError(Exception):
    """Base class of every error raised by the framework."""


# ---------------------------------------------------------------------------
# Composition-time errors
# ---------------------------------------------------------------------------

class CompositionError(InfopipeError):
    """A pipeline could not be assembled from the given components."""


class PolarityError(CompositionError):
    """Two ports with the same fixed polarity were connected.

    The paper (section 2.3): "ports with opposite polarity may be connected,
    but an attempt to connect two ports with the same polarity is an error".
    """


class TypespecMismatch(CompositionError):
    """The Typespecs on either side of a connection have no common flow."""

    def __init__(self, message: str, conflicts: dict | None = None):
        super().__init__(message)
        #: Mapping of property name -> (left value, right value) for every
        #: property whose intersection was empty.
        self.conflicts = dict(conflicts or {})

    def in_context(self, context: str) -> "TypespecMismatch":
        """The same mismatch, its message prefixed with where it arose."""
        return TypespecMismatch(f"{context}: {self}", self.conflicts)


class PortError(CompositionError):
    """A port was used incorrectly (already connected, unknown name, ...)."""


class AllocationError(CompositionError):
    """The glue layer could not assign threads/coroutines to a pipeline.

    Typical causes: a pipeline section without any pump or active endpoint,
    a section with two competing activity origins, or a multi-port component
    used in a mode its activity rules forbid (section 3.3).
    """


# ---------------------------------------------------------------------------
# Run-time errors
# ---------------------------------------------------------------------------

class RuntimeFault(InfopipeError):
    """Base class for errors raised while a pipeline is running."""


class SchedulerError(RuntimeFault):
    """The user-level thread scheduler detected an inconsistency."""


class DeadlockError(SchedulerError):
    """No thread is runnable but work remains outstanding."""


class InjectedFault(RuntimeFault):
    """A deliberately injected failure (fault-injection harness).

    Raised into threads by :meth:`repro.mbt.scheduler.Scheduler.inject_crash`
    and used by :mod:`repro.check.faults` so injected crashes are
    distinguishable from genuine component failures.
    """


class InvariantViolation(RuntimeFault, AssertionError):
    """A flow invariant (conservation, FIFO order) was violated.

    Also an :class:`AssertionError`, so plain pytest machinery and the
    schedule explorer's failure accounting both treat it as a test failure.
    """


class RefinementViolation(InvariantViolation):
    """A transformed pipeline produced a sink stream its original cannot.

    Raised by :func:`repro.check.refine.check_refinement` when some
    explored schedule of the concrete pipeline yields a projected sink
    sequence that no witness schedule of the abstract pipeline reproduces
    (exactly for conserving channels, as a subsequence for declared-lossy
    ones).  The message names the channel, the first divergent sink index
    and — for lossy channels — the declared loss reasons.
    """


class ChannelClosed(RuntimeFault):
    """A push or pull was attempted on a terminated pipeline section."""


class MarshalError(RuntimeFault):
    """An item could not be encoded to, or decoded from, the wire format."""


class RemoteError(RuntimeFault):
    """A remote factory or binding operation failed."""


class NetworkBindingError(RemoteError):
    """A simulated network met a scheduler that is not its clock."""


class FeedbackError(RuntimeFault):
    """A feedback loop was mis-configured (unknown sensor/actuator, ...)."""


class DeployError(InfopipeError):
    """A deployment could not be planned or executed (illegal cut point,
    unbalanced placement, shard worker failure, ...)."""
