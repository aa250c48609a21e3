"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidValueError(ReproError, ValueError):
    """A quaternary value, pattern or label was malformed or out of range."""


class InvalidGateError(ReproError, ValueError):
    """A gate specification was inconsistent (e.g. control == target)."""


class InvalidCircuitError(ReproError, ValueError):
    """A cascade violates the paper's constraints.

    The typical cause is a gate whose control (or a Feynman gate whose
    data wire) would carry a non-binary value ``V0``/``V1`` for some pure
    binary circuit input -- a *non-reasonable* product in the paper's
    terminology (Definition 1).
    """


class InvalidPermutationError(ReproError, ValueError):
    """An image array or cycle list does not describe a permutation."""


class SynthesisError(ReproError):
    """Synthesis failed for a reason other than the cost bound."""


class CostBoundExceededError(SynthesisError):
    """The target function has no realization within the cost bound ``cb``.

    Mirrors the paper's ``flag = 0`` outcome of the MCE algorithm: the
    minimal cost of the target exceeds the enumerated bound, so the search
    is inconclusive rather than the function being unrealizable.
    """

    def __init__(self, target_description: str, cost_bound: int):
        self.cost_bound = cost_bound
        #: Human-readable description of the target (kept so transports
        #: -- e.g. the ``repro serve`` JSON protocol -- can rebuild an
        #: identical exception on the other side of the wire).
        self.target_description = target_description
        super().__init__(
            f"no realization of {target_description} found with quantum "
            f"cost <= {cost_bound}; raise the cost bound to search further"
        )


class SpecificationError(ReproError, ValueError):
    """A synthesis specification (truth table / output spec) is invalid."""


class StoreError(ReproError):
    """A persisted closure store is malformed, corrupted or truncated."""


class StoreVersionError(StoreError):
    """A closure store uses a format version this build cannot read.

    Newer-format stores (or doctored version fields) are refused rather
    than misparsed; `repro store migrate` upgrades v1 stores to the
    current memory-mappable v2 layout.
    """


class StoreMismatchError(StoreError):
    """A closure store was built for a different library or cost model.

    The store format records fingerprints of the gate library and cost
    model the closure was expanded under; loading against anything else
    would silently return wrong costs and witnesses, so it is refused.
    """


class StoreCorruptError(StoreError):
    """A closure store served a witness that fails certification.

    Raised before an answer leaves the process when a stored witness
    cascade does not compose to its row's stored permutation, or its
    row does not realize the requested target at the row's cost --
    corrupted parent, gate or index sections.  The server maps it to
    ``STORE_CORRUPT`` (HTTP 500), so a fleet router fails the request
    over instead of returning wrong bytes.
    """


class ServerError(ReproError):
    """The synthesis service failed outside of normal query semantics.

    Raised client-side for errors the ``repro serve`` protocol reports
    without a more specific :class:`ReproError` subclass (internal
    server faults, unreachable endpoints), and used as the base class
    for the protocol-level errors below.
    """


class ProtocolError(ServerError, ValueError):
    """A ``repro serve`` request or response violates the wire protocol.

    Covers malformed JSON lines, missing/unknown operations, invalid
    parameter shapes and unparseable HTTP framing.  The server maps this
    to a structured ``protocol`` error (HTTP 400) rather than dropping
    the connection, so a buggy client sees *why* it was refused.
    """


class FleetOverloadedError(ServerError):
    """The serving fleet shed this request instead of queueing it.

    Raised by the fleet router (:mod:`repro.fleet.router`) when every
    admitted replica is at its bounded in-flight limit: under overload
    the fleet's contract is to *shed* excess load with this structured
    error (wire code ``FLEET_OVERLOADED``, HTTP 503) rather than let
    requests pile up behind a saturated backend and hang.  Clients
    should back off and retry; results are never silently degraded.
    """


class FrozenSearchError(ReproError):
    """A mutating operation was attempted on a frozen search.

    :meth:`repro.core.search.CascadeSearch.freeze` pins a closure for
    concurrent read-only serving; expanding it further or changing its
    kernel options afterwards would race against in-flight queries, so
    those operations are refused explicitly.
    """


class SimulationError(ReproError):
    """A simulator was driven outside its supported state space."""


class NonBinaryControlError(SimulationError):
    """A control wire carried ``V0``/``V1`` during strict simulation.

    Strict simulators refuse to evaluate the paper's don't-care cases
    (which FMCF models as identity) because physically they are not
    identities; this error signals the cascade left the paper's
    binary-control regime.
    """
