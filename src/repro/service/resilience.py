"""Resilience primitives for the planning service.

Two small, independently testable machines that
:class:`~repro.service.app.PlanningService` threads through its request
path, each with an injectable clock so tests drive the state machines
deterministically:

* :class:`AdmissionController` — **admission control**.  Work that
  would reach the compute tier is charged against a bounded per-class
  in-flight budget; anything over budget is *shed* with a :class:`Shed`
  exception the HTTP layer renders as ``429`` + ``Retry-After``.  The
  process pool queues submissions without bound, so this budget is the
  only limit on queued compute.  Cache hits and coalesced riders are
  never charged — the service sheds *work*, not lookups.

* :class:`CircuitBreaker` — supervised recovery around the worker
  pool.  A broken process pool trips the breaker ``closed → open``;
  requests degrade to threads while it is open; after an
  exponentially-growing backoff one request probes the resurrected
  pool (``half-open``), and a successful probe closes the breaker —
  transient worker crashes no longer degrade the service for its whole
  lifetime.  The state machine is visible in ``/healthz`` and
  ``/stats`` (``degraded_since``, ``recovery_attempts``, …).

Deadline extraction (``deadline_ms``) lives with the rest of request
validation in :func:`repro.service.requests.pop_deadline`; the fault
injection that exercises all of these paths is
:mod:`repro.faultinject`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


class Shed(Exception):
    """A request refused by admission control (rendered as HTTP 429)."""

    def __init__(self, reason: str, retry_after_s: float):
        super().__init__(reason)
        self.reason = reason
        #: Client guidance: seconds until capacity is plausible again.
        self.retry_after_s = retry_after_s


#: Compute-tier leaders each request class may have in flight at once.
MAX_INFLIGHT = 64


class AdmissionController:
    """Bounded in-flight budget per request class.

    A *class* is the endpoint path (``/v1/plan``, ``/v1/sweep``, …);
    each class may have at most ``max_inflight`` leaders in the compute
    tier at once.  :meth:`admit` raises :class:`Shed` instead of
    returning so call sites cannot forget to check; every successful
    admit must be paired with :meth:`release`.
    """

    def __init__(self, max_inflight: int = MAX_INFLIGHT, clock=time.monotonic):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        self._clock = clock
        self._inflight: dict[str, int] = {}
        #: Admission timestamps per class (oldest first) so releases can
        #: measure how long one unit of compute-tier work actually held
        #: its slot — the basis of the in-flight ``Retry-After``.
        self._admitted_at: dict[str, list[float]] = {}
        #: EWMA of observed work durations across all classes (seconds);
        #: ``None`` until the first release.
        self.work_ewma_s: float | None = None
        self.admitted = 0
        self.shed_by_class: dict[str, int] = {}

    def retry_after_s(self) -> float:
        """Expected seconds until an in-flight slot frees.

        With ``max_inflight`` leaders in flight whose durations average
        ``work_ewma_s`` and whose phases are spread out, the next slot
        frees in roughly ``work_ewma_s / max_inflight`` — the number
        the HTTP layer renders as ``Retry-After`` (``max(1, ceil(.))``)
        when the in-flight budget sheds.  Before any work has completed
        there is nothing to derive from, so fall back to one second.
        """
        if self.work_ewma_s is None:
            return 1.0
        return max(0.05, self.work_ewma_s / self.max_inflight)

    def admit(self, klass: str) -> None:
        """Charge one unit of compute-tier work, or raise :class:`Shed`."""
        inflight = self._inflight.get(klass, 0)
        if inflight >= self.max_inflight:
            self.shed_by_class[klass] = self.shed_by_class.get(klass, 0) + 1
            raise Shed(
                f"{klass} is at its in-flight budget "
                f"({inflight}/{self.max_inflight}); shedding",
                retry_after_s=self.retry_after_s(),
            )
        self._inflight[klass] = inflight + 1
        self._admitted_at.setdefault(klass, []).append(self._clock())
        self.admitted += 1

    def release(self, klass: str) -> None:
        """Return one unit of ``klass`` budget (pairs with :meth:`admit`)."""
        remaining = self._inflight.get(klass, 0) - 1
        if remaining > 0:
            self._inflight[klass] = remaining
        else:
            self._inflight.pop(klass, None)
        starts = self._admitted_at.get(klass)
        if starts:
            # Oldest-start pairing is an approximation when leaders of
            # one class overlap, but the EWMA only feeds Retry-After
            # guidance, where the scale matters, not the exact pairing.
            duration = max(0.0, self._clock() - starts.pop(0))
            if not starts:
                self._admitted_at.pop(klass, None)
            self.work_ewma_s = (
                duration
                if self.work_ewma_s is None
                else 0.3 * duration + 0.7 * self.work_ewma_s
            )

    def snapshot(self) -> dict:
        """Counter snapshot for the ``/stats`` endpoint."""
        return {
            "max_inflight": self.max_inflight,
            "work_ewma_s": self.work_ewma_s,
            "retry_after_s": self.retry_after_s(),
            "inflight": dict(sorted(self._inflight.items())),
            "admitted": self.admitted,
            "shed_by_class": dict(sorted(self.shed_by_class.items())),
        }


@dataclass
class _BreakerCounters:
    """The observable history of one breaker (exported on ``/stats``)."""

    trips: int = 0
    recoveries: int = 0
    recovery_attempts: int = 0
    last_failure: str | None = None
    degraded_since: float | None = field(default=None)


class CircuitBreaker:
    """Closed → open → half-open breaker with exponential backoff.

    * ``closed`` — the protected resource (the process pool) is
      healthy; :meth:`allow` returns ``True``.
    * ``open`` — a failure tripped the breaker; :meth:`allow` returns
      ``False`` until the current backoff expires, then transitions to
      ``half-open`` (counting a *recovery attempt*) and lets one
      request probe.
    * ``half-open`` — a probe is in flight.  :meth:`record_success`
      closes the breaker (a *recovery*); :meth:`record_failure`
      re-opens it with a doubled backoff (capped).

    The service keeps serving throughout — open/half-open requests that
    are not probes run on the thread fallback — so the breaker governs
    *where* work runs, never *whether* it runs.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        backoff_s: float = 0.5,
        max_backoff_s: float = 30.0,
        clock=time.monotonic,
    ):
        if backoff_s <= 0:
            raise ValueError(f"backoff_s must be > 0, got {backoff_s}")
        self.state = self.CLOSED
        self.base_backoff_s = backoff_s
        self.max_backoff_s = max(backoff_s, max_backoff_s)
        self._clock = clock
        self._backoff_s = backoff_s
        self._retry_at: float | None = None
        self.counters = _BreakerCounters()

    def allow(self) -> bool:
        """Whether the protected resource may be used right now.

        In ``open`` state this is also the transition edge: once the
        backoff has expired the breaker moves to ``half-open`` and the
        caller becomes the probe.
        """
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._retry_at is not None and self._clock() >= self._retry_at:
                self.state = self.HALF_OPEN
                self.counters.recovery_attempts += 1
                return True
            return False
        return True  # half-open: the probe (and any riders) proceed

    def record_failure(self, reason: str) -> None:
        """The protected resource failed: trip (or re-open) the breaker."""
        tripped_from_closed = self.state == self.CLOSED
        self.counters.last_failure = reason
        if tripped_from_closed:
            self.counters.trips += 1
        if self.counters.degraded_since is None:
            self.counters.degraded_since = self._clock()
        self.state = self.OPEN
        self._retry_at = self._clock() + self._backoff_s
        # Double *after* scheduling: first retry waits the base backoff,
        # each failed probe doubles the next wait, capped.
        self._backoff_s = min(self._backoff_s * 2.0, self.max_backoff_s)

    def record_success(self) -> None:
        """The protected resource worked: close the breaker (if open)."""
        if self.state == self.CLOSED:
            return
        if self.state == self.HALF_OPEN:
            self.counters.recoveries += 1
        self.state = self.CLOSED
        self.counters.degraded_since = None
        self._backoff_s = self.base_backoff_s
        self._retry_at = None

    def snapshot(self) -> dict:
        """State + counters for ``/healthz`` and ``/stats``.

        ``degraded_since`` is reported as *seconds spent degraded so
        far* (``null`` when healthy) so operators can tell a transient
        blip from a permanently broken pool at a glance;
        ``retry_in_s`` is how long until the next resurrection probe.
        """
        now = self._clock()
        degraded_for = (
            None
            if self.counters.degraded_since is None
            else max(0.0, now - self.counters.degraded_since)
        )
        retry_in = (
            None
            if self.state != self.OPEN or self._retry_at is None
            else max(0.0, self._retry_at - now)
        )
        return {
            "state": self.state,
            "trips": self.counters.trips,
            "recoveries": self.counters.recoveries,
            "recovery_attempts": self.counters.recovery_attempts,
            "degraded_since": degraded_for,
            "retry_in_s": retry_in,
            "backoff_s": self._backoff_s,
            "last_failure": self.counters.last_failure,
        }
