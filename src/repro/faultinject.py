"""Deterministic fault injection for the serving stack.

The resilience machinery of :mod:`repro.service` — deadlines, admission
control, the worker-pool circuit breaker, the crash-safe plan cache —
is only trustworthy if its failure paths actually run.  This module is
the correctness engine for all of them: a small set of *named fault
sites* threaded through the real code (cache writes, pool submissions,
response writes) that fire **deterministically** from a seeded
counter-based stream, so a chaos run with a fixed spec produces the
same fault schedule every time and tests can assert exact behaviour.

Fault sites (each a no-op unless a spec arms it):

* ``kill-pool-worker`` — the service deliberately crashes one process
  pool worker before scheduling work (trips the circuit breaker);
* ``slow-worker`` — the service delays a computation by ``delay_ms``
  (exercises deadlines and 504s);
* ``corrupt-cache-entry`` — a just-written :class:`~repro.planner.cache.PlanCache`
  disk entry has payload bytes flipped (checksum verification catches
  it on read and quarantines);
* ``torn-cache-write`` — a cache write is truncated mid-payload, as if
  the process died between ``write`` and ``fsync`` (ditto);
* ``drop-connection-mid-response`` — the HTTP layer writes half a
  response and resets the connection (clients must retry).

Arming is either programmatic (:func:`install`) or via the
``REPRO_FAULTS`` environment variable, a ``;``-separated list of
``site:key=value,...`` clauses::

    REPRO_FAULTS='kill-pool-worker:rate=1,after=2,limit=1;slow-worker:rate=0.3,seed=5,delay_ms=150'

Per-site keys: ``rate`` (fire probability per eligible event, default
1), ``seed`` (stream seed, default 0), ``after`` (skip the first N
eligible events, default 0), ``limit`` (maximum fires, default
unlimited), ``delay_ms`` (``slow-worker`` only).  Decisions come from
the same SplitMix64 generator the scenario engine uses
(:mod:`repro.scenarios.perturb`), keyed on ``(seed, site, counter)`` —
no :mod:`random`, no global state beyond the per-site counters.

Everything here is import-cheap and dependency-free: the hot path when
no faults are armed is one ``None`` check.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

#: SplitMix64 constants (Steele, Lea & Flood 2014) — the same stream
#: family as repro.scenarios.perturb, re-stated here so fault injection
#: never imports the simulation stack.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

#: Every fault site the codebase defines.  Specs naming anything else
#: are rejected loudly — a typo'd site would otherwise silently never
#: fire and the chaos run would assert nothing.
KNOWN_SITES = (
    "kill-pool-worker",
    "slow-worker",
    "corrupt-cache-entry",
    "torn-cache-write",
    "drop-connection-mid-response",
)

#: Environment variable carrying the fault spec (inherited by pool
#: worker processes, so cache-write sites fire inside workers too).
ENV_VAR = "REPRO_FAULTS"


def _splitmix(seed: int, counter: int) -> float:
    """Uniform in [0, 1) for one (seed, counter) pair, 53-bit precision."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    z ^= z >> 31
    return (z >> 11) / float(1 << 53)


@dataclass(frozen=True)
class Fault:
    """One armed fault site: when and how often it fires."""

    site: str
    #: Fire probability per eligible event (1.0 = every event).
    rate: float = 1.0
    #: Stream seed; two specs differing only in seed fire on different
    #: (but individually reproducible) event subsets.
    seed: int = 0
    #: Skip the first ``after`` eligible events unconditionally.
    after: int = 0
    #: Maximum number of fires (``None`` = unlimited).
    limit: int | None = None
    #: Injected delay for ``slow-worker`` (ignored elsewhere).
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{KNOWN_SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.after < 0:
            raise ValueError(f"fault 'after' must be >= 0, got {self.after}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"fault 'limit' must be >= 1, got {self.limit}")
        if self.delay_ms < 0:
            raise ValueError(
                f"fault 'delay_ms' must be >= 0, got {self.delay_ms}"
            )


@dataclass
class _SiteState:
    """Mutable per-site counters (events seen, fires issued)."""

    fault: Fault
    events: int = 0
    fires: int = 0


class FaultInjector:
    """A set of armed faults with deterministic per-site streams.

    One injector is a pure function of its spec: the N-th eligible
    event at a site fires iff ``splitmix(seed ^ hash(site), N) < rate``
    (after the ``after`` skip, under the ``limit`` cap).  Counters are
    process-local — a pool worker inheriting ``REPRO_FAULTS`` runs its
    own streams.
    """

    def __init__(self, faults: tuple[Fault, ...] = ()):
        sites = [fault.site for fault in faults]
        if len(sites) != len(set(sites)):
            raise ValueError(f"duplicate fault sites in spec: {sites}")
        self._states = {fault.site: _SiteState(fault) for fault in faults}

    def __bool__(self) -> bool:
        return bool(self._states)

    def fault(self, site: str) -> Fault | None:
        """The armed fault at ``site``, or ``None``."""
        state = self._states.get(site)
        return None if state is None else state.fault

    def should_fire(self, site: str) -> bool:
        """Whether the current eligible event at ``site`` fires.

        Advances the site's event counter; disarmed sites always return
        ``False`` without any state.
        """
        state = self._states.get(site)
        if state is None:
            return False
        fault = state.fault
        index = state.events
        state.events += 1
        if index < fault.after:
            return False
        if fault.limit is not None and state.fires >= fault.limit:
            return False
        # Site name folded into the seed so two sites sharing a seed
        # still draw independent streams.  zlib.crc32 (not hash()) —
        # string hashing is salted per process, and worker processes
        # must draw the same streams as the parent.
        site_seed = fault.seed ^ zlib.crc32(site.encode("utf-8"))
        if _splitmix(site_seed, index) >= fault.rate:
            return False
        state.fires += 1
        return True

    def snapshot(self) -> dict[str, dict[str, int | float]]:
        """Per-site event/fire counters (for ``/stats`` and tests)."""
        return {
            site: {
                "rate": state.fault.rate,
                "events": state.events,
                "fires": state.fires,
            }
            for site, state in sorted(self._states.items())
        }


def parse_spec(spec: str) -> FaultInjector:
    """Parse a ``REPRO_FAULTS`` spec string into an injector.

    Format: ``site:key=value,key=value;site2:...`` — clauses separated
    by ``;``, per-site options by ``,``.  A bare ``site`` with no
    options arms it at rate 1.  Raises :class:`ValueError` on unknown
    sites, unknown keys or malformed values — always a one-line
    message naming the bad token and the valid sites, so a typo'd
    ``REPRO_FAULTS`` / ``serve --faults`` spec fails loudly at startup
    instead of silently arming nothing.
    """
    faults: list[Fault] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        site, _, options = clause.partition(":")
        site = site.strip()
        if site not in KNOWN_SITES:
            hint = (
                "; did you swap '=' for the ':' separating site from "
                "options?" if "=" in site else ""
            )
            raise ValueError(
                f"unknown fault site {site!r} in clause {clause!r}{hint}; "
                f"valid sites: {', '.join(KNOWN_SITES)}"
            )
        kwargs: dict[str, float | int | None] = {}
        for option in options.split(","):
            option = option.strip()
            if not option:
                continue
            key, sep, raw = option.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(
                    f"fault option {option!r} for site {site!r} is not "
                    "key=value"
                )
            try:
                if key in ("rate", "delay_ms"):
                    kwargs[key] = float(raw)
                elif key in ("seed", "after", "limit"):
                    kwargs[key] = int(raw)
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} for site {site!r}; "
                        "expected rate/seed/after/limit/delay_ms"
                    )
            except ValueError as error:
                if "unknown fault option" in str(error):
                    raise
                raise ValueError(
                    f"invalid value {raw!r} for fault option {key!r} "
                    f"(site {site!r})"
                ) from None
        faults.append(Fault(site=site, **kwargs))  # type: ignore[arg-type]
    return FaultInjector(tuple(faults))


#: The process-wide injector.  ``None`` means "not yet resolved from
#: the environment"; an empty FaultInjector means "resolved, disarmed".
_injector: FaultInjector | None = None


def get_injector() -> FaultInjector:
    """The active injector (lazily resolved from ``REPRO_FAULTS``)."""
    global _injector
    if _injector is None:
        spec = os.environ.get(ENV_VAR, "")
        _injector = parse_spec(spec) if spec else FaultInjector()
    return _injector


def install(spec: str | FaultInjector) -> FaultInjector:
    """Arm faults programmatically (tests, benchmarks); returns them."""
    global _injector
    _injector = parse_spec(spec) if isinstance(spec, str) else spec
    return _injector


def reset() -> None:
    """Disarm everything and forget the cached env resolution."""
    global _injector
    _injector = None


def should_fire(site: str) -> bool:
    """Module-level convenience: one eligible event at ``site``."""
    return get_injector().should_fire(site)


def corrupt_bytes(payload: bytes, seed: int = 0) -> bytes:
    """Deterministically flip one byte of ``payload`` (non-empty)."""
    if not payload:
        return payload
    index = int(_splitmix(seed, len(payload)) * len(payload))
    mutated = bytearray(payload)
    mutated[index] ^= 0xFF
    return bytes(mutated)


def _exit_now(code: int = 13) -> None:
    """Hard-kill the current process (the kill-pool-worker payload).

    Top-level so a :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it; ``os._exit`` skips atexit handlers exactly like an
    OOM kill or SIGKILL would.
    """
    os._exit(code)
