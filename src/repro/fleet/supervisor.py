"""Closed-loop supervision: detect -> propose -> verify -> apply.

The :class:`Supervisor` keeps a fleet's replica set healthy without a
human in the loop, as four deliberately separated stages run every
*interval* seconds:

1. **Detect** -- evidence gathering only.  Each managed backend is
   probed off-loop (process liveness, a ``healthz`` round trip with a
   short timeout, a tail of its access log since the last cycle) and
   the evidence is condensed into at most one :class:`Finding` per
   backend: ``dead`` (process exited), ``unresponsive`` (healthz timed
   out -- a hang, not a crash), ``latency`` (p99 total latency of the
   freshly tailed access-log records over threshold), ``error-rate`` (server-fault outcomes in
   the same records), or ``recovered`` (an ejected backend answering
   healthily again).  Judging recency by the records appended since
   the last cycle means an ejected replica, which gets no traffic,
   carries no stale slow sample into its next assessment.
2. **Propose** -- a pure findings->actions map, no side effects:
   dead/unresponsive backends get ``restart`` (``eject`` if the
   supervisor cannot respawn them), degraded-but-alive backends get
   ``eject``, recovered backends get ``readmit``.
3. **Verify** -- guardrails (:class:`GuardRails`) veto proposals that
   would make things worse: a per-backend action **cooldown** (no
   flapping), a **restart budget** over a sliding window (a
   crash-looping binary must not be restarted forever), and a
   **minimum healthy count** (never eject a *healthy* replica below
   the floor; dead replicas hold no such protection).
4. **Apply** -- execute approved actions against the router
   (:meth:`~repro.fleet.router.RouterService.set_admitted`,
   :meth:`~repro.fleet.router.RouterService.reset_backend`) and the
   process manager (restart).  A restarted backend comes back
   **ejected** and must earn re-admission from a later cycle's healthy
   probe -- so the ops log always shows the full
   ``detect(dead) -> restart -> recovered -> readmit`` story as
   separate, timestamped decisions.

Every decision -- including vetoed ones -- is appended as one NDJSON
record to the **ops log**, making the control loop auditable after the
fact: chaos tests and the CI smoke assert on this file, not on logs
scraped from stderr.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import deque
from dataclasses import dataclass

from repro.client import ServeClient
from repro.errors import ReproError, ServerError
from repro.server.protocol import SERVER_FAULT_CODES
from repro.telemetry import MetricsRegistry, percentile

DEFAULT_INTERVAL = 0.5
DEFAULT_PROBE_TIMEOUT = 2.0
#: Seconds after a (re)spawn during which latency/hang
#: findings are suppressed -- a cold store open is not a regression.
DEFAULT_GRACE = 10.0
DEFAULT_LATENCY_THRESHOLD_MS = 2000.0
#: Server-fault outcomes tailed from one cycle's access-log delta that
#: count as an ``error-rate`` finding.
DEFAULT_FAULT_RATE = 5

#: The query ops whose access-log latencies the detector inspects
#: (``healthz`` itself is probe noise, not workload).
_QUERY_OPS = ("synth", "synth-batch", "cost-table", "store-info")


def _worst(per_op: dict[str, list[float]], q: float) -> float | None:
    """The highest per-op *q* percentile over raw samples, if any."""
    return max(
        (percentile(samples, q) for samples in per_op.values()),
        default=None,
    )


@dataclass(frozen=True)
class GuardRails:
    """The verifier's limits on automatic action.

    ``min_healthy`` is a floor on *healthy admitted* replicas: an
    eject/restart that would drop below it is vetoed unless the target
    itself is already unhealthy (a dead replica protects nothing).
    ``restart_budget`` restarts per ``restart_window_s`` sliding window
    bound crash-loop churn, and ``cooldown_s`` spaces any two actions
    on the same backend.
    """

    min_healthy: int = 1
    restart_budget: int = 3
    restart_window_s: float = 60.0
    cooldown_s: float = 2.0


@dataclass(frozen=True)
class Finding:
    """One detected condition on one backend (evidence, no judgment)."""

    backend: str
    kind: str  # dead | unresponsive | latency | error-rate | recovered
    detail: str


@dataclass(frozen=True)
class Proposal:
    """One proposed action for one backend."""

    backend: str
    action: str  # restart | eject | readmit
    reason: str


class _Probe:
    """Raw evidence one detector pass gathered about one backend."""

    __slots__ = ("alive", "exit_code", "health", "error", "fault_outcomes",
                 "latency_ms")

    def __init__(self):
        self.alive = False
        self.exit_code: int | None = None
        self.health: dict | None = None
        self.error: str | None = None
        self.fault_outcomes = 0
        #: Per query op, the ``total_ms`` of every access-log record
        #: appended since the last cycle.
        self.latency_ms: dict[str, list[float]] = {}


class Supervisor:
    """Runs the detect/propose/verify/apply loop over one fleet.

    Args:
        router: the :class:`~repro.fleet.router.RouterService` whose
            admission set the applier controls.
        manager: the process manager; needs a ``backends`` mapping of
            name -> managed backend (``endpoint``, ``access_log``,
            ``spawned_at``, ``restart_times``, ``supervised``,
            ``alive()``, ``exit_code()``) and a blocking
            ``restart(name)``.  :class:`repro.fleet.manager.FleetManager`
            provides exactly this; tests substitute fakes.
        ops_log: path for the NDJSON decision log (None: in-memory only).
        guardrails / interval / probe_timeout / grace: see above.
        latency_threshold_ms: p99 total latency (any query op, over the
            access-log records since the last cycle) beyond which a
            backend counts as regressed.
        fault_rate: access-log server-fault outcomes per cycle that
            trigger an ``error-rate`` finding.
        registry: a :class:`~repro.telemetry.MetricsRegistry` to tally
            findings/actions on (``run_fleet`` passes the router's, so
            the fleet's ``/metrics`` carries the supervisor's story
            too); ``None`` keeps a private one.
    """

    def __init__(
        self,
        router,
        manager,
        ops_log: str | None = None,
        guardrails: GuardRails | None = None,
        interval: float = DEFAULT_INTERVAL,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
        grace: float = DEFAULT_GRACE,
        latency_threshold_ms: float = DEFAULT_LATENCY_THRESHOLD_MS,
        fault_rate: int = DEFAULT_FAULT_RATE,
        registry: MetricsRegistry | None = None,
    ):
        self._router = router
        self._manager = manager
        self._ops_log_path = ops_log
        self._ops_log = None
        reg = registry if registry is not None else MetricsRegistry()
        self._m_cycles = reg.counter(
            "repro_supervisor_cycles_total",
            "Completed detect/propose/verify/apply passes.",
        )
        self._m_findings = reg.counter(
            "repro_supervisor_findings_total",
            "Detector findings, by kind.",
            labels=("kind",),
        )
        self._m_actions = reg.counter(
            "repro_supervisor_actions_total",
            "Proposed actions, by action and verdict.",
            labels=("action", "verdict"),
        )
        self.guardrails = guardrails or GuardRails()
        self._interval = interval
        self._probe_timeout = probe_timeout
        self._grace = grace
        self._latency_threshold_ms = latency_threshold_ms
        self._fault_rate = fault_rate
        self._cycle = 0
        self._last_action: dict[str, float] = {}
        self._log_offsets: dict[str, int] = {}
        self._healthy_now: set[str] = set()
        self._task: asyncio.Task | None = None
        #: Recent decision records, newest last (``fleet status`` view).
        self.decisions: deque = deque(maxlen=256)

    @property
    def cycle(self) -> int:
        return self._cycle

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        if self._task is not None:
            return
        if self._ops_log_path is not None and self._ops_log is None:
            self._ops_log = open(self._ops_log_path, "a", encoding="utf-8")
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-fleet-supervisor"
        )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        if self._ops_log is not None:
            with contextlib.suppress(OSError):
                self._ops_log.close()
            self._ops_log = None

    async def _run(self) -> None:
        while True:
            try:
                await self.run_cycle()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 -- loop must survive
                self._record({
                    "ts": round(time.time(), 6),
                    "cycle": self._cycle,
                    "backend": None,
                    "finding": "supervisor-error",
                    "detail": f"{type(exc).__name__}: {exc}",
                    "action": None,
                    "verdict": None,
                    "applied": False,
                })
            await asyncio.sleep(self._interval)

    # -- the four stages ---------------------------------------------------------------

    async def run_cycle(self) -> list[dict]:
        """One full detect -> propose -> verify -> apply pass."""
        self._cycle += 1
        self._m_cycles.inc()
        findings = await self._detect()
        records: list[dict] = []
        for finding in findings:
            self._m_findings.inc(kind=finding.kind)
            proposal = self._propose(finding)
            if proposal is None:
                continue
            verdict, reason = self._verify(proposal)
            applied = False
            detail = finding.detail
            if verdict == "approved":
                try:
                    await self._apply(proposal)
                    applied = True
                except (ReproError, OSError) as exc:
                    verdict = "failed"
                    reason = f"{type(exc).__name__}: {exc}"
            self._m_actions.inc(action=proposal.action, verdict=verdict)
            record = {
                "ts": round(time.time(), 6),
                "cycle": self._cycle,
                "backend": finding.backend,
                "finding": finding.kind,
                "detail": detail,
                "action": proposal.action,
                "verdict": verdict,
                "reason": reason,
                "applied": applied,
            }
            self._record(record)
            records.append(record)
        return records

    async def _detect(self) -> list[Finding]:
        loop = asyncio.get_running_loop()
        managed = dict(self._manager.backends)
        probes = await asyncio.gather(*[
            loop.run_in_executor(None, self._probe_backend, backend)
            for backend in managed.values()
        ])
        now = time.monotonic()
        findings: list[Finding] = []
        self._healthy_now = set()
        for backend, probe in zip(managed.values(), probes):
            admitted = self._is_admitted(backend.name)
            if probe.health is not None:
                # Surface the replica's reported build version on the
                # router's backend view, so `fleet status` can flag
                # version skew across a partially rolled fleet.
                version = probe.health.get("version")
                if isinstance(version, str):
                    with contextlib.suppress(ReproError):
                        self._router.backend(backend.name).version = version
                if admitted:
                    self._healthy_now.add(backend.name)
            finding = self._assess(backend, probe, admitted, now)
            if finding is not None:
                findings.append(finding)
        return findings

    def _probe_backend(self, backend) -> _Probe:
        """Gather evidence about one backend (worker thread; blocking)."""
        probe = _Probe()
        probe.alive = backend.alive()
        if not probe.alive:
            probe.exit_code = backend.exit_code()
            return probe
        try:
            with ServeClient(
                backend.endpoint, timeout=self._probe_timeout
            ) as client:
                probe.health = client.healthz()
        except (OSError, ReproError) as exc:
            probe.error = str(exc) or type(exc).__name__
        self._tail_log(backend, probe)
        return probe

    def _tail_log(self, backend, probe: _Probe) -> None:
        """Fold the access-log records appended this cycle into *probe*:
        server-fault outcomes, and query-op latency samples."""
        path = getattr(backend, "access_log", None)
        if path is None:
            return
        offset = self._log_offsets.get(backend.name, 0)
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
                self._log_offsets[backend.name] = handle.tell()
        except OSError:
            return
        for raw in data.splitlines():
            try:
                record = json.loads(raw)
            except ValueError:
                continue  # torn final line; next cycle re-reads nothing
            if not isinstance(record, dict):
                continue
            if record.get("outcome") in SERVER_FAULT_CODES:
                probe.fault_outcomes += 1
            op = record.get("op")
            if op not in _QUERY_OPS:
                continue
            value = record.get("total_ms")
            if isinstance(value, (int, float)):
                probe.latency_ms.setdefault(op, []).append(float(value))

    def _assess(
        self, backend, probe: _Probe, admitted: bool, now: float
    ) -> Finding | None:
        """Condense one probe into at most one finding, worst first."""
        in_grace = now - backend.spawned_at < self._grace
        if not probe.alive:
            return Finding(
                backend.name, "dead",
                f"process exited with code {probe.exit_code}",
            )
        if probe.health is None:
            if in_grace:
                return None  # still opening its stores
            return Finding(
                backend.name, "unresponsive",
                f"healthz probe failed: {probe.error}",
            )
        if not admitted:
            return Finding(
                backend.name, "recovered", "healthz ok while ejected"
            )
        if not in_grace:
            latency = _worst(probe.latency_ms, 0.99)
            if latency is not None and latency >= self._latency_threshold_ms:
                return Finding(
                    backend.name, "latency",
                    f"p99 latency {latency:.1f}ms since the last cycle "
                    f">= {self._latency_threshold_ms:.1f}ms",
                )
            if probe.fault_outcomes >= self._fault_rate:
                return Finding(
                    backend.name, "error-rate",
                    f"{probe.fault_outcomes} server-fault outcomes in "
                    "the access log since the last cycle",
                )
        return None

    def _propose(self, finding: Finding) -> Proposal | None:
        if finding.kind in ("dead", "unresponsive"):
            backend = self._manager.backends.get(finding.backend)
            supervised = backend is not None and backend.supervised
            action = "restart" if supervised else "eject"
            if action == "eject" and not self._is_admitted(finding.backend):
                return None  # already out, nothing left to do
            return Proposal(finding.backend, action, finding.detail)
        if finding.kind in ("latency", "error-rate"):
            if not self._is_admitted(finding.backend):
                return None
            return Proposal(finding.backend, "eject", finding.detail)
        if finding.kind == "recovered":
            return Proposal(finding.backend, "readmit", finding.detail)
        return None

    def _verify(self, proposal: Proposal) -> tuple[str, str]:
        """Guardrail check: ``("approved", "")`` or ``("rejected", why)``."""
        rails = self.guardrails
        now = time.monotonic()
        last = self._last_action.get(proposal.backend)
        if last is not None and now - last < rails.cooldown_s:
            return "rejected", (
                f"cooldown: acted on this backend {now - last:.2f}s ago "
                f"(< {rails.cooldown_s}s)"
            )
        if proposal.action == "restart":
            backend = self._manager.backends.get(proposal.backend)
            recent = [
                ts for ts in (backend.restart_times if backend else [])
                if now - ts < rails.restart_window_s
            ]
            if len(recent) >= rails.restart_budget:
                return "rejected", (
                    f"restart-budget: {len(recent)} restarts in the last "
                    f"{rails.restart_window_s:.0f}s (budget "
                    f"{rails.restart_budget})"
                )
        if proposal.action in ("restart", "eject"):
            # Taking down a HEALTHY replica must honor the floor; an
            # unhealthy one is already lost to the fleet.
            if proposal.backend in self._healthy_now:
                remaining = len(self._healthy_now - {proposal.backend})
                if remaining < rails.min_healthy:
                    return "rejected", (
                        f"min-healthy: only {remaining} healthy replicas "
                        f"would remain (floor {rails.min_healthy})"
                    )
        return "approved", ""

    async def _apply(self, proposal: Proposal) -> None:
        name = proposal.backend
        if proposal.action == "eject":
            self._router.set_admitted(name, False)
        elif proposal.action == "readmit":
            self._router.reset_backend(name)
            self._router.set_admitted(name, True)
        elif proposal.action == "restart":
            # Ejected first so no request races the corpse; stays
            # ejected until a later cycle observes a healthy probe and
            # readmits -- the ops log keeps the stages distinct.
            self._router.set_admitted(name, False)
            self._log_offsets.pop(name, None)  # fresh process, fresh log
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._manager.restart, name)
        else:
            raise ServerError(f"unknown proposal action {proposal.action!r}")
        self._last_action[name] = time.monotonic()

    # -- recording ---------------------------------------------------------------------

    def _is_admitted(self, name: str) -> bool:
        try:
            return self._router.backend(name).admitted
        except ReproError:
            return False

    def _record(self, record: dict) -> None:
        self.decisions.append(record)
        if self._ops_log is not None:
            with contextlib.suppress(OSError, ValueError):
                self._ops_log.write(
                    json.dumps(record, separators=(",", ":")) + "\n"
                )
                self._ops_log.flush()

    def describe(self) -> dict:
        """Status payload for ``repro fleet status``."""
        return {
            "cycle": self._cycle,
            "interval_s": self._interval,
            "guardrails": {
                "min_healthy": self.guardrails.min_healthy,
                "restart_budget": self.guardrails.restart_budget,
                "restart_window_s": self.guardrails.restart_window_s,
                "cooldown_s": self.guardrails.cooldown_s,
            },
            "decisions": list(self.decisions)[-20:],
        }
