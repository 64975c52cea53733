"""External worker: a process that drains the daemon's queue over the socket.

``python -m repro.service worker --connect <socket>`` runs this loop.  The
worker claims chunks and executes them through the same
:func:`~repro.runtime.executor.run_groups` core every executor uses:
consecutive grid points sharing a compiled plan
(repeat axes, initial-state grids) run as one vectorized evolution, and the
per-process compiled-program memo keeps a long-lived worker's compiles warm
across jobs.  Outcomes ship back for the daemon to cache.

Between batch groups the worker heartbeats: that renews its chunk lease and
learns about cancellation, so a cancelled job stops costing CPU within one
group.

Transient daemon trouble does not kill the fleet: every socket operation is
retried with jittered backoff inside a bounded ``reconnect_window`` (the
daemon may be restarting, or the machine briefly overloaded).  Only when
the window is exhausted does the worker conclude the daemon is gone and
exit 0 — at which point the daemon-side lease reaper re-queues whatever the
worker was holding, so no chunk is ever lost to a worker's exit.  The loop
also exits cleanly when the daemon says shutdown or after ``max_idle``
seconds without work — extra containers or machines can therefore point a
forwarded socket at one daemon and scale the fleet up and down freely.
"""

from __future__ import annotations

import logging
import os
import socket
import time

from repro.resilience import Deadline, RetryPolicy
from repro.runtime.executor import run_groups
from repro.service.protocol import (
    RemoteError,
    ServiceConnectionError,
    outcome_to_wire,
    request,
)
from repro.telemetry import span, trace_context

logger = logging.getLogger("repro.service.worker")

#: Default seconds of daemon unreachability a worker rides out before
#: concluding the daemon is gone and exiting (the lease reaper covers it).
DEFAULT_RECONNECT_WINDOW = 5.0

#: Consecutive daemon-side claim errors tolerated before giving up (code 1).
_MAX_CLAIM_ERRORS = 3


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique per process across a fleet of machines."""
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    socket_path,
    *,
    worker_id: "str | None" = None,
    poll_interval: float = 0.2,
    max_idle: "float | None" = None,
    max_chunks: "int | None" = None,
    reconnect_window: float = DEFAULT_RECONNECT_WINDOW,
) -> int:
    """Claim/execute/complete until shutdown; returns a process exit code.

    Parameters
    ----------
    socket_path:
        The daemon's Unix socket (possibly a forwarded one).
    worker_id:
        Stable identity reported to the daemon (default: hostname-pid).
    poll_interval:
        Seconds between claim attempts while the queue is empty.
    max_idle:
        Exit (code 0) after this many consecutive idle seconds; ``None``
        waits for work forever.
    max_chunks:
        Exit after completing this many chunks (test/benchmark hook).
    reconnect_window:
        Seconds of continuous daemon unreachability tolerated (with backoff
        retries) before the worker exits 0.  ``0`` restores fail-fast.
    """
    worker_id = worker_id or default_worker_id()
    from repro.telemetry.profiler import maybe_start_profiler

    maybe_start_profiler()  # REPRO_PROFILE-armed; one dict lookup when off
    retry = RetryPolicy(
        max_attempts=None,  # bounded by the reconnect deadline, not a count
        base_delay=0.05,
        max_delay=1.0,
        retryable=(ServiceConnectionError,),
    )

    def call(op: str, **fields):
        """One daemon op, retried inside a fresh reconnect window."""
        if reconnect_window <= 0:
            return request(socket_path, op, worker=worker_id, **fields)
        deadline = Deadline(reconnect_window)
        return retry.call(
            request,
            socket_path,
            op,
            worker=worker_id,
            deadline=deadline,
            what=f"worker op {op!r}",
            **fields,
        )

    idle_since: "float | None" = None
    completed = 0
    claim_errors = 0
    while True:
        try:
            claim = call("claim")
        except ServiceConnectionError:
            logger.info(
                "worker %s: daemon unreachable for %.3gs; exiting "
                "(lease reaper re-queues any held work)",
                worker_id, reconnect_window,
            )
            return 0  # daemon gone: a worker has nothing left to do
        except RemoteError as exc:
            claim_errors += 1
            if claim_errors >= _MAX_CLAIM_ERRORS:
                logger.error(
                    "worker %s: daemon rejected claim %d times (%s); giving up",
                    worker_id, claim_errors, exc,
                )
                return 1
            logger.warning(
                "worker %s: claim failed (%s); retrying", worker_id, exc
            )
            time.sleep(poll_interval)
            continue
        claim_errors = 0
        if claim.get("shutdown"):
            return 0
        if claim.get("idle"):
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            if max_idle is not None and now - idle_since >= max_idle:
                return 0
            time.sleep(poll_interval)
            continue
        idle_since = None
        payloads = claim["payloads"]
        outcomes = []
        abandoned = False
        # The claim carries the submitting client's span context, so this
        # worker's spans land in the client's trace even across machines.
        with trace_context(claim.get("trace")), span(
            "service.chunk", worker=worker_id, points=len(payloads)
        ):
            for _, batch in run_groups(payloads):
                outcomes.extend(outcome_to_wire(outcome) for outcome in batch)
                if len(outcomes) == len(payloads):
                    break
                # Renew the lease and learn about cancellation between groups.
                try:
                    beat = call("heartbeat", chunk_id=claim["chunk_id"])
                except ServiceConnectionError:
                    return 0
                except RemoteError:
                    # The daemon no longer recognizes this lease (it was
                    # reaped, or the daemon restarted): stop computing a
                    # chunk nobody will accept.
                    abandoned = True
                    break
                if beat.get("cancelled"):
                    abandoned = True
                    break
        if not abandoned:
            try:
                call(
                    "complete",
                    chunk_id=claim["chunk_id"],
                    outcomes=outcomes,
                )
            except ServiceConnectionError:
                return 0
            except RemoteError:
                # Stale lease: the reaper already re-queued the chunk; the
                # recomputation is idempotent, so just move on.
                logger.warning(
                    "worker %s: completion of chunk %s rejected (stale lease)",
                    worker_id, claim.get("chunk_id"),
                )
                continue
            completed += 1
            if max_chunks is not None and completed >= max_chunks:
                return 0
