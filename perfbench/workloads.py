"""The benchmark's two closed-loop workloads.

Each workload has one caller that issues its next request only after the
previous one returned.  ``start()`` builds what a user builds before the
first request (this is what ``setup_s`` times, in a fresh process);
``round()`` runs one unit of the loop, a cold pass followed by its warm
replays, and returns the timings; ``check()`` recomputes every cold point
through raw ``repro.compile(c, s).run(...)`` and compares bit for bit.

The inputs are the Jordan-Wigner Fermi-Hubbard chain at order 2; the
seeded generator draws every problem time, initial state and sampling root
seed, so the library receives only generated inputs.  Nothing here imports
``repro`` at module level, so a setup probe pays for that import inside its
timed window.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

TUNNELING = 1.0
INTERACTION = 4.0
ORDER = 2
STRATEGIES = ("direct", "pauli")


def hubbard_problem(sites: int, time_: float = 0.5):
    import repro
    from repro.applications.chemistry import fermi_hubbard_chain, jordan_wigner_scb

    hamiltonian = jordan_wigner_scb(fermi_hubbard_chain(sites, TUNNELING, INTERACTION))
    return repro.SimulationProblem(hamiltonian, time_, order=ORDER)


def digest(value) -> str:
    """A bit-exact fingerprint of a kernel state or sampling result."""
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):
        array = np.ascontiguousarray(data)
        head = f"{array.dtype.str}{array.shape}".encode()
        return hashlib.sha256(head + array.tobytes()).hexdigest()
    counts = getattr(value, "counts", None)
    if counts is not None:
        return json.dumps([value.shots, sorted(counts.items())])
    raise TypeError(f"no digest for a {type(value).__name__}")


@dataclass
class Expect:
    """One cold point to recompute: its inputs and the digest served."""

    problem: object
    strategy: str
    backend: str
    run_kwargs: dict
    digest: "str | None" = None  # None: the point failed


@dataclass
class Round:
    """Timings and bookkeeping of one round of a workload's loop."""

    cold_points: int = 0
    cold_s: float = 0.0
    #: Points served and seconds spent over all warm replays.
    warm_points: int = 0
    warm_s: float = 0.0
    #: ``(latency seconds, points)`` of each cold job (one per round).
    jobs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    expects: list = field(default_factory=list)
    #: Worker-side per-phase seconds and wall time of the cold points.
    phases: dict = field(default_factory=dict)
    busy_s: float = 0.0
    #: In-process registry counter deltas over the timed requests.
    counters: dict = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        """Seconds spent in timed requests (the cold pass and every replay)."""
        return self.cold_s + self.warm_s


#: Registry counters whose deltas the traced run reports.
COUNTERS = (
    "batch.points_fused",
    "batch.points_total",
    "compile.memo_hits",
    "compile.memo_misses",
)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if running, and reap it.

    Left alone, the tracker ends only after this process has exited, as
    an orphan nobody waits for.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:  # started by this process, not inherited
        tracker._stop()


def add_into(target: dict, source: dict) -> None:
    """Add ``source``'s numbers into ``target`` key by key."""
    for key, value in source.items():
        target[key] = target.get(key, 0.0) + value


def _counters() -> dict:
    from repro.telemetry import metrics

    return {name: metrics.counter(name) for name in COUNTERS}


class _Workload:
    """Shared machinery: the round's request spans and their bookkeeping."""

    name = ""
    #: Warm replays of every cold pass.
    warm_replays = 3
    n_workers = 1
    #: Results computed outside this process (their encode is in timings).
    remote_encode = False

    def __init__(self, workdir: Path, seed: int, small: bool = False):
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed)
        self.small = small
        self.problem = None

    def prepare(self) -> None:
        """Build the input Hamiltonian (the benchmark's own input generation)."""
        self.problem = hubbard_problem(self.sites)

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _time_requests(tracer, kind: str, requests) -> tuple[float, list, dict]:
        """Run ``requests`` (thunks) back to back under one request span.

        Returns the elapsed seconds, the results and the registry counter
        deltas over the requests.
        """
        before = _counters()
        span = tracer.open(f"request.{kind}")
        start = time.perf_counter()
        results = [request() for request in requests]
        elapsed = time.perf_counter() - start
        tracer.close(span)
        return elapsed, results, {k: v - before[k] for k, v in _counters().items()}

    @staticmethod
    def _cold(out: Round, points) -> list:
        """Book the cold points ``(value | None, timings, wall, Expect)``.

        Returns their digests (``None`` for a failed point).
        """
        digests = []
        for value, timings, wall, expect in points:
            expect.digest = None if value is None else digest(value)
            out.cold_points += 1
            out.attempted += 1
            if expect.digest is None:
                out.failed += 1
            else:
                add_into(out.phases, timings)
                out.busy_s += wall
            out.expects.append(expect)
            digests.append(expect.digest)
        return digests

    def _replays(self, tracer, out: Round, calls, served, digests) -> None:
        """Replay ``calls`` warm; every replay must serve ``digests`` again.

        ``served(results)`` lists the digests a replay returned (``None``
        for a point not served from the cache).
        """
        for _ in range(self.warm_replays):
            seconds, results, _ = self._time_requests(tracer, "warm", calls)
            out.warm_s += seconds
            out.warm_points += len(digests)
            with tracer.paused():
                got = served(results)
                out.attempted += len(digests)
                out.failed += sum(
                    1
                    for index, want in enumerate(digests)
                    if want is None or index >= len(got) or got[index] != want
                )

    def _records_round(self, tracer, sweeps) -> Round:
        """Cold pass then warm replays of ``Session.sweep`` calls."""
        out = Round()
        calls = [lambda axes=axes: self.session.sweep(**axes) for axes in sweeps]
        out.cold_s, cold, out.counters = self._time_requests(tracer, "cold", calls)
        records = [record for result in cold for record in result]
        out.jobs.append((out.cold_s, len(records)))
        with tracer.paused():
            digests = self._cold(
                out,
                (
                    (
                        record.value if record.ok and not record.cached else None,
                        record.timings,
                        record.wall_time,
                        Expect(record.spec.problem, record.spec.strategy,
                               record.spec.backend, dict(record.spec.run_kwargs)),
                    )
                    for record in records
                ),
            )
        del cold, records

        def served(results):
            return [
                digest(record.value) if record.ok and record.cached else None
                for result in results
                for record in result
            ]

        self._replays(tracer, out, calls, served, digests)
        with tracer.paused():
            # Drop the round's entries once replayed, outside the timed
            # requests: every round starts from an empty cache, disk use
            # stays bounded, and files this young are not yet written back,
            # so removing them does not wait on the disk.  (Removing a whole
            # run's entries at the end took up to ~50 s on a disk mounted
            # with online discard.)
            self.session.cache.clear()
        return out


def check(expects) -> tuple[int, int, float]:
    """Recompute ``expects`` through raw ``repro.compile(c, s).run(...)``.

    ``c`` is the canonical problem the runtime compiles.  Returns
    ``(checked, mismatched, seconds spent in compile and run)``.
    """
    import repro
    from repro.compile.problem import SimulationProblem

    mismatched = checked = 0
    seconds = 0.0
    program_key = program = None
    for item in expects:
        if item.digest is None:
            continue  # a failed point, already counted by its round
        checked += 1
        problem = item.problem
        key = (item.strategy, problem.num_qubits, problem.time, problem.steps, problem.order)
        start = time.perf_counter()
        if key != program_key:
            canonical = SimulationProblem.from_dict(problem.to_dict(canonical=True))
            program_key, program = key, repro.compile(canonical, item.strategy)
        value = program.run(backend=item.backend, **item.run_kwargs)
        seconds += time.perf_counter() - start
        if digest(value) != item.digest:
            mismatched += 1
    return checked, mismatched, seconds


def check_parallel(expects, workers: int) -> tuple[int, int, float]:
    """:func:`check` over contiguous slices in ``workers`` fresh processes.

    Slices keep neighbouring points (which share a compiled program)
    together.  The reported seconds are summed over the workers.
    """
    import concurrent.futures
    import multiprocessing

    expects = list(expects)
    size = -(-len(expects) // (4 * workers)) or 1
    slices = [expects[i : i + size] for i in range(0, len(expects), size)]
    if workers <= 1 or len(slices) <= 1:
        return check(expects)
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        parts = list(pool.map(check, slices))
    return tuple(sum(part[i] for part in parts) for i in range(3))


class SessionSweep(_Workload):
    """Serial ``Session`` with an on-disk cache over the 10-qubit chain."""

    name = "session-sweep"
    sites = 5

    @property
    def sizes(self):
        # (kernel times per sweep, sampling repeats, shots)
        return (2, 2, 64) if self.small else (16, 16, 1024)

    def start(self) -> None:
        from repro.runtime import Session

        self.session = Session(cache=self.workdir / "cache")

    def round(self, tracer) -> Round:
        n_times, repeats, shots = self.sizes
        dim = 1 << self.problem.num_qubits
        times = tuple(float(t) for t in self.rng.uniform(0.05, 1.0, n_times))
        sample_time = float(self.rng.uniform(0.05, 1.0))
        kernel = {
            "problem": self.problem,
            "strategies": STRATEGIES,
            "times": times,
            "backend": "kernel",
            "run_kwargs": {"initial_state": int(self.rng.integers(dim))},
        }
        sampling = {
            "problem": replace(self.problem, time=sample_time),
            "strategies": STRATEGIES,
            "backend": "sampling",
            "repeats": repeats,
            "seed": int(self.rng.integers(2**31)),
            "run_kwargs": {"shots": shots, "initial_state": int(self.rng.integers(dim))},
        }
        return self._records_round(tracer, [kernel, sampling])


class PoolLargeState(_Workload):
    """``Session(executor=2)`` with an on-disk cache over the 18-qubit chain."""

    name = "pool-large-state"
    n_workers = 2
    remote_encode = True

    @property
    def sites(self):
        return 5 if self.small else 9

    @property
    def steps(self):
        return (1, 2) if self.small else (1, 2, 3, 4)

    def start(self) -> None:
        from repro.runtime import Session

        self.session = Session(cache=self.workdir / "cache", executor=self.n_workers)

    def round(self, tracer) -> Round:
        sweep = {
            "problem": replace(self.problem, time=float(self.rng.uniform(0.05, 1.0))),
            "strategies": STRATEGIES,
            "steps": self.steps,
            "backend": "kernel",
            "run_kwargs": {
                "initial_state": int(self.rng.integers(1 << self.problem.num_qubits))
            },
        }
        return self._records_round(tracer, [sweep])


WORKLOADS = {cls.name: cls for cls in (SessionSweep, PoolLargeState)}
