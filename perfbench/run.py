"""The repo benchmark: sweep throughput and job latency through the real user path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload session-sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, plus the seed, ``nproc`` and the Python and
numpy versions.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  The program is imported from ``src/`` of the checkout;
a directory without it is refused.

Workloads
---------
Both are closed loops: one caller issues its next request only after the
previous one returned.  Each runs in a fresh process with a fresh cache
directory under ``perfbench/work/``, removed at the end.  The inputs are the
Jordan-Wigner Fermi-Hubbard chain
``jordan_wigner_scb(fermi_hubbard_chain(sites, 1.0, 4.0))`` at order 2, and
``--seed`` draws every problem time, initial state and sampling root seed.
A round is one cold pass, replayed warm three times; its cache entries are
then removed, outside the timed requests, so every round starts from an
empty cache and a run's disk use stays bounded.

``session-sweep``
    A serial ``Session`` with an on-disk cache over the 10-qubit chain.  A
    round is a ``kernel`` Trotter grid (``("direct", "pauli")`` × 16 times,
    every point a distinct compile and plan) followed by a seeded
    ``sampling`` sweep (2 strategies × 16 repeats, 1024 shots).  Per-point
    compute is small, so the framework dominates: keying, cache put and get,
    the serial executor and the compile memo.  The sampling repeats are the
    batchable axis that the serial path does not batch today.
``pool-large-state``
    ``Session(executor=2)`` with an on-disk cache over the 18-qubit chain.
    A round is an 8-point ``kernel`` grid (2 strategies × steps 1..4), so
    each result is a 4 MiB state.  Evolve, process transport (shm or pipe),
    the pool start in every ``sweep`` call and cache bytes dominate; keying
    is negligible.  It uses the cache as a few large entries, where
    ``session-sweep`` uses many small ones.

There is no workload through ``repro.service``: every ``JobStore.save``
replaces the job file, and on an ext4 file system mounted with online
discard (the root of the 2-vCPU VM this benchmark was sized on) each such
rename waits ~60 ms for the old blocks to be discarded, a latency that
doubles or halves from one minute to the next.  Daemon jobs of 16 and 256
points spent ~90% and ~80% of their wall time waiting so, and the
run-to-run spread of their cold rate and job latency reached 0.49, twice
the largest bound allowed.

End-to-end metrics (``--trace 0``)
----------------------------------
``setup_s``
    From process start, including ``import repro``, until the first request
    can be issued: ``Session`` construction.  The median of seven fresh
    processes spread over the run, between rounds: a set-up takes ~0.35 s,
    and probes taken back to back would all sample one moment of the host.
``cold_points_per_s`` / ``warm_points_per_s``
    Grid points per second with nothing cached / with every point a cache
    hit.  The run is cut into five blocks of rounds (as many as it has
    rounds, if fewer); a block's rate is its cold points over its
    cold-pass seconds / its points served by warm replays over its replay
    seconds, and the metric is the median block rate.  A warm replay is
    short (~20 ms on ``session-sweep``), so a run must hold many of them to
    be steady.  A block sums many requests because, where the host's speed switches
    between levels, a median of single requests jumps from one level to the
    other as the share of slow time crosses one half, while a sum moves in
    proportion to that share; the median over blocks keeps one stalled
    stretch (a disk stall of several seconds) from setting the figure.
``job_latency_p50_s`` / ``job_latency_tail_s``
    Latency from issuing a cold job to holding its decoded results.  A job
    is one round's cold pass (both sweeps on ``session-sweep``).  The tail
    is the value at the highest percentile with at least 10 jobs beyond it,
    printed with that percentile and the sample count.
``peak_rss_mb``
    The larger of the benchmark process's and its children's peak RSS
    (``ru_maxrss``), read before the correctness checks.

``failed_frac`` (failed or wrong points over attempted points) is printed
with the others; the JSON carries it as ``failed`` and ``attempted``.  It
is no bounded metric because it reads 0 on a correct program.

Correctness, outside the timed requests
---------------------------------------
Every cold point must be bit-identical to raw ``repro.compile(c,
s).run(...)`` on the same inputs, where ``c`` is the canonical problem
``SimulationProblem.from_dict(p.to_dict(canonical=True))`` that ``Session``
compiles (kernel states byte for byte, sampling counts under the same
seed); every warm replay must equal its cold pass and be served from the
cache.  Each mismatch counts as a failed point; it does not stop the run.
A ``repro_shm_*`` segment left in ``/dev/shm`` by the run also counts as a
failure.

The run refuses to start while ``REPRO_TRACE*``, ``REPRO_FAULTS*``,
``REPRO_PROFILE*``, ``REPRO_SHM*`` or ``REPRO_CACHE_*`` is set, since each
changes the program being measured, and points the default cache and
service directories into its own work directory, so ``~/.cache/repro`` is
never touched.  Every process it starts (setup probes, pool and check
workers, multiprocessing's resource tracker) has ended and been waited for
before it exits.

Per-layer metrics (``--trace 1``)
---------------------------------
The run alternates rounds untraced and traced, as many of each.  A traced
round wraps the public functions of each layer from outside (see
``layers.py``; ``src/`` is unchanged) and restores them after; the spans
(name, start, end, parent, thread) stay in memory and are written to
``perfbench/out/`` at the end.  Self time is a span's duration minus the
part its children cover; pool-worker phases come from
``RunRecord.timings``.  "Moves" names the end-to-end metric and workload a
faster layer should move; "≈" the workloads where the prediction is no
change.

=================  ============================================  ==========================================  ================
layer              metrics                                       moves                                       ≈
=================  ============================================  ==========================================  ================
runtime.spec       key_calls_per_point, key_s, codec_s           warm_points_per_s on session-sweep          pool-large-state
operators          to_dict_calls_per_point, to_dict_s            same as runtime.spec                        pool-large-state
runtime.cache      get_calls, get_s, hit_ratio, put_s,           get: warm_points_per_s on session-sweep     —
                   put_bytes                                     and pool-large-state; put:
                                                                 cold_points_per_s on pool-large-state
runtime.session    self_s                                        cold and warm_points_per_s on               pool-large-state
                                                                 session-sweep
runtime.executor   map_s, worker_busy_s, overhead_s, fused_frac  fused_frac: cold_points_per_s on            —
                                                                 session-sweep; overhead_s:
                                                                 cold_points_per_s on pool-large-state
compile            compile_s, plan_s, evolve_s, memo_hit_ratio,  compile/plan: cold_points_per_s on          —
                   raw_points_per_s (the floor)                  session-sweep; evolve: cold_points_per_s
                                                                 on pool-large-state
runtime.results    encode_s, decode_s                            warm_points_per_s on pool-large-state       session-sweep
whole run          unaccounted_frac, trace_overhead_frac         —                                           —
=================  ============================================  ==========================================  ================

``unaccounted_frac`` is the caller thread's request time outside every
layer span; ``trace_overhead_frac`` is the median timed wall of the traced
rounds over that of the untraced ones, minus 1 (they alternate, so drift
within the run falls on both alike).  A metric whose wrapped function this
version lacks is left out, and the report names the function.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from stats import tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, add_into, check_parallel, stop_resource_tracker  # noqa: E402

#: Environment variables that change the program being measured.
FORBIDDEN_ENV = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_PROFILE", "REPRO_SHM", "REPRO_CACHE_")

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 7

#: Stretches of a run whose median rate ``cold_points_per_s`` and
#: ``warm_points_per_s`` report.
BLOCKS = 5


def units(kind: str) -> dict:
    """``name: unit`` of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def forbidden_env(environ=os.environ) -> list[str]:
    return sorted(name for name in environ if name.startswith(FORBIDDEN_ENV))


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro_shm_")}
    except OSError:
        return set()


def probe_setup(workload: str, workdir: Path, small: bool) -> float:
    """Seconds from spawning a fresh process until its first request could go."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir)]
        + (["--small"] if small else []),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdin.close()
        try:
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {child.returncode})")
    return elapsed


def run_rounds(workload, tracer, seconds: float, probe=None, traced=False):
    """Rounds until their timed requests add up to ``seconds``.

    ``probe()``, when given, is called :data:`SETUP_PROBES` times, spread
    over the run between rounds; its results are returned as the setups.
    With ``traced``, rounds alternate untraced and traced, as many of each;
    a traced round runs with the layers wrapped (:func:`layers.install`).
    Returns ``(untraced rounds, traced rounds, setups, untraced span names)``.
    """
    plain, spanned, setups, untraced = [], [], [], set()
    measured = 0.0
    index = 0
    while measured < seconds or (traced and index % 2) or not index:
        if probe is not None and measured >= len(setups) * seconds / SETUP_PROBES:
            setups.append(probe())
        if traced and index % 2:
            untraced |= layers.install(tracer)
            tracer.enabled = True
            try:
                spanned.append(workload.round(tracer))
            finally:
                tracer.enabled = False
                tracer.unpatch()
            result = spanned[-1]
        else:
            result = workload.round(tracer)
            plain.append(result)
        measured += result.timed_s
        index += 1
    while probe is not None and len(setups) < SETUP_PROBES:
        setups.append(probe())
    return plain, spanned, setups, untraced


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def block_rate(rounds, points: str, seconds: str) -> float:
    """The median over :data:`BLOCKS` stretches of the run of points per second.

    Each block is a contiguous run of rounds, and its rate is its
    ``points`` attribute summed over its ``seconds`` attribute summed.
    """
    k = min(BLOCKS, len(rounds))
    blocks = [rounds[j * len(rounds) // k : (j + 1) * len(rounds) // k] for j in range(k)]
    return median(
        sum(getattr(r, points) for r in block) / sum(getattr(r, seconds) for r in block)
        for block in blocks
    )


def end_to_end(workload, rounds, setups) -> tuple[dict, str]:
    latencies = [latency for r in rounds for latency, _ in r.jobs]
    tail_value, percentile, n = tail(latencies)
    values = {
        "setup_s": median(setups),
        "cold_points_per_s": block_rate(rounds, "cold_points", "cold_s"),
        "warm_points_per_s": block_rate(rounds, "warm_points", "warm_s"),
        "job_latency_p50_s": median(latencies),
        "job_latency_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    note = (
        f"job_latency_tail_s is p{percentile:.1f} of {n} jobs "
        f"(one a round, each replayed "
        f"{workload.warm_replays} times; setup_s is the median of {len(setups)} probes)"
    )
    return values, note


def layer_report(args, workload, tracer, rounds, untraced_rounds, untraced, checked, raw_s):
    """The per-layer metrics of the traced rounds, and the report's notes."""
    ledger = {
        "points": sum(r.attempted for r in rounds),
        "cold_points": sum(r.cold_points for r in rounds),
        "phases": {},
        "counters": {},
        "busy_s": sum(r.busy_s for r in rounds),
        "n_workers": workload.n_workers,
        "remote_encode": workload.remote_encode,
        "raw_points": checked,
        "raw_s": raw_s,
        "overhead": median(r.timed_s for r in rounds)
        / median(r.timed_s for r in untraced_rounds)
        - 1.0,
    }
    for r in rounds:
        add_into(ledger["phases"], r.phases)
        add_into(ledger["counters"], r.counters)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    note = f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    if tracer.missing:
        note += f"; not found, so not traced: {', '.join(sorted(tracer.missing))}"
    names = units("per_layer")
    values = layers.layer_metrics(tracer, ledger, names, untraced)
    left_out = [name for name in names if name not in values]
    if left_out:
        note += f"; left out, their hook is missing: {', '.join(left_out)}"
    return values, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="tiny problem sizes (the smoke tests)"
    )
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    refused = forbidden_env()
    if refused:
        print(f"error: unset {', '.join(refused)}: each changes the program measured",
              file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # The correctness checks run in spawned processes, which need the path.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(HERE), os.environ.get("PYTHONPATH")])
    )
    workdir = Path("perfbench") / "work" / f"{args.workload}-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / workdir / "default-cache")
    os.environ["REPRO_SERVICE_DIR"] = str(ROOT / workdir / "default-service")
    shm_before = shm_segments()

    import numpy
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported repro from {source}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = Tracer()
    workload = WORKLOADS[args.workload](workdir / "main", args.seed, small=args.small)
    probes = itertools.count()

    def probe():
        return probe_setup(args.workload, workdir / f"probe{next(probes)}", args.small)

    # Started here, before any pool forks, so every worker shares this one
    # tracker (and ``stop_resource_tracker`` reaps it) rather than each
    # starting its own that would outlive it.
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()

    walls = {"start": time.perf_counter()}
    try:
        workload.start()
        workload.prepare()
        untraced_rounds, rounds, setups, untraced = run_rounds(
            workload,
            tracer,
            args.seconds,
            probe=None if args.trace else probe,
            traced=bool(args.trace),
        )
        if not args.trace:
            rounds, untraced_rounds = untraced_rounds, []
            values, note = end_to_end(workload, rounds, setups)
    finally:
        walls["measurement"] = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    everything = untraced_rounds + rounds
    checked, mismatched, raw_s = check_parallel(
        [e for r in everything for e in r.expects], workers=min(2, os.cpu_count() or 1)
    )
    walls["checks"] = time.perf_counter()
    if args.trace:
        values, note = layer_report(
            args, workload, tracer, rounds, untraced_rounds, untraced, checked, raw_s
        )
        metric_units = units("per_layer")
    else:
        metric_units = units("end_to_end")
        values = {name: values[name] for name in metric_units}

    leaked = shm_segments() - shm_before
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything) + mismatched + len(leaked)

    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )
    print(f"# {note}")
    stamps = list(walls.items())
    print("# wall: " + ", ".join(
        f"{name} {stamp - before:.1f} s" for (_, before), (name, stamp) in zip(stamps, stamps[1:])
    ))
    for name, value in values.items():
        print(f"{name:44s} {value:14.6g} {metric_units[name]}")
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted}; {checked} cold points checked against raw runs"
          f"{f'; leaked shm {sorted(leaked)}' if leaked else ''})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": metric_units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
