#!/usr/bin/env python
"""Quick-mode benchmark regression gate.

Replays the small sizes of the three hot-path benchmarks — the gate-fusion
statevector bench (10 qubits), the kernel-evolution bench (10 and 12
qubits) and the runtime layer's cached 16-point sweep — against the
checked-in ``BENCH_*.json`` baselines.

The baselines are absolute wall-clock seconds from the machine that produced
them, and CI runners are not that machine, so the gate is **self-normalizing**:
every check's measured/baseline ratio is divided by the *minimum* ratio across
all checks (the machine-speed factor — taking the minimum rather than the
median means a regression shared by several checks, e.g. the kernel path
behind two of the three, cannot become the yardstick and cancel itself), and
a check fails only if BOTH its normalized and its raw ratio exceed
``TOLERANCE`` (the raw guard keeps a genuine speedup in one benchmark from
flagging the unchanged ones; refresh the baselines after intentional
perf changes either way).  An
absolute cap of ``ABSOLUTE_CAP`` still catches a regression shared by every
path (e.g. an accidental O(gates²) pass in common infrastructure).

Beyond the timing replay, the gate **audits the parallel claim**: every
``BENCH_*.json`` must carry the ``machine_cores`` of the box that produced
it, and ``BENCH_runtime.json`` must have ``batching_claim_checked`` true
with ``batching_speedup`` (per-point oracle over the plan-batched serial
session) at or above its recorded minimum — a baseline that dodged or
missed the claim fails the gate everywhere.  On a ≥ 4-core runner the gate
additionally **re-measures** the claims live (the quick runtime bench), so
a recorded number from a small box can never stand in for the multi-core
grid claim — which is what let a 0.89× "parallel" path ship unnoticed.

It also **audits the overhead claims**: ``BENCH_telemetry.json`` and
``BENCH_resilience.json`` must exist, record ``machine_cores``, and show
their measured disabled-path ``disabled_overhead_fraction`` within the
recorded ≤ 2% claim — a bench whose baseline never landed (PR 8) is a claim
nobody is checking.

Run directly (``python benchmarks/check_bench_regressions.py``) or via the
``bench-regression`` CI job.  Finishes in a few seconds; the full sweeps stay
in the pytest benchmarks.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Allowed slowdown of one check relative to the machine factor.
TOLERANCE = 2.0

#: Absolute measured/baseline cap — trips even when every path slows together.
ABSOLUTE_CAP = 10.0

#: Kernel-bench sizes replayed in quick mode (the cheap end of the sweep).
QUICK_KERNEL_QUBITS = (10, 12)


def audit_parallel_claim() -> "list[str]":
    """Audit the recorded (and, on ≥ 4 cores, the live) parallel claim.

    Returns the list of audit failures — empty means the claim stands.
    """
    from benchmarks.bench_gate_fusion import RESULT_PATH as FUSION_PATH
    from benchmarks.bench_kernel_evolution import RESULT_PATH as KERNEL_PATH
    from benchmarks.bench_runtime_sweep import RESULT_PATH as RUNTIME_PATH

    failures: list[str] = []
    for path in (FUSION_PATH, KERNEL_PATH, RUNTIME_PATH):
        if "machine_cores" not in json.loads(path.read_text()):
            failures.append(
                f"{path.name} does not record machine_cores; regenerate it "
                "(every claim must say what machine measured it)"
            )

    runtime = json.loads(RUNTIME_PATH.read_text())
    claims = runtime.get("claims", {})
    minimum = claims.get("batching_speedup_min", 2.0)
    if not runtime.get("batching_claim_checked"):
        failures.append(
            f"{RUNTIME_PATH.name} has batching_claim_checked false: the "
            "batched path shipped without its speedup claim being asserted"
        )
    elif runtime.get("batching_speedup", 0.0) < minimum:
        failures.append(
            f"{RUNTIME_PATH.name} records batching_speedup "
            f"{runtime.get('batching_speedup')}x, below the claimed "
            f"minimum {minimum}x"
        )

    cores = os.cpu_count() or 1
    if cores >= 4:
        # A multi-core runner re-measures both claims instead of trusting a
        # number recorded on whatever box regenerated the baseline.
        from benchmarks.bench_runtime_sweep import run_bench

        try:
            live = run_bench(quick=True)
        except AssertionError as exc:
            failures.append(f"live parallel claim failed on {cores} cores: {exc}")
        else:
            print(
                f"live claims on {cores} cores: "
                f"batching {live['batching_speedup']:.2f}x "
                f"(minimum {minimum}x), "
                f"parallel {live['parallel_speedup']:.2f}x, "
                f"grid {live['grid_parallel_speedup']:.2f}x"
            )
    return failures


def audit_overhead_claims() -> "list[str]":
    """Audit the telemetry and resilience disabled-path overhead claims.

    Both subsystems ship "effectively free when off" claims; this check makes
    the claims load-bearing: the ``BENCH_telemetry.json`` and
    ``BENCH_resilience.json`` baselines must exist (PR 8 shipped the bench
    without its baseline — never again), record ``machine_cores``, and show a
    measured ``disabled_overhead_fraction`` within the recorded claim.
    """
    from benchmarks.bench_resilience_overhead import (
        RESULT_PATH as RESILIENCE_PATH,
    )
    from benchmarks.bench_telemetry_overhead import RESULT_PATH as TELEMETRY_PATH

    failures: list[str] = []
    for path in (TELEMETRY_PATH, RESILIENCE_PATH):
        if not path.exists():
            failures.append(
                f"{path.name} is missing; run the full bench "
                f"(python benchmarks/{path.name.replace('BENCH_', 'bench_').replace('.json', '_overhead.py')}) "
                "to check in the baseline its overhead claim rests on"
            )
            continue
        baseline = json.loads(path.read_text())
        if "machine_cores" not in baseline:
            failures.append(
                f"{path.name} does not record machine_cores; regenerate it "
                "(every claim must say what machine measured it)"
            )
        fraction = baseline.get("disabled_overhead_fraction")
        claim = baseline.get("disabled_overhead_claim")
        if fraction is None or claim is None:
            failures.append(
                f"{path.name} lacks disabled_overhead_fraction/"
                f"disabled_overhead_claim; regenerate it"
            )
        elif fraction > claim:
            failures.append(
                f"{path.name} records a disabled-path overhead of "
                f"{fraction:.4%}, above its own {claim:.0%} claim"
            )
    return failures


def main() -> int:
    import repro
    from benchmarks.bench_gate_fusion import RESULT_PATH as FUSION_PATH
    from benchmarks.bench_gate_fusion import STEPS, _best_of, _problem
    from benchmarks.bench_kernel_evolution import RESULT_PATH as KERNEL_PATH
    from benchmarks.bench_kernel_evolution import best_of, chemistry_problem

    measurements: list[dict] = []

    fusion_baseline = json.loads(FUSION_PATH.read_text())
    fused = repro.compile(
        _problem(), "direct", steps=STEPS, order=2, optimize_level=1
    )
    fused.run(backend="statevector")  # warm build + fusion
    measurements.append(
        {
            "name": "fusion/statevector_fused_10q",
            "measured_s": _best_of(lambda: fused.run(backend="statevector")),
            "baseline_s": fusion_baseline["statevector_fused_s"],
        }
    )

    kernel_baseline = json.loads(KERNEL_PATH.read_text())
    baseline_points = {p["num_qubits"]: p for p in kernel_baseline["points"]}
    for num_qubits in QUICK_KERNEL_QUBITS:
        point = baseline_points[num_qubits]
        program = repro.compile(
            chemistry_problem(num_qubits, steps=point["steps"]), "direct"
        )
        program.run(backend="kernel")  # warm the plan + baked tables
        measurements.append(
            {
                "name": f"kernels/kernel_{num_qubits}q",
                "measured_s": best_of(lambda: program.run(backend="kernel")),
                "baseline_s": point["kernel_s"],
            }
        )

    import tempfile
    from pathlib import Path as _Path

    from benchmarks.bench_runtime_sweep import RESULT_PATH as RUNTIME_PATH
    from benchmarks.bench_runtime_sweep import annex_c_sweep
    from repro.runtime import Session

    runtime_baseline = json.loads(RUNTIME_PATH.read_text())
    spec = annex_c_sweep()
    session = Session(cache=_Path(tempfile.mkdtemp(prefix="bench-gate-")) / "c")
    session.sweep(spec)  # fill the cache; the gated path is the warm replay
    measurements.append(
        {
            "name": "runtime/cached_sweep_16pt",
            "measured_s": best_of(lambda: session.sweep(spec)),
            "baseline_s": runtime_baseline["cached_s"],
            # Hash/IO-bound, not numpy-bound: it scales differently from the
            # kernel benches, so it must not define the machine-speed factor
            # (a runner with fast disks but slow BLAS would otherwise flag
            # the unchanged CPU benches).  It is still *gated* like the rest.
            "sets_machine_factor": False,
        }
    )

    for m in measurements:
        m["ratio"] = m["measured_s"] / m["baseline_s"] if m["baseline_s"] > 0 else float("inf")
    machine_factor = min(
        m["ratio"] for m in measurements if m.get("sets_machine_factor", True)
    )
    for m in measurements:
        m["normalized"] = m["ratio"] / machine_factor
        # A check regresses only when it is slow in BOTH views: raw (so a
        # genuine speedup elsewhere lowering the machine factor cannot flag an
        # unchanged benchmark) and normalized (so a uniformly slow CI machine
        # does not flag everything).
        m["ok"] = (
            m["normalized"] <= TOLERANCE or m["ratio"] <= TOLERANCE
        ) and m["ratio"] <= ABSOLUTE_CAP

    width = max(len(m["name"]) for m in measurements)
    print(
        f"benchmark regression gate (tolerance {TOLERANCE:.1f}x of the "
        f"machine factor {machine_factor:.2f}x, absolute cap "
        f"{ABSOLUTE_CAP:.0f}x):"
    )
    for m in measurements:
        verdict = "ok" if m["ok"] else "REGRESSION"
        print(
            f"  {m['name']:<{width}}  measured {m['measured_s']*1e3:8.2f} ms"
            f"  baseline {m['baseline_s']*1e3:8.2f} ms"
            f"  ratio {m['ratio']:5.2f}x  normalized {m['normalized']:5.2f}x  {verdict}"
        )
    failed = [m for m in measurements if not m["ok"]]
    if failed:
        print(
            f"{len(failed)} benchmark(s) regressed beyond tolerance; "
            "investigate before merging (or refresh the BENCH_*.json baselines "
            "by re-running the full benches if the change is intentional)."
        )
        return 1
    print("all quick-mode benchmarks within tolerance")

    audit_failures = audit_parallel_claim()
    if audit_failures:
        for failure in audit_failures:
            print(f"parallel-claim audit: {failure}")
        return 1
    print("parallel-claim audit passed")

    overhead_failures = audit_overhead_claims()
    if overhead_failures:
        for failure in overhead_failures:
            print(f"overhead-claim audit: {failure}")
        return 1
    print("overhead-claim audit passed (telemetry + resilience)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
