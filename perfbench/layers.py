"""Which public functions stand for which layer, and the per-layer metrics.

:func:`install` wraps each layer's public entry points in spans (see
:class:`tracer.Tracer`); :func:`layer_metrics` turns the spans, plus the
per-point phase timings the runtime already returns in ``RunRecord``, into
the ``per_layer`` metrics named in ``BENCHMARK.json``.

Every ``*_s`` metric is self time (a span minus its child spans), summed
over the traced part of the run, except ``runtime.executor.map_s``, which
is whole calls at that boundary.  ``trace.points`` (cold plus warm points)
and ``trace.wall_s`` (request time) are the base of those sums.
``runtime.cache.put_bytes`` counts the stored arrays' bytes plus the
metadata's length as text.  A wrapped name that a later version no longer
has leaves the metrics it feeds out of the result (a missing hook must not
read as a zero), and the report names it.
"""

from __future__ import annotations

from collections import defaultdict

#: Metrics fed by a span whose name is not their prefix.
FED_BY = {
    "runtime.cache.hit_ratio": "runtime.cache.get",
    "runtime.cache.put_bytes": "runtime.cache.put",
    "runtime.executor.worker_busy_s": "runtime.executor.map",
    "runtime.executor.overhead_s": "runtime.executor.map",
}


def feeds(span: str, metric: str) -> bool:
    """Whether the wrapped name recorded as ``span`` feeds ``metric``."""
    return metric == span or metric.startswith(span + "_") or FED_BY.get(metric) == span


def install(tracer) -> set[str]:
    """Wrap the public functions of every layer.

    Returns the span names whose wrapped function this version lacks.
    """
    from repro.operators import hamiltonian
    from repro.runtime import cache, executor, results, session, spec

    untraced = set()

    def patch(owner, attr, name, on_exit=None):
        if not tracer.patch(owner, attr, name, on_exit=on_exit):
            untraced.add(name)

    patch(spec.RunSpec, "content_key", "runtime.spec.key")
    patch(spec.RunSpec, "to_dict", "runtime.spec.codec")
    patch(spec.RunSpec, "from_dict", "runtime.spec.codec")
    patch(hamiltonian.Hamiltonian, "to_dict", "operators.to_dict")

    def cache_hit(args, kwargs, result):
        default = args[2] if len(args) > 2 else kwargs.get("default", cache.MISS)
        tracer.add("cache.hits", result is not default)

    def put_bytes(args, kwargs, result):
        meta, arrays = args[2], args[3]
        tracer.add("cache.put_bytes", len(repr(meta)) + sum(a.nbytes for a in arrays.values()))

    patch(cache.ResultCache, "get", "runtime.cache.get", on_exit=cache_hit)
    patch(cache.ResultCache, "put_encoded", "runtime.cache.put", on_exit=put_bytes)
    patch(session.Session, "sweep", "runtime.session")
    patch(executor.SerialExecutor, "map", "runtime.executor.map")
    patch(executor.ProcessExecutor, "map_specs", "runtime.executor.map")
    patch(results, "decode_result", "runtime.results.decode")
    patch(results, "encode_result", "runtime.results.encode")
    # Modules that bind the codec functions by name each get a wrapper too;
    # a module that stops binding them no longer calls them that way.
    for module in (cache, session):
        tracer.patch(module, "decode_result", "runtime.results.decode")
    tracer.patch(cache, "encode_result", "runtime.results.encode")
    return untraced


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, ledger: dict, names, untraced=()) -> dict:
    """The per-layer metrics ``names`` from the spans and the workload's ledger.

    Metrics fed by a span name in ``untraced`` (see :func:`install`) are
    left out.

    ``ledger`` holds what the spans cannot see: ``points`` (cold plus warm),
    ``cold_points``, ``phases`` and ``busy_s`` (summed
    worker-side timings of the cold points), ``counters`` (registry deltas),
    ``n_workers``, ``remote_encode``, ``raw_points``/``raw_s`` (the raw
    reference run) and ``overhead`` (the traced rounds' wall over the
    untraced ones', minus 1).
    """
    selfs = tracer.self_times()
    calls = defaultdict(int)
    own = defaultdict(float)
    whole = defaultdict(float)
    for span, seconds in selfs.items():
        calls[span.name] += 1
        own[span.name] += seconds
        whole[span.name] += span.duration
    counts = tracer.counts
    points = ledger["points"]
    cold_points = ledger["cold_points"]
    phases = ledger["phases"]
    counters = ledger["counters"]
    hits, misses = counters.get("compile.memo_hits", 0), counters.get("compile.memo_misses", 0)

    requests = [span for span in selfs if span.name.startswith("request.")]

    map_s = whole["runtime.executor.map"]
    values = {
        "runtime.spec.key_calls_per_point": _ratio(calls["runtime.spec.key"], points),
        "runtime.spec.key_s": own["runtime.spec.key"],
        "runtime.spec.codec_s": own["runtime.spec.codec"],
        "operators.to_dict_calls_per_point": _ratio(calls["operators.to_dict"], points),
        "operators.to_dict_s": own["operators.to_dict"],
        "runtime.cache.get_calls": calls["runtime.cache.get"],
        "runtime.cache.get_s": own["runtime.cache.get"],
        "runtime.cache.hit_ratio": _ratio(counts["cache.hits"], calls["runtime.cache.get"]),
        "runtime.cache.put_s": own["runtime.cache.put"],
        "runtime.cache.put_bytes": counts["cache.put_bytes"],
        "runtime.session.self_s": own["runtime.session"],
        "runtime.executor.map_s": map_s,
        "runtime.executor.worker_busy_s": ledger["busy_s"] if map_s else 0.0,
        "runtime.executor.overhead_s": (
            map_s - ledger["busy_s"] / ledger["n_workers"] if map_s else 0.0
        ),
        "runtime.executor.fused_frac": _ratio(
            counters.get("batch.points_fused", 0), cold_points
        ),
        "compile.compile_s": phases.get("compile", 0.0),
        "compile.plan_s": phases.get("plan", 0.0),
        "compile.evolve_s": phases.get("evolve", 0.0),
        "compile.memo_hit_ratio": _ratio(hits, hits + misses),
        "compile.raw_points_per_s": _ratio(ledger["raw_points"], ledger["raw_s"]),
        "runtime.results.encode_s": own["runtime.results.encode"]
        + (phases.get("encode", 0.0) if ledger["remote_encode"] else 0.0),
        "runtime.results.decode_s": own["runtime.results.decode"],
        "trace.points": points,
        "trace.wall_s": sum(span.duration for span in requests),
        "unaccounted_frac": _ratio(
            sum(selfs[s] for s in requests), sum(s.duration for s in requests)
        ),
        "trace_overhead_frac": ledger["overhead"],
    }
    return {
        name: float(values[name])
        for name in names
        if not any(feeds(span, name) for span in untraced)
    }
