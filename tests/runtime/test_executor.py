"""Executors: ordering, chunking, progress, failure capture, worker parity."""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

import repro
from repro.exceptions import SpecError
from repro.runtime import (
    ProcessExecutor,
    RunSpec,
    SerialExecutor,
    execute_spec,
    pin_blas_threads,
    resolve_executor,
)


def _square(x):
    return x * x


def problem(**kwargs):
    kwargs.setdefault("time", 0.3)
    return repro.SimulationProblem.from_labels(
        4, {"nsdI": 0.8, "IZZI": 0.3, "XIXI": 0.2}, **kwargs
    )


class TestSerialExecutor:
    def test_map_preserves_order_and_reports_progress(self):
        seen = []
        result = SerialExecutor().map(
            _square, range(5), progress=lambda done, total: seen.append((done, total))
        )
        assert result == [0, 1, 4, 9, 16]
        assert seen == [(i, 5) for i in range(1, 6)]


class TestProcessExecutor:
    def test_map_matches_serial(self):
        items = list(range(23))
        serial = SerialExecutor().map(_square, items)
        pooled = ProcessExecutor(4, chunk_size=3).map(_square, items)
        assert pooled == serial

    def test_progress_reaches_total(self):
        seen = []
        ProcessExecutor(2, chunk_size=2).map(
            _square, range(7), progress=lambda d, t: seen.append((d, t))
        )
        assert seen[-1] == (7, 7)
        assert all(t == 7 for _, t in seen)

    def test_single_item_runs_in_process(self):
        assert ProcessExecutor(4).map(_square, [3]) == [9]

    def test_empty(self):
        assert ProcessExecutor(2).map(_square, []) == []

    def test_default_chunking(self):
        executor = ProcessExecutor(2)
        assert executor._resolve_chunk(100) == 13  # ceil(100 / 8)
        assert executor._resolve_chunk(1) == 1

    def test_invalid_parameters(self):
        with pytest.raises(SpecError):
            ProcessExecutor(0)
        with pytest.raises(SpecError):
            ProcessExecutor(2, chunk_size=0)
        with pytest.raises(SpecError):
            ProcessExecutor(2, blas_threads_per_worker=0)


class TestResolveExecutor:
    def test_resolution_table(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        pool = resolve_executor(3)
        assert isinstance(pool, ProcessExecutor) and pool.n_workers == 3
        explicit = ProcessExecutor(2)
        assert resolve_executor(explicit) is explicit
        with pytest.raises(SpecError):
            resolve_executor("four")
        with pytest.raises(SpecError):
            resolve_executor(True)


class TestExecuteSpec:
    def test_success_outcome(self):
        payload = RunSpec(problem=problem()).to_dict(canonical=True)
        outcome = execute_spec(payload)
        assert outcome["ok"] and outcome["result"]["kind"] == "statevector"
        assert outcome["wall_time"] > 0

    def test_failure_outcome_records_traceback(self):
        payload = RunSpec(
            problem=problem(), backend="exact", run_kwargs={"bogus": 1}
        ).to_dict(canonical=True)
        outcome = execute_spec(payload)
        assert not outcome["ok"]
        assert outcome["error"]["type"] == "CompileError"
        assert "bogus" in outcome["error"]["message"]
        assert "Traceback" in outcome["error"]["traceback"]

    def test_garbage_payload_is_captured_not_raised(self):
        outcome = execute_spec({"spec": "run"})  # no problem at all
        assert not outcome["ok"] and outcome["error"]["type"] == "KeyError"


@pytest.mark.slow
class TestCrossProcessParity:
    def test_pool_outcomes_match_in_process(self):
        specs = [
            RunSpec(
                problem=problem(steps=k), backend="sampling",
                run_kwargs={"shots": 128, "rng": 7},
            ).to_dict(canonical=True)
            for k in (1, 2, 3, 4)
        ]
        local = [execute_spec(s) for s in specs]
        pooled = ProcessExecutor(2, chunk_size=1).map(execute_spec, specs)
        for a, b in zip(local, pooled):
            assert a["ok"] and b["ok"]
            assert a["result"]["counts"] == b["result"]["counts"]


class TestPicklabilityFailFast:
    def test_lambda_callable_is_a_clear_runtime_error(self):
        pool = ProcessExecutor(2)
        with pytest.raises(RuntimeError, match="cannot pickle the callable"):
            pool.map(lambda x: x, [1, 2, 3])

    def test_unpicklable_item_names_the_slice(self):
        pool = ProcessExecutor(2, chunk_size=2)
        items = [1, 2, (lambda: None), 4]  # chunk [2:4] holds the offender
        with pytest.raises(RuntimeError, match=r"could not pickle items"):
            pool.map(_square, items)

    def test_single_worker_serial_path_still_works_with_lambdas(self):
        # max_workers=1 short-circuits to in-process execution: no pickling.
        assert ProcessExecutor(1).map(lambda x: x + 1, [1, 2]) == [2, 3]


# ---------------------------------------------------------------------------
# Plan batching, the LRU program memo, worker hygiene and map_specs
# ---------------------------------------------------------------------------


def _read_blas_env(_):
    import os

    return os.environ.get("OMP_NUM_THREADS")


class TestProgramMemoLRU:
    def test_hits_refresh_recency(self, monkeypatch):
        """A touched entry must survive an eviction that FIFO would lose."""
        import repro.compile.pipeline as pipeline
        import repro.compile.plan as plan_module
        from repro.runtime import executor as executor_module
        from repro.utils.memo import LRUMemo

        calls = []
        real = pipeline.compile_problem

        def counting(problem, strategy, **kwargs):
            calls.append((problem.content_key(), strategy))
            return real(problem, strategy, **kwargs)

        monkeypatch.setattr(pipeline, "compile_problem", counting)
        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUMemo(3))
        monkeypatch.setattr(plan_module, "_LOWER_MEMO", LRUMemo(32))

        problems = {
            name: repro.SimulationProblem.from_labels(
                4, {label: 0.5}, time=0.3, name=name
            )
            for name, label in zip("abcd", ("ZZII", "IZZI", "IIZZ", "XIII"))
        }
        memo = executor_module._memoized_program
        memo(problems["a"], "direct")
        memo(problems["b"], "direct")
        memo(problems["c"], "direct")
        assert len(calls) == 3

        memo(problems["a"], "direct")  # hit: refreshes a's recency
        assert len(calls) == 3

        memo(problems["d"], "direct")  # evicts b (LRU), not a (FIFO would)
        assert len(calls) == 4

        memo(problems["a"], "direct")  # still memoized
        assert len(calls) == 4
        memo(problems["b"], "direct")  # evicted: compiles again
        assert len(calls) == 5

    def test_hit_returns_identical_program(self):
        from repro.runtime.executor import _memoized_program

        first = _memoized_program(problem(), "direct")
        assert _memoized_program(problem(), "direct") is first

    def test_reordered_hamiltonian_gets_its_own_program(self, monkeypatch):
        """Equal content keys, different Trotter products: no shared program.

        ``content_key`` ignores term order; a memo keyed on it alone served
        the first-seen ordering's state to the second.
        """
        import repro.compile.plan as plan_module
        from repro.runtime import executor as executor_module
        from repro.runtime.results import decode_result
        from repro.utils.memo import LRUMemo

        monkeypatch.setattr(executor_module, "_PROGRAM_MEMO", LRUMemo(32))
        monkeypatch.setattr(plan_module, "_LOWER_MEMO", LRUMemo(32))
        p_a = repro.SimulationProblem.from_labels(
            2, [("XI", 0.7), ("ZZ", 0.4), ("IX", 0.3)], time=0.9
        )
        p_b = repro.SimulationProblem.from_labels(
            2, [("ZZ", 0.4), ("XI", 0.7), ("IX", 0.3)], time=0.9
        )
        assert p_a.content_key() == p_b.content_key()
        raw = {
            name: repro.compile(p, "direct").run(backend="kernel").data
            for name, p in (("a", p_a), ("b", p_b))
        }
        assert not np.array_equal(raw["a"], raw["b"])
        for name, p in (("a", p_a), ("b", p_b)):
            outcome = execute_spec(
                RunSpec(p, "direct", "kernel", {"initial_state": 0}).to_dict()
            )
            assert outcome["ok"], outcome.get("error")
            state = decode_result(outcome["result"], outcome["arrays"]).data
            assert np.array_equal(state, raw[name]), name


class TestBatchGrouping:
    def kernel_payload(self, initial_state=0, steps=1):
        return RunSpec(
            problem=problem(steps=steps),
            backend="kernel",
            run_kwargs={"initial_state": initial_state},
        ).to_dict(canonical=True)

    def test_statevector_has_no_batch_axis(self):
        from repro.runtime import batch_key

        payload = RunSpec(problem=problem()).to_dict(canonical=True)
        assert batch_key(payload) is None

    def test_batch_key_ignores_only_the_batch_axis(self):
        from repro.runtime import batch_key

        a = batch_key(self.kernel_payload(initial_state=0))
        b = batch_key(self.kernel_payload(initial_state=5))
        c = batch_key(self.kernel_payload(initial_state=0, steps=2))
        assert a == b  # differ only along the batch axis
        assert a != c  # different compile → different plan → different group

    def test_group_payloads_consecutive_and_order_preserving(self):
        from repro.runtime import group_payloads

        payloads = [
            self.kernel_payload(initial_state=0),
            self.kernel_payload(initial_state=1),
            RunSpec(problem=problem()).to_dict(canonical=True),  # unbatchable
            self.kernel_payload(initial_state=2),
            self.kernel_payload(initial_state=3),
        ]
        groups = group_payloads(payloads)
        assert groups == [[0, 1], [2], [3, 4]]
        assert [i for group in groups for i in group] == list(range(5))


class TestExecuteSpecBatch:
    def test_kernel_initial_state_batch_is_bit_identical(self):
        import numpy as np

        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(
                problem=problem(), backend="kernel",
                run_kwargs={"initial_state": index},
            ).to_dict(canonical=True)
            for index in range(5)
        ]
        batched = execute_spec_batch(payloads)
        single = [execute_spec(p) for p in payloads]
        for fused, reference in zip(batched, single):
            assert fused["ok"] and reference["ok"]
            assert fused["batched"] == 5
            for key in reference["arrays"]:
                assert np.array_equal(fused["arrays"][key], reference["arrays"][key])

    def test_sampling_rng_batch_matches_per_point_draws(self):
        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 128, "rng": 100 + index},
            ).to_dict(canonical=True)
            for index in range(4)
        ]
        batched = execute_spec_batch(payloads)
        single = [execute_spec(p) for p in payloads]
        for fused, reference in zip(batched, single):
            assert fused["ok"] and reference["ok"]
            assert fused["result"]["counts"] == reference["result"]["counts"]

    def test_bad_point_falls_back_to_per_point_capture(self):
        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(
                problem=problem(), backend="kernel",
                run_kwargs={"initial_state": index},
            ).to_dict(canonical=True)
            for index in (0, 1 << 10, 1)  # the middle index is out of range
        ]
        outcomes = execute_spec_batch(payloads)
        assert outcomes[0]["ok"] and outcomes[2]["ok"]
        assert not outcomes[1]["ok"]
        assert "batched" not in outcomes[0]  # fallback ran per point

    def test_unbatchable_backend_matches_serial(self):
        import numpy as np

        from repro.runtime import execute_spec_batch

        payloads = [
            RunSpec(problem=problem(steps=k)).to_dict(canonical=True)
            for k in (1, 2)
        ]
        outcomes = execute_spec_batch(payloads)
        single = [execute_spec(p) for p in payloads]
        for fused, reference in zip(outcomes, single):
            assert fused["ok"]
            assert np.array_equal(fused["arrays"]["data"], reference["arrays"]["data"])


class TestMapSpecs:
    def payloads(self):
        specs = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            )
            for index in range(4)
        ] + [
            RunSpec(problem=problem(steps=k)) for k in (1, 2)
        ]
        return [spec.to_dict(canonical=True) for spec in specs]

    def test_single_worker_matches_per_point_map(self):
        import numpy as np

        payloads = self.payloads()
        reference = [execute_spec(p) for p in payloads]
        outcomes = ProcessExecutor(1).map_specs(payloads)
        for fused, ref in zip(outcomes, reference):
            assert fused["ok"] and ref["ok"]
            assert fused["result"]["kind"] == ref["result"]["kind"]
            for key in ref["arrays"]:
                assert np.array_equal(fused["arrays"][key], ref["arrays"][key])

    def test_pool_matches_per_point_map(self):
        import numpy as np

        # Beyond the batched points: a failing point among good ones, and a
        # 10-qubit kernel state (16 KiB) crossing the pool's result pipe.
        ten_qubits = repro.SimulationProblem.from_labels(
            10, {"nsdIIIIIII": 0.8, "IIZZIIIIXI": 0.3}, time=0.3
        )
        payloads = self.payloads() + [
            RunSpec(
                problem=problem(), backend="sampling", run_kwargs={"shots": -1}
            ).to_dict(canonical=True),
            RunSpec(
                problem=ten_qubits, backend="kernel", run_kwargs={"initial_state": 3}
            ).to_dict(canonical=True),
        ]
        reference = [execute_spec(p) for p in payloads]
        assert reference[-1]["arrays"]["data"].nbytes >= 1 << 14
        outcomes = ProcessExecutor(2, chunk_size=2).map_specs(payloads)
        bad = outcomes.pop(-2)
        assert bad["ok"] is False
        assert bad["error"]["type"] == reference.pop(-2)["error"]["type"]
        for fused, ref in zip(outcomes, reference):
            assert fused["ok"] and ref["ok"]
            if ref["result"]["kind"] == "sampling":
                assert fused["result"]["counts"] == ref["result"]["counts"]
            for key in ref["arrays"]:
                assert np.array_equal(fused["arrays"][key], ref["arrays"][key])

    def test_progress_reaches_total(self):
        seen = []
        ProcessExecutor(2, chunk_size=2).map_specs(
            self.payloads(), progress=lambda d, t: seen.append((d, t))
        )
        assert seen[-1][0] == seen[-1][1] == 6

    def test_empty(self):
        assert ProcessExecutor(2).map_specs([]) == []

    def test_chunks_never_split_groups(self):
        executor = ProcessExecutor(4, chunk_size=2)
        groups = [[0, 1, 2], [3], [4, 5]]
        chunks = executor._chunk_groups(groups, 6)
        assert chunks == [[[0, 1, 2]], [[3], [4, 5]]]


class TestRunGroups:
    """The execution core every executor, the daemon and the worker share."""

    def payloads(self):
        sampling = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": 64, "rng": index},
            )
            for index in range(3)
        ]
        kernel = [
            RunSpec(
                problem=problem(steps=2), backend="kernel",
                run_kwargs={"initial_state": index},
            )
            for index in range(2)
        ]
        specs = sampling + [RunSpec(problem=problem())] + kernel
        return [spec.to_dict(canonical=True) for spec in specs]

    def test_groups_cover_the_payloads_in_order(self):
        import numpy as np

        from repro.runtime import run_groups

        payloads = self.payloads()
        reference = [execute_spec(p) for p in payloads]
        groups = list(run_groups(payloads))
        assert [indices for indices, _ in groups] == [[0, 1, 2], [3], [4, 5]]
        outcomes = [outcome for _, batch in groups for outcome in batch]
        for fused, ref in zip(outcomes, reference):
            assert fused["ok"] and ref["ok"]
            for key in ref["arrays"]:
                assert np.array_equal(fused["arrays"][key], ref["arrays"][key])

    def test_break_after_the_first_group_runs_nothing_later(self):
        from repro.runtime import run_groups
        from repro.telemetry import metrics

        payloads = self.payloads()
        before = metrics.counter("batch.points_total")
        collected = []
        for indices, outcomes in run_groups(payloads):
            collected.extend(zip(indices, outcomes))
            break
        assert metrics.counter("batch.points_total") - before == 3
        assert [index for index, _ in collected] == [0, 1, 2]
        reference = [execute_spec(p) for p in payloads[:3]]
        assert [o["result"]["counts"] for _, o in collected] == [
            r["result"]["counts"] for r in reference
        ]


class TestWorkerHygiene:
    def test_pool_workers_pin_blas_threads(self):
        values = ProcessExecutor(2, chunk_size=1).map(_read_blas_env, [0, 1, 2])
        assert values == ["1", "1", "1"]

    def test_pool_workers_honour_a_custom_cap(self):
        pool = ProcessExecutor(2, chunk_size=1, blas_threads_per_worker=2)
        assert pool.map(_read_blas_env, [0, 1, 2]) == ["2", "2", "2"]


def _pin_and_read(n):
    from repro.runtime.executor import BLAS_ENV_VARS

    pin_blas_threads(n)
    return sorted({os.environ[var] for var in BLAS_ENV_VARS})


class TestPinBlasThreads:
    # Pinning runs inside pool workers so this process keeps its BLAS setup.
    def test_sets_every_environment_knob(self):
        pool = ProcessExecutor(2, chunk_size=1)
        assert pool.map(_pin_and_read, [3, 5]) == [["3"], ["5"]]

    def test_clamps_to_one_thread(self):
        pool = ProcessExecutor(2, chunk_size=1)
        assert pool.map(_pin_and_read, [0, -4]) == [["1"], ["1"]]

    def test_public_name_is_the_executor_function(self):
        from repro.runtime import executor

        assert pin_blas_threads is executor.pin_blas_threads


def _dev_shm_entries() -> set[str]:
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return set()
    # Pool semaphores live here only between create and unlink.
    return {name for name in names if not name.startswith("sem.")}


class TestResultPipe:
    """Pool outcomes, arrays included, come home through the result pipe."""

    @staticmethod
    def kernel_payloads(num_qubits, states=(0, 3)):
        labels = {
            "nsd" + "I" * (num_qubits - 3): 0.8,
            "I" * (num_qubits - 2) + "ZZ": 0.3,
        }
        target = repro.SimulationProblem.from_labels(num_qubits, labels, time=0.3)
        return [
            RunSpec(
                problem=target, backend="kernel", run_kwargs={"initial_state": s}
            ).to_dict(canonical=True)
            for s in states
        ]

    @pytest.mark.parametrize("num_qubits", [3, 7, 10])
    def test_kernel_states_round_trip_bit_exactly(self, num_qubits):
        payloads = self.kernel_payloads(num_qubits)
        reference = [execute_spec(p) for p in payloads]
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(payloads)
        for fused, ref in zip(outcomes, reference):
            assert fused["ok"]
            data = fused["arrays"]["data"]
            assert data.dtype == ref["arrays"]["data"].dtype
            assert data.nbytes == 16 << num_qubits
            assert np.array_equal(data, ref["arrays"]["data"])

    def test_returned_arrays_are_writable(self):
        outcomes = ProcessExecutor(2).map_specs(self.kernel_payloads(10))
        data = outcomes[0]["arrays"]["data"]
        assert data.flags.writeable
        data[0] = 0.0  # a live segment mapping would be read-only or freed

    @pytest.mark.parametrize(
        "env",
        [{}, {"REPRO_SHM": "1", "REPRO_SHM_MIN_BYTES": "0"}],
        ids=["default", "old-shm-settings"],
    )
    def test_sweep_leaves_nothing_in_dev_shm(self, monkeypatch, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        before = _dev_shm_entries()
        outcomes = ProcessExecutor(2, chunk_size=1).map_specs(
            self.kernel_payloads(10, states=(0, 1, 2, 3))
        )
        assert all(outcome["ok"] for outcome in outcomes)
        assert _dev_shm_entries() <= before

    def test_use_shm_argument_is_gone(self):
        with pytest.raises(TypeError, match="use_shm"):
            ProcessExecutor(2, use_shm=True)

    def test_shm_module_is_gone(self):
        assert importlib.util.find_spec("repro.runtime.shm") is None

    @pytest.mark.parametrize(
        "name", ["SHM_ENV", "SHM_MIN_BYTES_ENV", "shm_enabled", "reap_orphans"]
    )
    def test_shm_names_are_not_exported(self, name):
        import repro.runtime

        assert not hasattr(repro.runtime, name)
        assert name not in repro.runtime.__all__


# ---------------------------------------------------------------------------
# Per-point progress plumbing
# ---------------------------------------------------------------------------


def _slow_square(x):
    import time

    time.sleep(0.1)
    return x * x


class _RecordingQueue:
    def __init__(self):
        self.counts = []

    def put_nowait(self, count):
        self.counts.append(count)


class _BrokenQueue:
    def put_nowait(self, count):
        raise RuntimeError("manager went away")


class TestPerPointProgress:
    def test_run_chunk_counts_each_item(self):
        from repro.runtime.executor import _run_chunk

        queue = _RecordingQueue()
        assert _run_chunk(_square, [1, 2, 3], queue) == [1, 4, 9]
        assert queue.counts == [1, 1, 1]

    def test_run_chunk_survives_a_broken_queue(self):
        from repro.runtime.executor import _run_chunk

        assert _run_chunk(_square, [1, 2], _BrokenQueue()) == [1, 4]

    def test_run_spec_chunk_counts_group_sizes(self):
        from repro.runtime.executor import _run_spec_chunk

        # A chunk arrives flat; the worker regroups it (two plan groups:
        # different shot counts never share a prepared draw).
        payloads = [
            RunSpec(
                problem=problem(), backend="sampling",
                run_kwargs={"shots": shots, "rng": index},
            ).to_dict(canonical=True)
            for shots, size in ((32, 2), (64, 1))
            for index in range(size)
        ]
        queue = _RecordingQueue()
        outcomes = _run_spec_chunk(payloads, None, queue)
        assert len(outcomes) == 3 and all(o["ok"] for o in outcomes)
        assert [o.get("batched") for o in outcomes] == [2, 2, None]
        assert queue.counts == [2, 1]

    def test_pool_reports_mid_chunk_progress(self):
        # Two 4-item chunks of ~0.1 s items: chunk-granular reporting would
        # produce at most 3 callbacks, per-point counts produce more.
        seen = []
        ProcessExecutor(2, chunk_size=4).map(
            _slow_square, range(8), progress=lambda d, t: seen.append((d, t))
        )
        assert seen[-1] == (8, 8)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)
        assert len(seen) >= 4

    def test_no_progress_callback_skips_the_manager(self):
        executor = ProcessExecutor(2)
        manager, queue, drain = executor._progress_channel(None, 10)
        assert manager is None and queue is None
        drain(final=True)  # the no-op drain must be callable

