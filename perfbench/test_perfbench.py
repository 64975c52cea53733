"""Tests of the benchmark's own helpers, plus a small smoke run of each workload.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from stats import tail, valid_name, valid_unit  # noqa: E402
from tracer import Span, Tracer, self_time  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ self time


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping children (other threads' spans never nest, but a union
    # must not count shared time twice) and children running past the end.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0


def test_self_times_over_nested_spans():
    tracer = Tracer()
    outer = Span("outer", 0.0, None, "main")
    outer.end = 10.0
    middle = Span("middle", 1.0, outer, "main")
    middle.end = 7.0
    inner = Span("inner", 2.0, middle, "main")
    inner.end = 4.0
    tracer.spans = [inner, middle, outer]
    selfs = tracer.self_times()
    assert selfs == {outer: 4.0, middle: 4.0, inner: 2.0}
    assert sum(selfs.values()) == outer.duration


class _Target:
    def plain(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls().plain(x)


def test_patched_calls_nest_and_unpatch_restores():
    tracer = Tracer()
    originals = (_Target.__dict__["plain"], _Target.__dict__["build"])
    tracer.patch(_Target, "plain", "t.plain")
    tracer.patch(_Target, "build", "t.build")
    tracer.patch(_Target, "absent", "t.absent")
    assert _Target.build(1) == 2 and not tracer.spans  # inert while disabled
    tracer.enabled = True
    with tracer.paused():
        _Target.build(1)
    assert not tracer.spans
    assert _Target.build(1) == 2
    names = {span.name: span for span in tracer.spans}
    assert names["t.plain"].parent is names["t.build"]
    assert tracer.missing == {"_Target.absent"}
    tracer.unpatch()
    assert (_Target.__dict__["plain"], _Target.__dict__["build"]) == originals


class _Child(_Target):
    pass


def test_inherited_methods_are_patched_on_the_class_and_restored():
    tracer = Tracer()
    assert tracer.patch(_Child, "plain", "t.plain")
    assert tracer.patch(_Child, "build", "t.build")
    tracer.enabled = True
    assert _Child.build(1) == 2
    assert {span.name for span in tracer.spans} == {"t.plain", "t.build"}
    tracer.unpatch()
    assert "plain" not in vars(_Child) and "build" not in vars(_Child)
    assert _Target.build(1) == 2


def test_a_missing_hook_leaves_its_metrics_out():
    names = ["runtime.cache.get_s", "runtime.cache.hit_ratio", "runtime.cache.put_s",
             "runtime.executor.map_s", "runtime.executor.overhead_s",
             "runtime.results.decode_s"]
    ledger = {"points": 1, "cold_points": 1, "phases": {}, "counters": {},
              "busy_s": 0.0, "n_workers": 1, "remote_encode": False, "raw_points": 1,
              "raw_s": 1.0, "overhead": 0.0}
    got = layers.layer_metrics(Tracer(), ledger, names, {
        "runtime.cache.get", "runtime.executor.map"})
    assert list(got) == ["runtime.cache.put_s", "runtime.results.decode_s"]
    assert list(layers.layer_metrics(Tracer(), ledger, names)) == names


# ------------------------------------------------------------------ tail rule


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, percentile, n = tail(samples)
    assert (value, percentile, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    value, percentile, n = tail(list(range(1, 21)))
    assert (value, percentile) == (10.0, 50.0)


def test_tail_of_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([float(i) for i in range(10)]) == (9.0, 100.0, 10)
    assert tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        tail([])


# -------------------------------------------------------------- metric names


def test_metric_names_and_units_are_valid():
    for name in ("setup_s", "runtime.cache.hit_ratio", "a-b_c.9"):
        assert valid_name(name)
    for name in ("", "_x", "x y", "x/y", "ä", "x" * 65, "x\n"):
        assert not valid_name(name)
    for unit in ("s", "1/s", "MB", "%", "count"):
        assert valid_unit(unit)
    assert not valid_unit("per second")
    entries = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(valid_name(name) for name in names)
    assert all(valid_unit(e["unit"]) for e in entries if "unit" in e)
    assert all(0 < e["bound"] <= 0.25 for e in BENCHMARK["end_to_end"])
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


# ----------------------------------------------------------------- run loop


class _FakeWorkload:
    def __init__(self):
        self.rounds = 0

    def round(self, tracer):
        self.rounds += 1
        return type("R", (), {"timed_s": 1.0})()


def test_run_rounds_spreads_the_probes():
    workload, when = _FakeWorkload(), []
    plain, spanned, setups, untraced = run.run_rounds(
        workload, Tracer(), 6.0, probe=lambda: when.append(workload.rounds) or 0.5
    )
    assert len(plain) == 6 and not spanned and not untraced
    assert setups == [0.5] * run.SETUP_PROBES
    assert when[0] == 0 and when[-1] == 6 and len(set(when)) > 3


def _rounds(*seconds):
    return [type("R", (), {"points": 10, "seconds": s})() for s in seconds]


def test_block_rate_is_the_median_block():
    # Ten rounds in five blocks of two; one stalled round sinks only its block.
    rounds = _rounds(1, 1, 1, 1, 1, 1, 1, 1, 1, 50)
    assert run.block_rate(rounds, "points", "seconds") == 10.0
    # Fewer rounds than blocks: one block per round.
    rounds = _rounds(1, 4, 2)
    assert run.block_rate(rounds, "points", "seconds") == 5.0


# ---------------------------------------------------------------- smoke runs


def _session_members(sid: int) -> list[str]:
    """Pids of the processes, zombies included, in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while listed
        if int(fields[3]) == sid:
            members.append(stat.parent.name)
    return members


def _run(root: Path, *args, env=None) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own; none of it may outlive it."""
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=170)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert _session_members(child.pid) == [], "the benchmark left processes running"
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    shm_before = run.shm_segments()
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", trace, "--small",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.units("end_to_end" if trace == "0" else "per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert any(line.startswith(name + " ") for line in lines)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "nproc=" in lines[0] and "numpy=" in lines[0]
    assert not (ROOT / "perfbench" / "work").exists()
    assert run.shm_segments() <= shm_before


def test_refuses_environment_that_changes_the_program():
    env = dict(os.environ, REPRO_FAULTS="cache.get:raise")
    done = _run(ROOT, "--workload", "session-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", env=env)
    assert done.returncode != 0
    assert "REPRO_FAULTS" in done.stderr and not done.stdout.strip()
    assert run.forbidden_env({"REPRO_CACHE_DIR": "x", "REPRO_LOG": "1"}) == ["REPRO_CACHE_DIR"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "work", "out"))
    done = _run(tmp_path, "--workload", "session-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
