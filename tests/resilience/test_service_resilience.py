"""Service-layer resilience: reconnects, stall detection, claim faults, health."""

from __future__ import annotations

import json
import socket as socketlib
import threading
import time

import pytest

from repro.exceptions import ExecutionError
from repro.resilience import configure_faults
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceConnectionError, connect
from repro.service.worker import run_worker
from repro.telemetry import metrics

from _chaos_helpers import sweep_payloads


def test_client_request_survives_injected_disconnect(make_daemon):
    daemon = make_daemon()
    client = ServiceClient(daemon.socket_path)
    configure_faults("protocol.send:raise=ConnectionResetError@n=1")
    assert client.ping()["ok"]
    assert metrics.counter("resilience.retries") == 1
    assert metrics.counter("resilience.faults_injected") == 1


def test_client_without_retry_policy_fails_fast(make_daemon):
    daemon = make_daemon()
    client = ServiceClient(daemon.socket_path, retry=None)
    configure_faults("protocol.send:raise=BrokenPipeError@n=1")
    with pytest.raises(ServiceConnectionError):
        client.ping()
    assert client.ping()["ok"]


def test_connect_rides_out_the_startup_race(tmp_path):
    socket_path = tmp_path / "late.sock"
    server = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)

    def bind_later():
        time.sleep(0.3)
        server.bind(str(socket_path))
        server.listen(1)

    thread = threading.Thread(target=bind_later, daemon=True)
    thread.start()
    try:
        # Single-shot semantics are preserved: no window, immediate failure.
        with pytest.raises(ServiceConnectionError):
            connect(socket_path, retry_window=0.0)
        sock = connect(socket_path, retry_window=10.0)
        sock.close()
    finally:
        thread.join(timeout=5.0)
        server.close()


def test_wait_trips_only_on_a_true_stall(make_daemon):
    daemon = make_daemon(local_workers=0)  # nobody will ever drain the queue
    client = ServiceClient(daemon.socket_path)
    ack = client.submit_payloads(sweep_payloads(strategies=("direct",), steps=(1,)))
    with pytest.raises(ExecutionError, match="no progress"):
        client.wait(ack["job_id"], stall_timeout=0.3)


def test_worker_rides_out_claim_rejection(make_daemon):
    daemon = make_daemon(local_workers=0, chunk_size=2)
    client = ServiceClient(daemon.socket_path)
    configure_faults("daemon.claim:raise=OSError@n=1")
    payloads = sweep_payloads(strategies=("direct",), steps=(1, 2))
    ack = client.submit_payloads(payloads)
    exit_code = {}

    def drain():
        exit_code["value"] = run_worker(
            daemon.socket_path, worker_id="claim-chaos",
            poll_interval=0.02, max_idle=1.0,
        )

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    status = client.wait(ack["job_id"], timeout=60)
    assert status["state"] == "done"
    assert len(client.result(ack["job_id"])) == len(payloads)
    thread.join(timeout=30)
    assert exit_code["value"] == 0
    assert metrics.counter("resilience.faults_injected") >= 1


def test_health_reports_and_detects_degradation(make_daemon, tmp_path):
    daemon = make_daemon()
    client = ServiceClient(daemon.socket_path)
    health = client.health()
    assert health["healthy"]
    assert health["cache"]["writable"]
    assert health["reaper"]["ok"]
    assert set(health["resilience"]) >= {
        "retries", "fallbacks", "timeouts", "faults_injected",
    }
    assert "resilience" in client.stats()
    # Shadow the cache directory with a plain file: the writability probe
    # must fail and flip the verdict, with the error surfaced.
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    daemon.cache.directory = blocker / "nested"
    degraded = client.health()
    assert not degraded["healthy"]
    assert not degraded["cache"]["writable"]
    assert degraded["cache"]["error"]


def test_cli_health_subcommand(make_daemon, capsys):
    from repro.service.cli import main

    daemon = make_daemon()
    assert main(["health", "--socket", str(daemon.socket_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["healthy"]
    assert main(["health", "--socket", str(daemon.socket_path)]) == 0
    text = capsys.readouterr().out
    assert "healthy" in text and "resilience" in text


def test_health_has_no_shm_block(make_daemon, capsys):
    from repro.service.cli import main

    daemon = make_daemon()
    assert "shm" not in ServiceClient(daemon.socket_path).health()
    assert main(["health", "--socket", str(daemon.socket_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.startswith("shm")]
