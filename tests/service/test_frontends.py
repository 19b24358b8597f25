"""End-to-end front-end tests driving real daemon subprocesses.

The stdin front end is exercised through pipes; the TCP front end (line
protocol and its HTTP view) through real sockets against an ephemeral
port, including a client that disconnects mid-request.
"""

import json
import os
import socket
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

DESIGN = "rrot"
SCHEDULE = {"kind": "schedule", "design": DESIGN, "clock_period_ps": 2000}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _spawn(*flags):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.runner", "serve",
         "--jobs", "1", *flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=_env())


def _stopped_stats(stderr_text):
    for line in stderr_text.splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue  # e.g. interpreter warnings share the stream
        if event.get("event") == "stopped":
            return event["stats"]
    raise AssertionError(f"no stopped event on stderr: {stderr_text!r}")


def test_stdin_pipeline_coalesces_and_reports_errors():
    daemon = _spawn("--stdin")
    try:
        requests = [
            {"kind": "ping", "id": "p"},
            "this is not json",
            {**SCHEDULE, "id": 1},
            {**SCHEDULE, "id": 2},   # identical & pipelined -> coalesces
            {**SCHEDULE, "id": 3},
        ]
        lines = "".join(
            (raw if isinstance(raw, str) else json.dumps(raw)) + "\n"
            for raw in requests)
        out, err = daemon.communicate(lines, timeout=120)
    finally:
        daemon.kill()
    assert daemon.returncode == 0, err

    responses = [json.loads(line) for line in out.splitlines()]
    assert responses[0] == {"event": "ready"}
    by_id = {r["id"]: r for r in responses[1:] if "id" in r}
    assert by_id["p"]["result"] == {"pong": True}
    assert by_id["1"]["ok"] and by_id["2"]["ok"] and by_id["3"]["ok"]
    assert by_id["1"]["result"] == by_id["2"]["result"] == by_id["3"]["result"]

    bad = [r for r in responses[1:] if not r.get("ok") and "event" not in r]
    assert len(bad) == 1 and bad[0]["error"] == "bad-request"

    stats = _stopped_stats(err)
    assert stats["cold_done"] == 1
    assert stats["warm_hits"] + stats["coalesced"] == 2


@pytest.fixture
def tcp_daemon():
    daemon = _spawn("--port", "0")
    try:
        listening = json.loads(daemon.stdout.readline())
        assert listening["event"] == "listening"
        yield daemon, listening["host"], listening["port"]
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=30)


def _line_request(host, port, raw, timeout=120.0):
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(raw) + "\n").encode())
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    return json.loads(reply)


def _http_exchange(host, port, head, body=b"", timeout=120.0):
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    headers, _, payload = reply.partition(b"\r\n\r\n")
    status = int(headers.split()[1])
    return status, json.loads(payload)


def _http_post(host, port, raw, timeout=120.0):
    body = json.dumps(raw).encode()
    head = (f"POST / HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    return _http_exchange(host, port, head, body, timeout=timeout)


def test_tcp_line_and_http_views_share_one_cache(tcp_daemon):
    daemon, host, port = tcp_daemon

    cold = _line_request(host, port, {**SCHEDULE, "id": "a"})
    assert cold["ok"] is True and cold["served"] == "cold"

    # The HTTP view answers the same question from the same warm cache.
    status, warm = _http_post(host, port, SCHEDULE)
    assert status == 200
    assert warm["served"] == "warm"
    assert warm["result"] == cold["result"]

    status, stats = _http_exchange(
        host, port, f"GET /stats HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    assert status == 200
    assert stats["result"]["cold_done"] == 1
    assert stats["result"]["warm_hits"] == 1

    # Typed errors map to HTTP statuses.
    status, refused = _http_post(
        host, port, {"kind": "schedule", "design": "no-such-design",
                     "clock_period_ps": 1000})
    assert status == 422 and refused["error"] == "bad-design"
    status, malformed = _http_post(host, port, {"kind": "nope"})
    assert status == 400 and malformed["error"] == "bad-request"

    status, closing = _http_post(host, port, {"kind": "shutdown"})
    assert status == 200 and closing["result"] == {"closing": True}
    out, err = daemon.communicate(timeout=60)
    assert daemon.returncode == 0, err


def test_tcp_overlong_line_is_a_typed_error_then_close(tcp_daemon):
    daemon, host, port = tcp_daemon

    # A ~70 KB ping: valid JSON, but past the per-line limit.
    raw = {"kind": "ping", "id": "big", "pad": "x" * 70_000}
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall((json.dumps(raw) + "\n").encode())
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:  # the daemon hung up after answering
                break
            reply += chunk
    (line,) = reply.decode().splitlines()
    response = json.loads(line)
    assert response["ok"] is False and response["error"] == "bad-request"
    from repro.service.frontends import LINE_LIMIT
    assert f"{LINE_LIMIT}-byte limit" in response["message"]

    # The daemon keeps serving other connections.
    assert _line_request(host, port, {"kind": "ping"})["result"] == {
        "pong": True}
    _line_request(host, port, {"kind": "shutdown"})
    out, err = daemon.communicate(timeout=60)
    assert daemon.returncode == 0, err


@pytest.mark.parametrize("length", ["-5", "abc", "+7"])
def test_http_bad_content_length_is_a_400(tcp_daemon, length):
    daemon, host, port = tcp_daemon
    head = (f"POST / HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()
    status, refused = _http_exchange(host, port, head,
                                     json.dumps({"kind": "ping"}).encode())
    assert status == 400 and refused["error"] == "bad-request"
    assert f"Content-Length {length!r}" in refused["message"]
    assert _line_request(host, port, {"kind": "ping"})["ok"] is True


def test_http_non_utf8_body_is_a_400(tcp_daemon):
    daemon, host, port = tcp_daemon
    body = b'{"kind": "\xff"}'  # 0xff is never valid UTF-8
    head = (f"POST / HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    status, refused = _http_exchange(host, port, head, body)
    assert status == 400 and refused["error"] == "bad-request"
    assert "not JSON" in refused["message"]


def test_tcp_client_disconnect_leaves_the_daemon_serving(tcp_daemon):
    daemon, host, port = tcp_daemon

    # Send a cold request and slam the connection shut before the answer.
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall((json.dumps(SCHEDULE) + "\n").encode())
    assert daemon.poll() is None

    # The abandoned computation still lands in the cache: the next client
    # gets it warm -- possibly after a short wait for the solve to finish.
    for _ in range(200):
        response = _line_request(host, port, SCHEDULE)
        assert response["ok"] is True
        if response["served"] == "warm":
            break
    assert response["served"] == "warm"

    _line_request(host, port, {"kind": "shutdown"})
    out, err = daemon.communicate(timeout=60)
    assert daemon.returncode == 0, err
