"""Sharded serving layer: fd handoff, hash routing, crash resync,
resume affinity, the orphan pool, quiet teardown, knobs.

The end-to-end tests run the controller in-process (``async with
ShardedPrognosServer(...)``) so they can reach into shard bookkeeping
— pids, pending handoffs, restart counters — while real forked engine
processes serve real TCP clients.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time
import warnings
from types import SimpleNamespace

import pytest

from repro.core.evaluation import configs_for_log, run_prognos_over_logs
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.serve import protocol
from repro.serve.loadgen import build_script, run_load, spawn_server, stop_server
from repro.serve.server import ServerConfig
from repro.serve.shard import (
    ShardedPrognosServer,
    make_server,
    recv_handoff,
    resolve_shards,
    send_handoff,
    serve_shards,
    shard_for_session,
)
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario

EVENT_CONFIGS = configs_for_log(OPX, (BandClass.LOW,))


@pytest.fixture(scope="module")
def serve_logs():
    """Two short freeway drives shared by the end-to-end tests."""
    return run_drives(
        [
            freeway_scenario(OPX, BandClass.LOW, length_km=0.8, seed=81),
            freeway_scenario(OPX, BandClass.LOW, length_km=0.8, seed=82),
        ]
    )


@pytest.fixture(scope="module")
def offline(serve_logs):
    """The oracle prediction stream per drive."""
    streams = []
    for log in serve_logs:
        result = run_prognos_over_logs([log], EVENT_CONFIGS)
        streams.append(
            [(float(t), p) for t, p in zip(result.times_s, result.predictions)]
        )
    return streams


def _scripts(serve_logs, session_ids):
    return [
        build_script(serve_logs[i % 2], sid, EVENT_CONFIGS)
        for i, sid in enumerate(session_ids)
    ]


def _assert_bit_identity(result, scripts, offline):
    assert result.failed == 0 and result.completed == len(scripts)
    for i, script in enumerate(scripts):
        bye = result.byes[script.session_id]
        assert bye["answered"] == bye["ticks"] == script.n_ticks
        assert bye["dropped"] == 0 and bye["lost"] == 0
        expected = offline[i % 2]
        got = result.predictions[script.session_id]
        assert len(got) == len(expected)
        for (t, ho, _s, _sim, _lead, _lvl), (rt, rho) in zip(got, expected):
            assert t == rt and ho is rho


# ----------------------------------------------------------------------
# Units: hashing, fd handoff wire, knob resolution
# ----------------------------------------------------------------------


def test_shard_hash_stable_and_in_range():
    for n in (1, 2, 4, 7):
        for sid in ("", "ue-0001", "α-session", "x" * 300):
            shard = shard_for_session(sid, n)
            assert 0 <= shard < n
            assert shard == shard_for_session(sid, n)  # stable
    hits = {shard_for_session(f"ue-{i:04d}", 4) for i in range(64)}
    assert hits == {0, 1, 2, 3}  # spreads across all shards


def test_handoff_roundtrip_carries_fd_and_payload():
    """send_handoff/recv_handoff round-trip the sequence number, the
    handshake payload, and a *working* duplicate of the socket."""
    chan_a, chan_b = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    client, server_side = socket.socketpair()
    try:
        payload = b'{"type":"hello","session":"rt"}'
        send_handoff(chan_a, 42, payload, server_side.fileno())
        seq, got, fd = recv_handoff(chan_b)
        assert (seq, got) == (42, payload)
        adopted = socket.socket(fileno=fd)
        server_side.close()  # the original duplicate is gone...
        client.sendall(b"ping")
        assert adopted.recv(16) == b"ping"  # ...the adopted copy works
        adopted.sendall(b"pong")
        assert client.recv(16) == b"pong"
        adopted.close()
    finally:
        chan_a.close()
        chan_b.close()
        client.close()


def test_handoff_recv_on_drained_socket_raises_blocking():
    chan_a, chan_b = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    chan_b.setblocking(False)
    try:
        with pytest.raises(BlockingIOError):
            recv_handoff(chan_b)
    finally:
        chan_a.close()
        chan_b.close()


def test_shards_env_knob_validated(monkeypatch):
    from repro import settings
    from repro.serve.server import PrognosServer

    monkeypatch.setattr(settings, "_warned", set())
    monkeypatch.setenv("REPRO_SERVE_SHARDS", "3")
    assert serve_shards() == 3
    assert resolve_shards(ServerConfig()) == 3
    assert resolve_shards(ServerConfig(shards=5)) == 5  # explicit wins
    default = max(1, (os.cpu_count() or 2) - 1)
    for bad in ("lots", "0", "-2", "2.5", "nan", "inf"):
        monkeypatch.setenv("REPRO_SERVE_SHARDS", bad)
        with pytest.warns(RuntimeWarning, match="REPRO_SERVE_SHARDS"):
            assert serve_shards() == default
        # Warn-once: the same broken value stays silent afterwards.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert serve_shards() == default
    for bad in ("often", "-1", "nan", "inf"):
        monkeypatch.setenv("REPRO_SERVE_HEARTBEAT_S", bad)
        with pytest.warns(RuntimeWarning, match="REPRO_SERVE_HEARTBEAT_S"):
            assert PrognosServer(ServerConfig()).heartbeat_s == 30.0


def test_make_server_dispatch():
    from repro.serve.server import PrognosServer

    assert isinstance(make_server(ServerConfig(shards=1)), PrognosServer)
    assert isinstance(make_server(ServerConfig(shards=2)), ShardedPrognosServer)


# ----------------------------------------------------------------------
# End-to-end: bit-identical to the offline oracle
# ----------------------------------------------------------------------


def test_sharded_end_to_end_bit_identity(serve_logs, offline):
    scripts = _scripts(serve_logs, [f"ue-{i:02d}" for i in range(6)])
    config = ServerConfig(batched=True, shards=2)
    pid, port = spawn_server(config)
    try:
        result = run_load(port, scripts, collect=True)
    finally:
        exit_code = stop_server(pid)
    assert exit_code == 0, "controller did not shut down cleanly"
    _assert_bit_identity(result, scripts, offline)
    # Consistent hashing pins each session to its computed shard.
    for script in scripts:
        assert result.byes[script.session_id]["shard"] == shard_for_session(
            script.session_id, 2
        )


def test_uneven_distribution_still_completes(serve_logs, offline):
    """Every session hashed onto one shard of two: the hot shard serves
    them all, the idle one stays healthy, nothing stalls."""
    skewed = [f"skew-{i}" for i in range(40) if shard_for_session(f"skew-{i}", 2) == 0]
    assert len(skewed) >= 4
    scripts = _scripts(serve_logs, skewed[:5])
    config = ServerConfig(batched=True, shards=2)
    pid, port = spawn_server(config)
    try:
        result = run_load(port, scripts, collect=True)
    finally:
        exit_code = stop_server(pid)
    assert exit_code == 0
    _assert_bit_identity(result, scripts, offline)
    assert {result.byes[s.session_id]["shard"] for s in scripts} == {0}


# ----------------------------------------------------------------------
# Crash ladder: respawn, inbox resync, sibling isolation, degradation
# ----------------------------------------------------------------------


async def _poll(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while True:
        if predicate():
            return
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(interval_s)


async def _run_session(port, script, *, pause_after=None, resume=None):
    """Drive one scripted session over asyncio; returns (predictions, bye)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(protocol.frame(protocol.encode_json(script.hello)))
    await writer.drain()
    welcome = protocol.decode_json(await protocol.read_frame(reader))
    assert welcome["type"] == "welcome"
    predictions = []
    for step, (buf, _off) in enumerate(script.steps):
        if pause_after is not None and step == pause_after:
            await resume()
        writer.write(bytes(buf))
        await writer.drain()
        payload = await protocol.read_frame(reader)
        assert payload is not None and payload[:1] == b"P"
        t, ho, *_rest = protocol.decode_prediction(payload)
        predictions.append((t, ho))
    writer.write(protocol.frame(b"B"))
    await writer.drain()
    bye = protocol.decode_json(await protocol.read_frame(reader))
    assert bye["type"] == "bye"
    writer.close()
    return predictions, bye, welcome


def test_killed_shard_respawns_and_siblings_stay_bit_identical(
    serve_logs, offline
):
    """SIGKILL one shard mid-run: the controller reaps and respawns it,
    a sibling session in flight on the other shard is untouched (its
    stream stays byte-identical to the oracle), and new sessions for
    the dead shard land on the successor with the restart surfaced in
    their bye."""

    async def main():
        survivor_sid = next(
            f"live-{i}" for i in range(100) if shard_for_session(f"live-{i}", 2) == 0
        )
        victim_sid = next(
            f"dead-{i}" for i in range(100) if shard_for_session(f"dead-{i}", 2) == 1
        )
        survivor = build_script(serve_logs[0], survivor_sid, EVENT_CONFIGS)
        replacement = build_script(serve_logs[1], victim_sid, EVENT_CONFIGS)
        config = ServerConfig(batched=True, shards=2)
        async with ShardedPrognosServer(config) as server:
            victim_shard = server._shards[1]
            old_pid = victim_shard.pid

            async def kill_victim():
                os.kill(old_pid, signal.SIGKILL)
                await _poll(
                    lambda: victim_shard.restarts == 1
                    and victim_shard.ready.is_set()
                    and victim_shard.pid != old_pid
                )

            # The survivor session crosses the kill mid-stream.
            predictions, bye, welcome = await _run_session(
                server.port,
                survivor,
                pause_after=survivor.n_ticks // 2,
                resume=kill_victim,
            )
            assert welcome["shard"] == 0 and bye["shard"] == 0
            assert bye["lost"] == 0 and bye["dropped"] == 0
            assert predictions == offline[0]

            # A new session for the killed shard runs on the successor.
            predictions, bye, _welcome = await _run_session(
                server.port, replacement
            )
            assert bye["shard"] == 1 and bye["shard_restarts"] == 1
            assert predictions == offline[1]

            stats = await server.stats()
            assert stats["restarts"] == 1
            per_shard = {s["shard"]: s for s in stats["per_shard"]}
            assert per_shard[1]["restarts"] == 1 and not per_shard[1]["degraded"]
            assert per_shard[0]["restarts"] == 0
            assert per_shard[0]["engine"]["sessions_total"] == 1
            assert per_shard[1]["engine"]["sessions_total"] == 1  # post-respawn

    asyncio.run(main())


def test_handoff_resync_after_stopped_shard_killed(serve_logs):
    """A client whose handshake was routed to a SIGSTOPped shard is not
    lost when that shard is killed: the controller still holds the fd
    (unacknowledged handoff) and resyncs it to the respawned shard."""

    async def main():
        sid = next(
            f"sync-{i}" for i in range(100) if shard_for_session(f"sync-{i}", 2) == 1
        )
        script = build_script(serve_logs[0], sid, EVENT_CONFIGS)
        config = ServerConfig(batched=True, shards=2)
        async with ShardedPrognosServer(config) as server:
            shard = server._shards[1]
            os.kill(shard.pid, signal.SIGSTOP)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(protocol.frame(protocol.encode_json(script.hello)))
            await writer.drain()
            # The handshake is routed but cannot be adopted: it parks in
            # the controller's pending set.
            await _poll(lambda: len(shard.pending) == 1, timeout_s=10.0)
            os.kill(shard.pid, signal.SIGKILL)
            welcome = protocol.decode_json(
                await asyncio.wait_for(protocol.read_frame(reader), timeout=30.0)
            )
            assert welcome["type"] == "welcome" and welcome["shard"] == 1
            # The successor adopted it; the controller released its dup.
            await _poll(lambda: len(shard.pending) == 0, timeout_s=10.0)
            assert shard.restarts == 1
            writer.write(protocol.frame(b"B"))
            await writer.drain()
            bye = protocol.decode_json(await protocol.read_frame(reader))
            assert bye["type"] == "bye" and bye["shard_restarts"] == 1
            writer.close()

    asyncio.run(main())


def test_shard_degrades_alone_past_restart_budget(serve_logs, offline):
    """Past the restart budget the shard respawns inline-sequential —
    that shard alone; the sibling keeps its micro-batch engine."""

    async def main():
        config = ServerConfig(batched=True, shards=2, shard_restarts=0)
        async with ShardedPrognosServer(config) as server:
            shard = server._shards[1]
            old_pid = shard.pid
            os.kill(old_pid, signal.SIGKILL)
            await _poll(
                lambda: shard.restarts == 1
                and shard.ready.is_set()
                and shard.pid != old_pid
            )
            assert shard.degraded and not server._shards[0].degraded
            stats = await server.stats()
            per_shard = {s["shard"]: s for s in stats["per_shard"]}
            assert per_shard[1]["degraded"]
            assert per_shard[1]["engine"]["batched"] is False
            assert per_shard[0]["engine"]["batched"] is True
            # Degraded still serves correctly.
            sid = next(
                f"deg-{i}"
                for i in range(100)
                if shard_for_session(f"deg-{i}", 2) == 1
            )
            script = build_script(serve_logs[0], sid, EVENT_CONFIGS)
            predictions, bye, _welcome = await _run_session(server.port, script)
            assert bye["shard"] == 1 and bye["shard_restarts"] == 1
            assert predictions == offline[0]

    asyncio.run(main())


async def _open(port, message):
    """Connect and send one handshake frame; returns (reader, writer,
    the server's first reply)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(protocol.frame(protocol.encode_json(message)))
    await writer.drain()
    return reader, writer, protocol.decode_json(await protocol.read_frame(reader))


def _resume(session_id, token, seq):
    return {
        "type": "resume",
        "version": protocol.PROTOCOL_VERSION,
        "session": session_id,
        "token": token,
        "seq": seq,
    }


def test_resume_returns_to_owner_shard(serve_logs, offline):
    """A session dropped mid-stream without a bye resumes on the shard
    that served it: the hash sends the resume back to its slot, the
    shard claims its exported state from the controller's orphan pool,
    and the journalled tail replays byte for byte."""

    async def main():
        script = build_script(serve_logs[0], "affine-0", EVENT_CONFIGS)
        cut = script.n_ticks // 2
        seen = cut - 3  # the client "missed" the last three predictions
        async with ShardedPrognosServer(ServerConfig(batched=True, shards=2)) as server:
            reader, writer, welcome = await _open(server.port, script.hello)
            originals = []
            for buf, _off in script.steps[:cut]:
                writer.write(bytes(buf))
                await writer.drain()
                originals.append(await protocol.read_frame(reader))
            writer.transport.abort()  # no bye: the shard parks and exports
            await _poll(lambda: script.session_id in server._orphans)

            resume = _resume(script.session_id, welcome["resume"], seen)
            reader, writer, resumed = await _open(server.port, resume)
            assert resumed["type"] == "welcome" and resumed["resumed"]
            assert resumed["seq"] == cut
            assert resumed["shard"] == welcome["shard"]
            assert welcome["shard"] == shard_for_session(script.session_id, 2)
            tail = [await protocol.read_frame(reader) for _ in range(cut - seen)]
            assert tail == originals[seen:]

            predictions = [tuple(protocol.decode_prediction(p)[:2]) for p in originals]
            for buf, _off in script.steps[cut:]:
                writer.write(bytes(buf))
                await writer.drain()
                payload = await protocol.read_frame(reader)
                predictions.append(tuple(protocol.decode_prediction(payload)[:2]))
            writer.write(protocol.frame(b"B"))
            await writer.drain()
            bye = protocol.decode_json(await protocol.read_frame(reader))
            assert bye["shard"] == welcome["shard"] and bye["resumes"] == 1
            assert bye["answered"] == script.n_ticks and bye["lost"] == 0
            writer.close()
            stats = await server.stats()
        assert predictions == offline[0]
        assert stats["orphans_claimed"] == 1 and stats["resumed"] == 1

    asyncio.run(main())


def test_forged_resume_misses_and_leaves_orphan_parked(serve_logs):
    """A resume that cannot prove ownership is refused as a resume miss
    and leaves the parked session banked: its owner's token still
    resumes it afterwards."""

    async def main():
        script = build_script(serve_logs[1], "parked-0", EVENT_CONFIGS)
        cut = script.n_ticks // 2
        async with ShardedPrognosServer(ServerConfig(batched=True, shards=2)) as server:
            reader, writer, welcome = await _open(server.port, script.hello)
            token = welcome["resume"]
            for buf, _off in script.steps[:cut]:
                writer.write(bytes(buf))
                await writer.drain()
                assert (await protocol.read_frame(reader))[:1] == b"P"
            writer.transport.abort()
            await _poll(lambda: script.session_id in server._orphans)

            for bad in (
                _resume(script.session_id, "0" * len(token), cut),  # forged token
                _resume("never-parked", token, cut),  # nobody exported it
            ):
                _r, w, reply = await _open(server.port, bad)
                assert reply["type"] == "error" and reply["code"] == "resume-miss"
                w.close()
            assert script.session_id in server._orphans
            assert server.orphans_claimed == 0

            _r, w, resumed = await _open(
                server.port, _resume(script.session_id, token, cut)
            )
            assert resumed["type"] == "welcome" and resumed["resumed"]
            assert resumed["seq"] == cut
            w.close()
            stats = await server.stats()
        assert stats["resume_misses"] == 2 and stats["orphans_claimed"] == 1

    asyncio.run(main())


class _ControlSink:
    """Stands in for a shard's control writer; keeps each reply."""

    def __init__(self):
        self.replies = []

    def write(self, line: bytes) -> None:
        self.replies.append(json.loads(line))


def _claim(server, session_id, token):
    shard = SimpleNamespace(control_writer=_ControlSink())
    message = {"t": "claim", "id": 7, "session": session_id, "token": token}
    server._answer_claim(shard, message)
    (reply,) = shard.control_writer.replies
    assert reply["t"] == "state" and reply["id"] == 7
    return reply["blob"]


def test_claim_answers_from_pool_or_misses():
    """The controller hands a parked session out once, and only for its
    own token; a forged or missing token, or an unknown id, misses
    without touching the pool."""
    server = ShardedPrognosServer(ServerConfig(shards=2))
    server._store_orphan(
        {"t": "export", "session": "ue-1", "token": "a" * 32, "blob": "YmxvYg=="}
    )
    assert _claim(server, "ue-1", "b" * 32) is None
    assert _claim(server, "ue-1", None) is None
    assert _claim(server, "ue-2", "a" * 32) is None
    assert list(server._orphans) == ["ue-1"] and server.orphans_claimed == 0
    assert _claim(server, "ue-1", "a" * 32) == "YmxvYg=="
    assert not server._orphans and server.orphans_claimed == 1
    assert _claim(server, "ue-1", "a" * 32) is None


def test_orphan_pool_is_bounded_fifo(monkeypatch):
    """Past ORPHAN_POOL_MAX the oldest parked session is dropped and
    counted; a re-export replaces its entry at the young end; a
    malformed export is ignored."""
    import repro.serve.shard as shard_mod

    monkeypatch.setattr(shard_mod, "ORPHAN_POOL_MAX", 3)
    server = ShardedPrognosServer(ServerConfig(shards=2))
    for sid in ("a", "b", "c"):
        server._store_orphan({"session": sid, "token": f"t-{sid}", "blob": "eA=="})
    server._store_orphan({"session": "a", "token": "t-a2", "blob": "eQ=="})
    assert server.orphans_dropped == 0
    server._store_orphan({"session": "d", "token": "t-d", "blob": "eA=="})
    assert list(server._orphans) == ["c", "a", "d"]
    assert server._orphans["a"] == ("t-a2", "eQ==")
    assert server.orphans_dropped == 1
    server._store_orphan({"session": "e", "token": 7, "blob": "eA=="})
    server._store_orphan({"session": "e", "token": "t-e"})
    assert list(server._orphans) == ["c", "a", "d"]
    assert server.orphans_dropped == 1


# ----------------------------------------------------------------------
# Daemon teardown: a wedged or orphaned server can never leak
# ----------------------------------------------------------------------

#: What a shard printed on fd 2 when a SIGTERM raced its teardown.
TEARDOWN_NOISE = (
    "Task was destroyed but it is pending",
    "was never awaited",
    "signal wakeup fd",
)


def test_sharded_daemon_stops_quietly(capfd):
    """Spawn/stop cycles of an idle 2-shard daemon exit 0 and print
    nothing from the shards: a shard that reported drained exits
    unsignalled, and a signalled shard unhooks SIGTERM before its loop
    closes. The first cycles stop the daemon the moment spawn_server
    returns, which must find its SIGTERM handler already installed."""
    for cycle in range(12):
        pid, _port = spawn_server(ServerConfig(shards=2))
        if cycle >= 4:
            time.sleep(0.2)  # let the shards settle idle
        assert stop_server(pid) == 0
    err = capfd.readouterr().err
    for message in TEARDOWN_NOISE:
        assert message not in err, err


def test_stop_server_escalates_to_sigkill():
    """A daemon that ignores SIGTERM is killed and reaped on expiry."""
    # The child confirms over a pipe that SIG_IGN is installed before the
    # parent fires SIGTERM — otherwise the signal can land first and the
    # child dies with -SIGTERM instead of proving the SIGKILL escalation.
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        os.write(write_fd, b"x")
        os.close(write_fd)
        time.sleep(600)
        os._exit(0)
    os.close(write_fd)
    assert os.read(read_fd, 1) == b"x"
    os.close(read_fd)
    t0 = time.monotonic()
    exit_code = stop_server(pid, timeout_s=0.5)
    assert exit_code == -signal.SIGKILL
    assert time.monotonic() - t0 < 5.0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)  # really reaped: nothing left to wait for


def test_client_death_mid_handshake_leaves_no_orphans():
    """A client that connects, half-sends a hello, and vanishes must not
    wedge teardown: stop_server reaps the whole daemon tree."""
    config = ServerConfig(batched=True, shards=2)
    pid, port = spawn_server(config)
    try:
        sock = socket.create_connection(("127.0.0.1", port))
        sock.sendall(b"\x00\x00")  # truncated length prefix, then die
        sock.close()
        # And one that stays connected but silent (parked in the
        # controller's handshake read) while we tear down.
        parked = socket.create_connection(("127.0.0.1", port))
    finally:
        exit_code = stop_server(pid, timeout_s=10.0)
    parked.close()
    assert exit_code == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)
