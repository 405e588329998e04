"""Serving daemon end-to-end: offline bit-identity, backpressure
policies, fault injection, and the supervision ladder."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.evaluation import _replay_plan, configs_for_log, run_prognos_over_logs
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.rrc.events import MeasurementObject
from repro.serve import protocol
from repro.serve.loadgen import (
    build_script,
    run_load,
    spawn_server,
    stop_server,
)
from repro.serve.protocol import frame, read_frame
from repro.serve.server import PrognosServer, ServerConfig, _Connection
from repro.serve.session import ServingSession, SessionState
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario

EVENT_CONFIGS = configs_for_log(OPX, (BandClass.LOW,))


@pytest.fixture(scope="module")
def serve_logs():
    """Two short freeway drives shared by the end-to-end tests."""
    return run_drives(
        [
            freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=71),
            freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=72),
        ]
    )


# ----------------------------------------------------------------------
# End-to-end: both modes vs the offline evaluator
# ----------------------------------------------------------------------


def test_end_to_end_bit_identity_both_modes(serve_logs):
    """Sequential AND micro-batched servers must reproduce the offline
    ``run_prognos_over_logs`` prediction stream exactly, and agree with
    each other on every field including the ABR level."""
    offline = []
    for log in serve_logs:
        result = run_prognos_over_logs([log], EVENT_CONFIGS)
        offline.append(
            [(float(t), p) for t, p in zip(result.times_s, result.predictions)]
        )
    scripts = [
        build_script(serve_logs[i % 2], f"ue-{i:02d}", EVENT_CONFIGS)
        for i in range(6)
    ]
    by_mode = {}
    for mode in ("sequential", "batched"):
        pid, port = spawn_server(ServerConfig(batched=(mode == "batched")))
        try:
            result = run_load(port, scripts, collect=True)
        finally:
            exit_code = stop_server(pid)
        assert exit_code == 0, f"{mode} server did not shut down cleanly"
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
        by_mode[mode] = result.predictions
    assert by_mode["batched"] == by_mode["sequential"]


def test_midstream_disconnect_leaves_others_unharmed(serve_logs):
    scripts = [
        build_script(serve_logs[0], f"ue-{i}", EVENT_CONFIGS) for i in range(3)
    ]
    pid, port = spawn_server(ServerConfig(batched=True))
    try:
        result = run_load(port, scripts, abort_after={"ue-1": 5})
    finally:
        exit_code = stop_server(pid)
    assert exit_code == 0
    assert result.aborted == 1 and result.failed == 0
    assert result.completed == 2
    for sid in ("ue-0", "ue-2"):
        assert result.byes[sid]["answered"] == scripts[0].n_ticks


# ----------------------------------------------------------------------
# Protocol violations at the session layer
# ----------------------------------------------------------------------


def _hello(session_id, policy="drop", version=protocol.PROTOCOL_VERSION):
    return {
        "type": "hello",
        "version": version,
        "session": session_id,
        "standalone": False,
        "policy": policy,
        "events": protocol.encode_event_configs(EVENT_CONFIGS),
    }


async def _connect(port, hello):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(frame(protocol.encode_json(hello)))
    await writer.drain()
    reply = await read_frame(reader)
    return reader, writer, protocol.decode_json(reply)


def _tick_frame(i, time_s=None):
    rsrp = {10: -80.0 - 0.01 * i, 11: -92.0 + 0.02 * i}
    serving = {MeasurementObject.LTE: 10, MeasurementObject.NR: None}
    neighbours = {MeasurementObject.LTE: [11], MeasurementObject.NR: []}
    scoped = {MeasurementObject.LTE: [11], MeasurementObject.NR: []}
    return frame(
        protocol.encode_tick(
            0.25 * i if time_s is None else time_s,
            rsrp,
            serving,
            neighbours,
            scoped,
            seq=i + 1,
        )
    )


def test_duplicate_session_id_rejected():
    async def main():
        async with PrognosServer(ServerConfig()) as server:
            r1, w1, welcome = await _connect(server.port, _hello("dup"))
            assert welcome["type"] == "welcome"
            r2, w2, reply = await _connect(server.port, _hello("dup"))
            assert reply["type"] == "error"
            assert "duplicate" in reply["error"]
            w1.close()
            w2.close()

    asyncio.run(main())


def test_malformed_handshakes_rejected():
    async def main():
        async with PrognosServer(ServerConfig()) as server:
            for hello in (
                _hello("v", version=99),
                {"type": "nonsense", "version": protocol.PROTOCOL_VERSION},
                _hello("p", policy="blockhard"),
                {**_hello("e"), "events": []},
                {**_hello(""), "session": ""},
            ):
                _r, w, reply = await _connect(server.port, hello)
                assert reply["type"] == "error", hello
                w.close()
            # The server must still accept a well-formed session after
            # rejecting the garbage.
            _r, w, welcome = await _connect(server.port, _hello("ok"))
            assert welcome["type"] == "welcome"
            w.close()

    asyncio.run(main())


def test_unknown_tag_and_midstream_json_rejected():
    async def main():
        async with PrognosServer(ServerConfig()) as server:
            for junk in (b"X" + b"\x00" * 8, protocol.encode_json({"type": "hello"})):
                reader, writer, welcome = await _connect(
                    server.port, _hello(f"junk-{junk[:1]!r}")
                )
                assert welcome["type"] == "welcome"
                writer.write(frame(junk))
                await writer.drain()
                reply = await read_frame(reader)
                assert reply is not None and reply[:1] == b"{"
                assert protocol.decode_json(reply)["type"] == "error"
                writer.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Backpressure policies
# ----------------------------------------------------------------------


class _AbortRecorder:
    def __init__(self):
        self.aborted = False
        self.transport = self

    def abort(self):
        self.aborted = True


def test_drop_policy_unit_semantics():
    state = SessionState("u", None, token="t", policy="drop")
    conn = _Connection(state, None, _AbortRecorder(), "drop", 4)
    for i in range(10):
        conn.deliver(b"%d" % i)
    assert state.dropped == 6
    assert list(conn.outbox) == [b"6", b"7", b"8", b"9"]
    assert not conn.closed


def test_disconnect_policy_unit_semantics():
    writer = _AbortRecorder()
    state = SessionState("u", None, token="t", policy="disconnect")
    conn = _Connection(state, None, writer, "disconnect", 4)
    for i in range(10):
        conn.deliver(b"%d" % i)
    assert conn.closed and writer.aborted
    assert len(conn.outbox) == 4  # nothing evicted, nothing beyond the kill


def test_slow_client_drop_policy_end_to_end():
    """A consumer whose flusher is wedged loses oldest predictions but
    keeps its session: eviction counted, surfaced in frames and bye."""

    async def main():
        config = ServerConfig(batched=True, outbox_limit=4)
        async with PrognosServer(config) as server:
            reader, writer, _ = await _connect(server.port, _hello("slow"))
            state = server._sessions["slow"]
            conn = state.conn
            conn.flusher.cancel()  # wedge the consumer side
            for i in range(10):
                writer.write(_tick_frame(i))
            await writer.drain()
            while state.session.ticks < 10:  # all answered, not yet read
                await asyncio.sleep(0.01)
            assert state.pending == 0
            assert state.dropped == 6
            # Un-wedge: restart the flusher, drain what survived.
            conn.flusher = asyncio.create_task(server._flush_loop(conn))
            conn.out_event.set()
            survivors = []
            for _ in range(4):
                payload = await read_frame(reader)
                assert payload[:1] == b"P"
                survivors.append(protocol.decode_prediction(payload))
            assert survivors[-1][6] == 5  # evictions before it was encoded
            writer.write(frame(b"B"))
            await writer.drain()
            bye = protocol.decode_json(await read_frame(reader))
            assert bye["type"] == "bye"
            assert bye["ticks"] == 10 and bye["answered"] == 10
            assert bye["dropped"] == 6 and bye["lost"] == 0
            writer.close()

    asyncio.run(main())


def test_slow_client_disconnect_policy_end_to_end():
    async def main():
        config = ServerConfig(batched=True, outbox_limit=3)
        async with PrognosServer(config) as server:
            reader, writer, _ = await _connect(
                server.port, _hello("strict", policy="disconnect")
            )
            conn = server._sessions["strict"].conn
            conn.flusher.cancel()
            for i in range(10):
                writer.write(_tick_frame(i))
            await writer.drain()
            deadline = asyncio.get_running_loop().time() + 10.0
            while not conn.closed:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            try:
                assert await read_frame(reader) is None  # connection aborted
            except ConnectionError:
                pass  # an RST is an equally valid way to learn the news
            writer.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Engine supervision ladder
# ----------------------------------------------------------------------


def test_engine_crash_restarts_and_resyncs():
    async def main():
        async with PrognosServer(ServerConfig(batched=True)) as server:
            reader, writer, _ = await _connect(server.port, _hello("crashy"))
            server._inject_engine_fault = RuntimeError("injected engine fault")
            for i in range(8):
                writer.write(_tick_frame(i))
            await writer.drain()
            for _ in range(8):
                payload = await read_frame(reader)
                assert payload is not None and payload[:1] == b"P"
            writer.write(frame(b"B"))
            await writer.drain()
            bye = protocol.decode_json(await read_frame(reader))
            assert bye["answered"] == 8 and bye["lost"] == 0
            stats = server.stats()
            assert stats["engine_restarts"] == 1
            assert not stats["degraded"]
            writer.close()

    asyncio.run(main())


def test_engine_degrades_after_crash_budget():
    async def main():
        config = ServerConfig(batched=True, engine_restarts=0)
        async with PrognosServer(config) as server:
            reader, writer, _ = await _connect(server.port, _hello("victim"))
            server._inject_engine_fault = RuntimeError("injected engine fault")
            for i in range(5):
                writer.write(_tick_frame(i))
            await writer.drain()
            for _ in range(5):
                payload = await read_frame(reader)
                assert payload is not None and payload[:1] == b"P"
            # Degraded mode keeps serving: new ticks go inline.
            for i in range(5, 8):
                writer.write(_tick_frame(i))
            await writer.drain()
            for _ in range(3):
                payload = await read_frame(reader)
                assert payload is not None and payload[:1] == b"P"
            writer.write(frame(b"B"))
            await writer.drain()
            bye = protocol.decode_json(await read_frame(reader))
            assert bye["answered"] == 8 and bye["lost"] == 0
            stats = server.stats()
            assert stats["degraded"] and stats["engine_restarts"] == 1
            writer.close()

    asyncio.run(main())


def test_backlog_passes_take_ticks_enqueued_meanwhile(serve_logs):
    """Ticks another task enqueues while the engine works through one
    session's backlog join the next pass. Session A's whole backlog is
    queued at once; its first prediction schedules session B's ticks with
    ``call_soon``. Each pass takes one tick per session, so from then on
    every pass must carry one tick of each, and both streams must still
    be the offline replay's."""
    log = serve_logs[0]
    plan = _replay_plan(log, 1.0, 1)
    n = 120
    offline = run_prognos_over_logs([log], EVENT_CONFIGS)
    expected = [(float(t), p) for t, p in zip(offline.times_s, offline.predictions)][:n]

    async def main():
        async with PrognosServer(ServerConfig(batched=True)) as server:
            states = {
                sid: SessionState(sid, ServingSession(sid, EVENT_CONFIGS), token=sid)
                for sid in ("a", "b")
            }
            streams = {sid: [] for sid in states}

            def enqueue(state):
                # What the reader does per frame, minus the socket.
                events, e_idx = plan.events, 0
                for pos in range(n):
                    while e_idx < len(events) and events[e_idx][0] <= pos:
                        _, kind, payload, event_time = events[e_idx]
                        state.inbox.append(("R" if kind == 0 else "C", payload, event_time))
                        e_idx += 1
                    rsrp, serving, neighbours, scoped = plan.step_inputs[pos]
                    tick = (plan.step_times[pos], rsrp, serving, neighbours, scoped)
                    state.inbox.append(("T", tick + (False, 0.0, 0.0, 0)))
                    state.pending += 1
                    server._collector.put(state)

            deliver = server._deliver_prediction

            def spy(state, time_s, prediction, level):
                stream = streams[state.session_id]
                stream.append((float(time_s), prediction.ho_type))
                if state.session_id == "a" and len(stream) == 1:
                    asyncio.get_running_loop().call_soon(enqueue, states["b"])
                deliver(state, time_s, prediction, level)

            server._deliver_prediction = spy
            enqueue(states["a"])
            deadline = asyncio.get_running_loop().time() + 60.0
            while len(streams["b"]) < n:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            stats = server.stats()
            assert stats["batch_ticks"] == 2 * n
            assert stats["batch_ticks"] / stats["batches"] >= 1.8
            assert streams["a"] == expected
            assert streams["b"] == expected

    asyncio.run(main())

