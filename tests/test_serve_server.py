"""Serving daemon end-to-end: offline bit-identity, backpressure
policies, fault injection, and the supervision ladder."""

from __future__ import annotations

import asyncio
import socket

import numpy as np
import pytest

from repro.apps.abr.algorithms import RobustMpc
from repro.apps.abr.prediction import HarmonicMeanPredictor
from repro.core.evaluation import _replay_plan, configs_for_log, run_prognos_over_logs
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.rrc.events import MeasurementObject
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.loadgen import (
    DEFAULT_CHUNK_S,
    DEFAULT_LEVELS_MBPS,
    build_script,
    run_load,
    spawn_server,
    stop_server,
)
from repro.serve.protocol import FrameDecoder, frame, read_frame
from repro.serve.server import PrognosServer, ServerConfig, _apply_frame, _Connection
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


def test_stalled_load_names_where_each_client_stopped(serve_logs):
    """A load that stops moving fails with each unfinished client's
    position, not just a count: a peer that accepts but never answers
    leaves both clients waiting for their welcome."""
    scripts = [
        build_script(serve_logs[0], f"ue-stall-{i}", EVENT_CONFIGS, max_ticks=3)
        for i in range(2)
    ]
    with socket.create_server(("127.0.0.1", 0)) as mute:
        with pytest.raises(TimeoutError) as excinfo:
            run_load(mute.getsockname()[1], scripts, timeout_s=0.3)
    message = str(excinfo.value)
    assert "stalled with 2 clients active" in message
    for i in range(2):
        assert (
            f"ue-stall-{i} state=hello step=0 last_seq=0 wait_action=None "
            "reconnects=0 resumes=0"
        ) in message


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


def _inbox_items(log, n, rng=None):
    """A drive's first ``n`` ticks and their due events as inbox items,
    what the reader queues per frame. With ``rng`` every tick wants ABR,
    with throughput, buffer and last-level feedback drawn per tick."""
    plan = _replay_plan(log, 1.0, 1)
    items, events, e_idx = [], plan.events, 0
    for pos in range(n):
        while e_idx < len(events) and events[e_idx][0] <= pos:
            _, kind, payload, event_time = events[e_idx]
            items.append(("R" if kind == 0 else "C", payload, event_time))
            e_idx += 1
        rsrp, serving, neighbours, scoped = plan.step_inputs[pos]
        feedback = (False, 0.0, 0.0, 0)
        if rng is not None:
            feedback = (
                True,
                float(rng.uniform(2.0, 50.0)),
                float(rng.uniform(0.0, 30.0)),
                int(rng.integers(0, len(DEFAULT_LEVELS_MBPS))),
            )
        tick = (float(plan.step_times[pos]), rsrp, serving, neighbours, scoped)
        items.append(("T", tick + feedback))
    return items


def _queue(server, state, items):
    """What the reader does per frame, minus the socket."""
    for item in items:
        state.inbox.append(item)
        if item[0] == "T":
            state.ticks_in += 1
            state.pending += 1
            if state.pending == 1:
                server._collector.put(state)


def _register(server, sid, **abr):
    session = ServingSession(sid, EVENT_CONFIGS, **abr)
    state = SessionState(sid, session, token=sid, replay_limit=1024)
    server._sessions[sid] = state
    return state


async def _until(predicate, timeout_s=60.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)


def test_backlog_passes_take_ticks_enqueued_meanwhile(serve_logs):
    """A session's queued backlog is served in one engine pass. Session
    A's 120 ticks are queued at once and take one pass; its first
    prediction queues session B's 120 ticks with ``call_soon``, which
    take the next. Both streams must still be the offline replay's."""
    log = serve_logs[0]
    n = 120
    offline = run_prognos_over_logs([log], EVENT_CONFIGS)
    expected = [(float(t), p) for t, p in zip(offline.times_s, offline.predictions)][:n]
    items = _inbox_items(log, n)

    async def main():
        async with PrognosServer(ServerConfig(batched=True)) as server:
            states = {sid: _register(server, sid) for sid in ("a", "b")}
            streams = {sid: [] for sid in states}
            deliver = server._deliver_prediction

            def spy(state, time_s, prediction, level):
                stream = streams[state.session_id]
                stream.append((float(time_s), prediction.ho_type))
                if state.session_id == "a" and len(stream) == 1:
                    asyncio.get_running_loop().call_soon(
                        _queue, server, states["b"], items
                    )
                deliver(state, time_s, prediction, level)

            server._deliver_prediction = spy
            _queue(server, states["a"], items)
            await _until(lambda: len(streams["b"]) == n)
            stats = server.stats()
            assert stats["batch_ticks"] == 2 * n
            assert stats["batches"] == 2
            assert streams["a"] == expected
            assert streams["b"] == expected

    asyncio.run(main())


def test_pass_order_matches_sequential_pipeline(serve_logs):
    """Pin the frame order inside multi-tick passes. One session's whole
    stream is queued at once: drive A, ``S``, drive A again cut right
    after its first measurement report (the phase still open), ``S``,
    drive B, every tick wanting ABR with per-tick feedback. The served
    stream, ABR levels included, must equal the sequential pipeline's.

    Two wrong passes fail here: MPC rows that read the robustMPC
    discount when the pass scores them (a later tick of the session has
    fed the error window by then) change early ABR levels, and an ``S``
    applied ahead of ticks already taken leaks the open phase's report
    into drive B's first prediction."""
    drive_a, drive_b = serve_logs
    rng = np.random.default_rng(2)
    a_again = _inbox_items(drive_a, 11, rng)
    # The cut leaves the report in, its handover command out.
    assert [item[0] for item in a_again[-3:]] == ["T", "R", "T"]
    items = (
        _inbox_items(drive_a, 200, rng)
        + [("S",)]
        + a_again
        + [("S",)]
        + _inbox_items(drive_b, 200, rng)
    )

    reference = ServingSession("ref", EVENT_CONFIGS, batched=False)
    algo, rate, last_predicted = RobustMpc(), HarmonicMeanPredictor(), None
    expected = []
    for item in items:
        if item[0] != "T":
            _apply_frame(reference, item)
            continue
        t, rsrp, serving, neighbours, scoped, _abr, observed, buffer_s, last = item[1]
        p = reference.step_sequential(t, rsrp, serving, neighbours, scoped)
        # §7.4's player loop: error feedback, rate observation, select.
        if last_predicted is not None:
            algo.observe_error(last_predicted, observed)
        rate.observe(observed)
        last_predicted = rate.predict_mbps()
        level = algo.select(
            DEFAULT_LEVELS_MBPS, buffer_s, last, last_predicted, DEFAULT_CHUNK_S
        )
        expected.append((t, p.ho_type, p.ho_score, p.similarity, p.lead_time_s, level))

    async def main():
        async with PrognosServer(ServerConfig(batched=True)) as server:
            state = _register(
                server,
                "pin",
                levels_mbps=DEFAULT_LEVELS_MBPS,
                chunk_s=DEFAULT_CHUNK_S,
            )
            _queue(server, state, items)
            await _until(lambda: state.pending == 0)
            return list(state.journal), server.batches

    journal, batches = asyncio.run(main())
    served = [
        protocol.decode_prediction(payload)
        for payload in FrameDecoder().feed(b"".join(journal))
    ]
    assert [p[:6] for p in served] == expected
    assert [p[7] for p in served] == list(range(1, len(expected) + 1))
    assert batches == 3  # each S behind taken ticks ended a pass


def test_engine_crash_mid_pass_loses_the_taken_backlog(monkeypatch, serve_logs):
    """A crash inside a pass loses every tick the pass had taken — a
    session's whole queued backlog — counted in ``lost``; the restarted
    engine answers the ticks queued after it."""
    calls = []
    forecast = server_module.forecast_batch

    def fails_once(jobs):
        calls.append(len(jobs))
        if len(calls) == 1:
            raise RuntimeError("injected forecast fault")
        return forecast(jobs)

    monkeypatch.setattr(server_module, "forecast_batch", fails_once)
    items = _inbox_items(serve_logs[0], 16)
    first = [i for i, item in enumerate(items) if item[0] == "T"][8]

    async def main():
        async with PrognosServer(ServerConfig(batched=True)) as server:
            state = _register(server, "crashy")
            _queue(server, state, items[:first])
            await _until(lambda: server.engine_restarts == 1)
            assert state.lost == 8 and state.pending == 0
            _queue(server, state, items[first:])
            await _until(lambda: state.pending == 0)
            stats = server.stats()
            assert stats["engine_restarts"] == 1 and not stats["degraded"]
            assert stats["lost"] == 8
            assert state.session.ticks == 8
            assert state.session.ticks + state.lost == state.ticks_in == 16
            assert state.out_seq == 8

    asyncio.run(main())
    assert calls == [8, 8]
