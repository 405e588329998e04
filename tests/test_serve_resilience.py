"""Serving-tier resilience: the replay journal, session resumption,
heartbeat/dead-peer liveness, admission shedding, and graceful drain."""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.core.evaluation import configs_for_log
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.rrc.events import MeasurementObject
from repro.serve import protocol
from repro.serve.protocol import frame, read_frame
from repro.serve.server import PrognosServer, ServerConfig
from repro.serve.session import ServingSession, SessionState

EVENT_CONFIGS = configs_for_log(OPX, (BandClass.LOW,))
#: (serving, neighbours, scoped) of a one-neighbour LTE tick.
_TICK_CELLS = (
    {MeasurementObject.LTE: 10, MeasurementObject.NR: None},
    {MeasurementObject.LTE: [11], MeasurementObject.NR: []},
    {MeasurementObject.LTE: [11], MeasurementObject.NR: []},
)


# ----------------------------------------------------------------------
# Replay journal unit semantics
# ----------------------------------------------------------------------


def test_journal_replays_exact_tail():
    state = SessionState("u", None, token="t", replay_limit=4)
    for i in range(1, 7):
        state.record(b"p%d" % i)
    assert state.out_seq == 6
    assert state.overflow == 2  # p1, p2 aged out
    assert state.replay_from(6) == []  # caught up
    assert state.replay_from(4) == [b"p5", b"p6"]
    assert state.replay_from(2) == [b"p3", b"p4", b"p5", b"p6"]
    # The cursor fell off the back of the journal: unreplayable.
    assert state.replay_from(1) is None


def test_journal_disabled_counts_overflow():
    state = SessionState("u", None, token="t", replay_limit=0)
    for i in range(3):
        state.record(b"p")
    assert state.out_seq == 3 and state.overflow == 3
    assert not state.journal
    assert state.replay_from(0) is None
    assert state.replay_from(3) == []  # nothing missed, nothing needed


def test_state_pickle_drops_connection():
    state = SessionState("u", None, token="tok", policy="disconnect", replay_limit=8)
    state.record(b"p1")
    state.conn = object()  # unpicklable on purpose
    state.dropped = 3
    clone = pickle.loads(pickle.dumps(state))
    assert clone.conn is None
    assert clone.token == "tok" and clone.policy == "disconnect"
    assert clone.out_seq == 1 and clone.dropped == 3
    assert list(clone.journal) == [b"p1"]


def test_batched_session_keeps_one_rrs_history():
    """The forecaster feeds Prognos's own RRS predictor, and a pickled
    (exported, then adopted) session still shares that one predictor."""
    session = ServingSession("u", EVENT_CONFIGS)
    shared = session.prognos.report_predictor.rrs
    assert session.forecaster.rrs is shared
    assert ServingSession("v", EVENT_CONFIGS, batched=False).forecaster is None
    for i in range(5):
        session.begin_tick(0.25 * i, {10: -80.0 - i, 11: -90.0}, *_TICK_CELLS)
    assert shared._cells
    state = SessionState("u", session, token="tok")
    clone = pickle.loads(pickle.dumps(state)).session
    assert clone.forecaster.rrs is clone.prognos.report_predictor.rrs
    assert clone.forecaster.rrs._cells.keys() == shared._cells.keys()
    clone.start_log()
    assert not clone.forecaster.rrs._cells and shared._cells


# ----------------------------------------------------------------------
# Raw-socket helpers (sequenced protocol v2)
# ----------------------------------------------------------------------


def _hello(session_id):
    return {
        "type": "hello",
        "version": protocol.PROTOCOL_VERSION,
        "session": session_id,
        "standalone": False,
        "policy": "drop",
        "events": protocol.encode_event_configs(EVENT_CONFIGS),
    }


def _resume(session_id, token, last_seq):
    return {
        "type": "resume",
        "version": protocol.PROTOCOL_VERSION,
        "session": session_id,
        "token": token,
        "seq": last_seq,
    }


async def _connect(port, handshake):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(frame(protocol.encode_json(handshake)))
    await writer.drain()
    reply = await read_frame(reader)
    return reader, writer, protocol.decode_json(reply)


def _tick_frame(i):
    rsrp = {10: -80.0 - 0.01 * i, 11: -92.0 + 0.02 * i}
    serving = {MeasurementObject.LTE: 10, MeasurementObject.NR: None}
    neighbours = {MeasurementObject.LTE: [11], MeasurementObject.NR: []}
    scoped = {MeasurementObject.LTE: [11], MeasurementObject.NR: []}
    return frame(
        protocol.encode_tick(
            0.25 * i, rsrp, serving, neighbours, scoped, seq=i + 1
        )
    )


_QUIET = dict(batched=True, heartbeat_s=0.0)  # no sweeper in raw-frame tests


# ----------------------------------------------------------------------
# Resumption end to end
# ----------------------------------------------------------------------


def test_resume_replays_missed_tail_bit_identically():
    async def main():
        async with PrognosServer(ServerConfig(**_QUIET)) as server:
            reader, writer, welcome = await _connect(server.port, _hello("res"))
            assert welcome["seq"] == 0 and welcome["resume"]
            token = welcome["resume"]
            for i in range(6):
                writer.write(_tick_frame(i))
            await writer.drain()
            originals = []
            for _ in range(6):
                payload = await read_frame(reader)
                assert payload[:1] == b"P"
                originals.append(payload)
            # The client "saw" only 3 predictions before the line died.
            writer.transport.abort()
            reader, writer, welcome = await _connect(
                server.port, _resume("res", token, 3)
            )
            assert welcome["type"] == "welcome" and welcome["resumed"]
            assert welcome["seq"] == 6
            for expected in originals[3:]:
                assert await read_frame(reader) == expected
            writer.write(frame(b"B"))
            await writer.drain()
            bye = protocol.decode_json(await read_frame(reader))
            assert bye["type"] == "bye"
            assert bye["answered"] == 6 and bye["lost"] == 0
            stats = server.stats()
            assert stats["resumed"] == 1 and stats["replayed"] == 3
            writer.close()

    asyncio.run(main())


def test_resume_resends_are_deduplicated():
    async def main():
        async with PrognosServer(ServerConfig(**_QUIET)) as server:
            reader, writer, welcome = await _connect(server.port, _hello("dup"))
            token = welcome["resume"]
            for i in range(4):
                writer.write(_tick_frame(i))
            await writer.drain()
            for _ in range(4):
                assert (await read_frame(reader))[:1] == b"P"
            writer.transport.abort()
            reader, writer, welcome = await _connect(
                server.port, _resume("dup", token, 4)
            )
            assert welcome["resumed"] and welcome["seq"] == 4
            # A client that cannot tell what the server applied resends
            # its last frames; seqs <= in_seq must be swallowed.
            for i in range(2, 5):
                writer.write(_tick_frame(i))
            await writer.drain()
            payload = await read_frame(reader)
            # Only the genuinely new tick (seq 5) produced a prediction.
            assert payload[:1] == b"P"
            assert protocol.decode_prediction(payload)[7] == 5
            writer.write(frame(b"B"))
            await writer.drain()
            bye = protocol.decode_json(await read_frame(reader))
            assert bye["ticks"] == 5 and bye["answered"] == 5
            writer.close()

    asyncio.run(main())


def test_resume_wrong_token_and_unknown_session_refused():
    async def main():
        async with PrognosServer(ServerConfig(**_QUIET)) as server:
            _r, w, welcome = await _connect(server.port, _hello("guard"))
            for bad in (
                _resume("guard", "0" * 32, 0),  # forged token
                _resume("nobody", "0" * 32, 0),  # no such session
            ):
                _r2, w2, reply = await _connect(server.port, bad)
                assert reply["type"] == "error"
                assert reply["code"] == "resume-miss"
                w2.close()
            assert server.stats()["resume_misses"] == 2
            w.close()

    asyncio.run(main())


def test_replay_overflow_refuses_resume_and_retires():
    async def main():
        config = ServerConfig(replay=2, **_QUIET)
        async with PrognosServer(config) as server:
            reader, writer, welcome = await _connect(server.port, _hello("ovf"))
            token = welcome["resume"]
            for i in range(6):
                writer.write(_tick_frame(i))
            await writer.drain()
            for _ in range(6):
                assert (await read_frame(reader))[:1] == b"P"
            writer.transport.abort()
            # Journal holds seqs 5..6 only; a cursor at 1 is unservable.
            _r, w, reply = await _connect(server.port, _resume("ovf", token, 1))
            assert reply["type"] == "error" and reply["code"] == "replay-overflow"
            w.close()
            assert server.stats()["replay_overflow"] >= 4
            # The refusal retired the state: same token now misses.
            _r, w, reply = await _connect(server.port, _resume("ovf", token, 6))
            assert reply["code"] == "resume-miss"
            w.close()
            # A fresh hello under the same id starts over cleanly.
            _r, w, welcome = await _connect(server.port, _hello("ovf"))
            assert welcome["type"] == "welcome" and welcome["seq"] == 0
            w.close()

    asyncio.run(main())


def test_sequence_gap_rejected():
    async def main():
        async with PrognosServer(ServerConfig(**_QUIET)) as server:
            reader, writer, _ = await _connect(server.port, _hello("gap"))
            writer.write(_tick_frame(0))
            writer.write(_tick_frame(2))  # seq 3 after seq 1
            await writer.drain()
            # The tick's prediction (flusher) and the gap error (reader
            # teardown) race onto the wire; order is not guaranteed.
            frames = []
            while True:
                payload = await asyncio.wait_for(read_frame(reader), timeout=5.0)
                if payload is None:
                    break
                frames.append(payload)
            errors = [
                protocol.decode_json(p) for p in frames if p[:1] == b"{"
            ]
            assert any(
                e["type"] == "error" and "sequence gap" in e["error"]
                for e in errors
            )
            writer.close()

    asyncio.run(main())


def test_newest_connection_wins_while_zombie_still_attached():
    """A resume that arrives before the server notices the old
    connection died (no RST seen yet) must still take the session
    over — the token proves ownership."""

    async def main():
        async with PrognosServer(ServerConfig(**_QUIET)) as server:
            reader, writer, welcome = await _connect(server.port, _hello("zomb"))
            token = welcome["resume"]
            for i in range(3):
                writer.write(_tick_frame(i))
            await writer.drain()
            for _ in range(3):
                assert (await read_frame(reader))[:1] == b"P"
            # Do NOT close the old socket: resume while it looks alive.
            r2, w2, welcome = await _connect(server.port, _resume("zomb", token, 3))
            assert welcome["resumed"] and welcome["seq"] == 3
            for i in range(3, 5):
                w2.write(_tick_frame(i))
            await w2.drain()
            for _ in range(2):
                assert (await read_frame(r2))[:1] == b"P"
            w2.write(frame(b"B"))
            await w2.drain()
            bye = protocol.decode_json(await read_frame(r2))
            assert bye["answered"] == 5 and bye["lost"] == 0
            writer.close()
            w2.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Liveness: heartbeats, dead peers, parked expiry
# ----------------------------------------------------------------------


def test_heartbeat_ping_then_dead_peer_eviction_then_resume():
    async def main():
        config = ServerConfig(batched=True, heartbeat_s=0.3)
        async with PrognosServer(config) as server:
            reader, writer, welcome = await _connect(server.port, _hello("mute"))
            token = welcome["resume"]
            writer.write(_tick_frame(0))
            await writer.drain()
            assert (await read_frame(reader))[:1] == b"P"
            # Going silent: first a ping, then the dead-peer bye.
            payload = await asyncio.wait_for(read_frame(reader), timeout=2.0)
            assert payload == b"H"
            payload = await asyncio.wait_for(read_frame(reader), timeout=2.0)
            bye = protocol.decode_json(payload)
            assert bye["type"] == "bye" and bye["reason"] == "dead_peer"
            assert bye["resume"] == token and bye["seq"] == 1
            stats = server.stats()
            assert stats["evicted_dead"] == 1
            assert stats["detached"] == 1  # parked, not destroyed
            # The "dead" peer was only stalled: resumption still works.
            r2, w2, welcome = await _connect(server.port, _resume("mute", token, 1))
            assert welcome["resumed"] and welcome["seq"] == 1
            w2.close()
            writer.close()

    asyncio.run(main())


def test_heartbeat_echo_keeps_session_alive():
    async def main():
        config = ServerConfig(batched=True, heartbeat_s=0.3)
        async with PrognosServer(config) as server:
            reader, writer, _ = await _connect(server.port, _hello("alive"))
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 1.5  # 5x heartbeat
            while loop.time() < deadline:
                payload = await asyncio.wait_for(read_frame(reader), timeout=2.0)
                assert payload == b"H", "session must only ever see pings"
                writer.write(frame(b"H"))
                await writer.drain()
            assert server.stats()["evicted_dead"] == 0
            writer.close()

    asyncio.run(main())


def test_parked_session_expires_after_idle_budget():
    async def main():
        config = ServerConfig(batched=True, heartbeat_s=0.2)
        async with PrognosServer(config) as server:
            reader, writer, welcome = await _connect(server.port, _hello("gone"))
            token = welcome["resume"]
            writer.write(_tick_frame(0))
            await writer.drain()
            assert (await read_frame(reader))[:1] == b"P"
            writer.transport.abort()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while server.stats()["evicted_idle"] == 0:
                assert loop.time() < deadline, "parked session never expired"
                await asyncio.sleep(0.05)
            _r, w, reply = await _connect(server.port, _resume("gone", token, 1))
            assert reply["type"] == "error" and reply["code"] == "resume-miss"
            w.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def test_admission_sheds_past_max_sessions():
    async def main():
        config = ServerConfig(max_sessions=1, **_QUIET)
        async with PrognosServer(config) as server:
            r1, w1, welcome = await _connect(server.port, _hello("first"))
            assert welcome["type"] == "welcome"
            _r2, w2, reply = await _connect(server.port, _hello("second"))
            assert reply["type"] == "busy"
            assert reply["retry_after"] > 0
            w2.close()
            assert server.stats()["shed"] == 1
            # Resumes are exempt: the session is already accounted.
            w1.transport.abort()
            r3, w3, resumed = await _connect(
                server.port, _resume("first", welcome["resume"], 0)
            )
            assert resumed["type"] == "welcome" and resumed["resumed"]
            w3.close()
            w1.close()

    asyncio.run(main())


def test_admission_recovers_after_session_finishes():
    async def main():
        config = ServerConfig(max_sessions=1, **_QUIET)
        async with PrognosServer(config) as server:
            reader, writer, _ = await _connect(server.port, _hello("a"))
            writer.write(frame(b"B"))
            await writer.drain()
            assert protocol.decode_json(await read_frame(reader))["type"] == "bye"
            writer.close()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while True:
                _r, w, reply = await _connect(server.port, _hello("b"))
                if reply["type"] == "welcome":
                    w.close()
                    break
                assert reply["type"] == "busy"
                w.close()
                assert loop.time() < deadline, "finished session never released"
                await asyncio.sleep(reply["retry_after"])

    asyncio.run(main())


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


def test_drain_flushes_then_byes_with_resume_token():
    async def main():
        async with PrognosServer(ServerConfig(**_QUIET)) as server:
            reader, writer, welcome = await _connect(server.port, _hello("dr"))
            token = welcome["resume"]
            for i in range(3):
                writer.write(_tick_frame(i))
            await writer.drain()
            state = server._sessions["dr"]
            while state.ticks_in < 3:  # accepted server-side = in flight
                await asyncio.sleep(0.005)
            predictions = 0
            await server.drain(2.0)
            # Every in-flight tick was served before the goodbye; the
            # bye names the reason and carries the resume credentials.
            while True:
                payload = await read_frame(reader)
                assert payload is not None
                if payload[:1] == b"P":
                    predictions += 1
                    continue
                bye = protocol.decode_json(payload)
                break
            assert predictions == 3
            assert bye["type"] == "bye" and bye["reason"] == "drain"
            assert bye["resume"] == token and bye["seq"] == 3
            assert bye["answered"] == 3 and bye["lost"] == 0
            assert await read_frame(reader) is None  # FIN, not RST
            writer.close()

    asyncio.run(main())


def test_drain_refuses_new_work_but_keeps_states():
    async def main():
        server = PrognosServer(ServerConfig(**_QUIET))
        await server.start()
        port = server.port
        reader, writer, welcome = await _connect(port, _hello("keep"))
        writer.write(_tick_frame(0))
        await writer.drain()
        assert (await read_frame(reader))[:1] == b"P"
        await server.drain(1.0)
        with pytest.raises((ConnectionError, OSError)):
            await _connect(port, _hello("late"))
        states = server.extract_states()
        assert [s.session_id for s in states] == ["keep"]
        assert states[0].out_seq == 1 and states[0].conn is None
        writer.close()
        await server.shutdown()

    asyncio.run(main())


def test_drained_state_adopted_by_successor():
    """The drain→export→adopt path a shard controller drives, end to
    end on two plain servers: the successor serves the resume."""

    async def main():
        old = PrognosServer(ServerConfig(**_QUIET))
        await old.start()
        reader, writer, welcome = await _connect(old.port, _hello("mig"))
        token = welcome["resume"]
        for i in range(4):
            writer.write(_tick_frame(i))
        await writer.drain()
        originals = [await read_frame(reader) for _ in range(4)]
        await old.drain(1.0)
        bye = protocol.decode_json(await read_frame(reader))
        assert bye["reason"] == "drain"
        states = old.extract_states()
        await old.shutdown()
        writer.close()

        async with PrognosServer(ServerConfig(**_QUIET)) as new:
            for state in states:
                new._adopt_state(state)
            r2, w2, welcome = await _connect(new.port, _resume("mig", token, 2))
            assert welcome["resumed"] and welcome["seq"] == 4
            for expected in originals[2:]:
                assert await read_frame(r2) == expected
            for i in range(4, 6):
                w2.write(_tick_frame(i))
            await w2.drain()
            for _ in range(2):
                assert (await read_frame(r2))[:1] == b"P"
            w2.write(frame(b"B"))
            await w2.drain()
            final = protocol.decode_json(await read_frame(r2))
            assert final["answered"] == 6 and final["lost"] == 0
            w2.close()

    asyncio.run(main())
