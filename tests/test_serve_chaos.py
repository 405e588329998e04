"""Network chaos end to end: the ``REPRO_FAULTS`` network family fired
by the load generator against live servers, with every session's merged
prediction stream held bit-identical to the offline oracle — including
across a SIGKILLed shard and a rolling drain in the same run."""

from __future__ import annotations

import asyncio
import os
import signal
from functools import partial

import pytest

from repro.core.evaluation import configs_for_log, run_prognos_over_logs
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust import faults
from repro.serve.loadgen import build_script, run_load, spawn_server, stop_server
from repro.serve.server import ServerConfig
from repro.serve.shard import ShardedPrognosServer
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario

EVENT_CONFIGS = configs_for_log(OPX, (BandClass.LOW,))

#: Every network fault family at once; probabilities tuned so a short
#: cohort still sees a handful of each (draws are sha256-deterministic,
#: so the exact event set reproduces run to run).
CHAOS_SPEC = (
    "conn_reset:p=0.03,"
    "frame_truncate:p=0.015,"
    "byte_corrupt:p=0.015,"
    "stall_s:p=0.01:hang_s=0.3,"
    "reconnect_storm:p=0.01"
)


@pytest.fixture(scope="module")
def chaos_logs():
    return run_drives(
        [
            freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=171),
            freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=172),
        ]
    )


@pytest.fixture
def chaos_spec(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, CHAOS_SPEC)
    faults.reset()
    yield CHAOS_SPEC
    faults.reset()


def _scripts(chaos_logs, n):
    return [
        build_script(chaos_logs[i % len(chaos_logs)], f"ue-{i:02d}", EVENT_CONFIGS)
        for i in range(n)
    ]


def _assert_streams_match_oracle(chaos_logs, scripts, result):
    oracle = []
    for log in chaos_logs:
        run = run_prognos_over_logs([log], EVENT_CONFIGS)
        oracle.append([(float(t), p) for t, p in zip(run.times_s, run.predictions)])
    for i, script in enumerate(scripts):
        expected = oracle[i % len(chaos_logs)][: script.n_ticks]
        got = result.predictions[script.session_id]
        assert len(got) == len(expected), (
            f"{script.session_id}: {len(got)} predictions vs oracle "
            f"{len(expected)}"
        )
        for (t, ho, _sc, _sim, _lead, _lvl), (rt, rho) in zip(got, expected):
            assert t == rt and ho is rho, (
                f"{script.session_id} diverged from the offline oracle at t={t}"
            )


def test_chaos_stream_invariant_single_server(chaos_logs, chaos_spec):
    """Disconnects, truncations, corruption, stalls and storms against
    one server process: every session completes and its merged stream
    equals the offline replay."""
    scripts = _scripts(chaos_logs, 4)
    pid, port = spawn_server(ServerConfig(batched=True, shards=1, heartbeat_s=0.5))
    try:
        result = run_load(port, scripts, collect=True, chaos=True)
    finally:
        exit_code = stop_server(pid)
    assert exit_code == 0
    assert result.failed == 0 and result.completed == len(scripts)
    # The spec must actually have bitten; the counters are
    # deterministic for a fixed (spec, cohort) pair.
    assert result.resets > 0 and result.resumes > 0
    assert result.restarts == 0, "no session should have lost its journal"
    assert result.resume_p50_ms is not None
    _assert_streams_match_oracle(chaos_logs, scripts, result)


def test_chaos_determinism_same_spec_same_counters(chaos_logs, chaos_spec):
    """Two identical chaos runs draw identical fault sequences: same
    resets, same resumes, same replayed streams."""
    scripts = _scripts(chaos_logs, 3)
    outcomes = []
    for _ in range(2):
        faults.reset()
        pid, port = spawn_server(
            ServerConfig(batched=True, shards=1, heartbeat_s=0.5)
        )
        try:
            result = run_load(port, scripts, collect=True, chaos=True)
        finally:
            assert stop_server(pid) == 0
        assert result.failed == 0 and result.completed == len(scripts)
        outcomes.append(
            (result.resets, result.resumes, result.restarts, result.predictions)
        )
    assert outcomes[0] == outcomes[1]


def test_chaos_sharded_kill_and_rolling_drain(chaos_logs, chaos_spec):
    """The acceptance run: injected network faults + one SIGKILLed
    shard + a rolling drain, in a single drive-through, with every
    merged stream bit-identical to the oracle."""
    scripts = _scripts(chaos_logs, 6)
    config = ServerConfig(batched=True, shards=2, heartbeat_s=1.0, drain_s=2.0)

    async def main():
        async with ShardedPrognosServer(config) as server:
            loop = asyncio.get_running_loop()
            # A stalled load must fail inside the 300-s test alarm:
            # asyncio.run's shutdown waits for this executor thread.
            future = loop.run_in_executor(
                None,
                partial(
                    run_load,
                    server.port,
                    scripts,
                    collect=True,
                    chaos=True,
                    timeout_s=60.0,
                ),
            )
            await asyncio.sleep(0.6)
            victim = server._shards[0].pid
            os.kill(victim, signal.SIGKILL)  # unplanned shard loss
            await asyncio.sleep(0.6)
            await server.rolling_drain(1.0)  # planned, one slot at a time
            result = await future
            stats = await server.stats()
            pids = [shard.pid for shard in server._shards]
        return result, stats, pids

    result, stats, pids = asyncio.run(main())
    assert result.failed == 0 and result.completed == len(scripts)
    assert result.resumes > 0
    _assert_streams_match_oracle(chaos_logs, scripts, result)
    # The controller respawned the killed slot (the rolling-drain
    # reforks are planned and skip the crash tally); nothing may
    # outlive the daemon.
    assert stats["restarts"] >= 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
