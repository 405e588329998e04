"""The benchmark's output checks must fail on wrong output, not only print.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import offline  # noqa: E402
import serving  # noqa: E402
from repro.rrc.taxonomy import HandoverType  # noqa: E402
from repro.simulate.cache import DriveCache  # noqa: E402


@pytest.fixture
def tiny_corpus(monkeypatch, tmp_path):
    monkeypatch.setattr(offline, "WALK_MIN", 0.25)
    monkeypatch.setattr(offline, "FREEWAY_KM", 0.3)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
    monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "unused"))
    workdir = offline.Workdir(tmp_path)
    yield offline.corpus_scenarios(5), workdir
    workdir.close()


def _scale_shard_array(roots, drive_id: str, key: str, factor: float) -> None:
    """Rewrite one stored array in place, as a faulty store would serve it."""
    (index_path,) = roots.corpus.glob("shard-*.json")
    entry = json.loads(index_path.read_text())["drives"][drive_id]
    meta = entry["arrays"][key]
    dtype = np.dtype(meta["dtype"])
    start = entry["offset"] + meta["offset"]
    blob = np.memmap(index_path.with_suffix(".bin"), mode="r+", dtype=np.uint8)
    count = int(np.prod(meta["shape"]))
    view = blob[start : start + count * dtype.itemsize].view(dtype)
    view *= factor
    blob.flush()
    del blob


def test_warm_digest_matches_cold_and_catches_a_changed_store(tiny_corpus):
    scenarios, workdir = tiny_corpus
    roots = workdir.fresh()
    cold, cold_counters = offline.run_pass(scenarios, roots, 1)
    assert offline.state_problems("cold", cold_counters) == []
    reference = offline.digest(cold)

    warm, warm_counters = offline.run_pass(scenarios, roots, 1)
    assert offline.state_problems("warm", warm_counters) == []
    assert offline.digest_problems(offline.digest(warm), reference, "cold") == []

    # Halve one freeway drive's capacity in the shard: every cache still
    # hits, so only the output digest can tell the warm pass is wrong.
    drive_id = DriveCache.key_for(scenarios["freeway"][0])
    _scale_shard_array(roots, drive_id, "tick_total_capacity_mbps", 0.5)
    tampered, tampered_counters = offline.run_pass(scenarios, roots, 1)
    assert offline.state_problems("warm", tampered_counters) == []
    problems = offline.digest_problems(offline.digest(tampered), reference, "cold")
    assert problems and "differs" in problems[0]


def test_state_checks_reject_a_pass_of_the_wrong_kind(tiny_corpus):
    scenarios, workdir = tiny_corpus
    roots = workdir.fresh()
    _, cold = offline.run_pass(scenarios, roots, 1)
    _, warm = offline.run_pass(scenarios, roots, 1)
    assert any("missed the caches" in p for p in offline.state_problems("warm", cold))
    assert any("simulated 8 drives" in p for p in offline.state_problems("warm", cold))
    assert any("simulated 0 of 8" in p for p in offline.state_problems("cold", warm))
    warm.robust["retried_jobs"] = 1
    assert any("recovered" in p for p in offline.state_problems("warm", warm))


def test_served_stream_check_fails_on_a_tampered_stream(monkeypatch):
    monkeypatch.setattr(serving, "SCRIPT_KM", 0.3)
    monkeypatch.setattr(serving, "SCRIPT_TICKS", 120)
    prepared = serving.prepare(7, 2)
    server = serving.ServerProcess()
    try:
        done = serving.run_round(server.port, prepared, "test")
    finally:
        assert server.stop() == 0
    assert serving.check_round(done, prepared) == ([], 0)

    stream = done.streams[1]
    time_s, ho_type = stream[len(stream) // 2]
    other = HandoverType.NONE if ho_type is not HandoverType.NONE else HandoverType.LTEH
    stream[len(stream) // 2] = (time_s, other)
    problems, bad_ticks = serving.check_round(done, prepared)
    assert bad_ticks == 1
    assert len(problems) == 1 and "session 1: stream diverges" in problems[0]

    stream.pop()
    done.byes[0] = {**done.byes[0], "lost": 1}
    problems, bad_ticks = serving.check_round(done, prepared)
    assert bad_ticks == 2
    assert any("session 0: bye reports" in p for p in problems)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "offline_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_attributes_self_time_and_restores_the_program():
    import asyncio
    import time
    import types

    from tracer import Tracer

    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        module.inner()
        time.sleep(0.01)

    async def waiter():
        await asyncio.sleep(0.01)
        return [1, 2, 3]

    module.inner, module.outer, module.waiter = inner, outer, waiter
    tracer = Tracer()
    tracer.wrap(module, "inner", "b.inner")
    tracer.wrap(module, "outer", "a.outer")
    tracer.wrap(module, "waiter", "c.wait", lambda args, result: len(result))
    module.outer()
    assert asyncio.run(module.waiter()) == [1, 2, 3]
    tracer.uninstall()
    assert (module.inner, module.outer, module.waiter) == (inner, outer, waiter)

    layers = tracer.summary(lambda name: name.split(".")[0])
    assert layers["a"]["busy_s"] >= layers["a"]["self_s"] + layers["b"]["busy_s"] - 1e-9
    assert 0.009 < layers["b"]["self_s"] < layers["a"]["busy_s"]
    assert tracer.parents[tracer.indices("b.inner")[0]] == tracer.indices("a.outer")[0]
    assert tracer.units("c.wait") == 3
