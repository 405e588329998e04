"""Cross-session MPC batching: mpc_select_many vs scalar select.

A row carries the throughput its plans are scored at
(``algo.plan_throughput(predicted)``), so each comparison builds it from
the same algo state the scalar ``select`` reads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.abr.algorithms import (
    FastMpc,
    RateBased,
    RobustMpc,
    mpc_select_many,
)

LADDER_A = [3.0, 7.5, 12.0, 18.5, 28.5, 43.0]
LADDER_B = [0.3, 0.75, 1.2, 1.85, 2.85, 4.3]


def _algo_with_errors(cls, errors):
    algo = cls()
    for predicted, actual in errors:
        algo.observe_error(predicted, actual)
    return algo


def test_matches_scalar_select_across_state_and_ladders():
    rng = np.random.default_rng(42)
    entries = []
    scalars = []
    for i in range(60):
        cls = (RobustMpc, FastMpc)[i % 2]
        errors = [
            (float(rng.uniform(1, 50)), float(rng.uniform(1, 50)))
            for _ in range(int(rng.integers(0, 8)))
        ]
        algo = _algo_with_errors(cls, errors)
        twin = _algo_with_errors(cls, errors)
        levels = (LADDER_A, LADDER_B)[i % 3 == 0]
        buffer_s = float(rng.uniform(0.0, 30.0))
        last_level = int(rng.integers(0, len(levels)))
        predicted = float(rng.uniform(0.2, 60.0))
        chunk_s = (4.0, 2.0)[i % 5 == 0]
        rate = algo.plan_throughput(predicted)
        entries.append((algo, levels, buffer_s, last_level, rate, chunk_s))
        scalars.append(twin.select(levels, buffer_s, last_level, predicted, chunk_s))
    assert mpc_select_many(entries) == scalars


def test_empty_and_single_entry():
    assert mpc_select_many([]) == []
    algo = RobustMpc()
    entry = (algo, LADDER_A, 8.0, 2, algo.plan_throughput(20.0), 4.0)
    assert mpc_select_many([entry]) == [
        RobustMpc().select(LADDER_A, 8.0, 2, 20.0, 4.0)
    ]


def test_mixed_groups_keep_result_order():
    """Entries from different ladders/chunk sizes interleave; results
    must come back in input order, each equal to its scalar twin."""
    entries, scalars = [], []
    for i in range(12):
        levels = LADDER_A if i % 2 else LADDER_B
        chunk_s = 4.0 if i % 3 else 2.0
        algo, twin = RobustMpc(), RobustMpc()
        if i % 4 == 0:
            algo.observe_error(10.0, 5.0)
            twin.observe_error(10.0, 5.0)
        rate = algo.plan_throughput(5.0 + i)
        entries.append((algo, levels, float(i), i % len(levels), rate, chunk_s))
        scalars.append(twin.select(levels, float(i), i % len(levels), 5.0 + i, chunk_s))
    assert mpc_select_many(entries) == scalars


def test_rejects_non_mpc_algorithms():
    with pytest.raises(TypeError):
        mpc_select_many([(RateBased(), LADDER_A, 8.0, 0, 10.0, 4.0)])


def test_select_many_advances_no_state():
    """Selection is pure: running it must not change the error window,
    so batched and sequential servers stay in lockstep."""
    algo = RobustMpc()
    algo.observe_error(10.0, 8.0)
    before = list(algo._recent_errors)
    mpc_select_many([(algo, LADDER_A, 4.0, 1, 12.0, 4.0)] * 3)
    assert list(algo._recent_errors) == before


def test_row_keeps_the_discount_it_was_made_with():
    """A row scores at the throughput of the moment it was made: error
    feedback the same algo takes afterwards (a later tick of the session,
    in the same engine pass) must not reach it."""
    algo, twin = RobustMpc(), RobustMpc()
    for a in (algo, twin):
        a.observe_error(10.0, 9.0)
    expected = twin.select(LADDER_A, 12.0, 3, 30.0, 4.0)
    row = (algo, LADDER_A, 12.0, 3, algo.plan_throughput(30.0), 4.0)
    algo.observe_error(30.0, 3.0)  # a 900% miss: discount 1/10
    assert algo.select(LADDER_A, 12.0, 3, 30.0, 4.0) != expected
    assert mpc_select_many([row]) == [expected]
