"""Prognos-as-a-service: the online micro-batched serving layer.

Offline replay (:func:`repro.core.evaluation.run_prognos_over_logs`)
answers "what would Prognos have predicted over this corpus"; this
package answers "what does Prognos predict *right now* for thousands of
concurrently connected UEs". A long-lived asyncio TCP server
(:mod:`repro.serve.server`) multiplexes per-UE sessions speaking a
length-prefixed binary protocol (:mod:`repro.serve.protocol`), and a
cross-session micro-batcher (:mod:`repro.serve.batcher` +
:mod:`repro.serve.forecast`) coalesces ready ticks from all sessions
into single batched forecast/trigger/MPC passes that are bit-identical
to the per-session scalar pipeline.

One engine process is one core; :mod:`repro.serve.shard` scales the
daemon across cores by forking ``REPRO_SERVE_SHARDS`` engine worker
processes behind an acceptor/controller that hands each UE session's
connection fd to the shard its session id hashes to, and
respawns/degrades crashed shards individually.

The closed-loop load generator (:mod:`repro.serve.loadgen`) drives
simulated clients from drive logs or corpus slices and measures
sessions/sec and per-tick latency percentiles for the bench
(``benchmarks/bench_serving.py`` → ``BENCH_serving.json``).
"""

from repro.serve.protocol import FrameDecoder, FrameError, MAX_FRAME
from repro.serve.server import PrognosServer, ServerConfig
from repro.serve.shard import ShardedPrognosServer, make_server

__all__ = [
    "FrameDecoder",
    "FrameError",
    "MAX_FRAME",
    "PrognosServer",
    "ServerConfig",
    "ShardedPrognosServer",
    "make_server",
]
