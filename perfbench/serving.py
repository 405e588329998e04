"""The ``serve_pipelined`` workload: one batched engine core under a full window.

One forked single-shard batched ``PrognosServer``; one generator process
drives it over ``connections`` TCP connections. Each connection is a
fresh session replaying a long OpX low-band freeway script with
``WINDOW`` ticks in flight, so the engine is never idle and every batch
holds one tick per connection. Window-1 closed loops flip between
lockstep and staggered phase from round to round, and slow open-loop
pacing measures host wake-up rather than the program; a full window
measures capacity: ticks per second per engine core.

The client patches each tick's ABR feedback once, at build time, with
fields that do not depend on the server's answers, so every round sends
the same bytes whatever the timing. The check is the prediction stream:
every session's ``(t, ho_type)`` sequence must equal the offline
``run_prognos_over_logs([log])`` oracle for its drive.
"""

from __future__ import annotations

import gc
import os
import resource
import selectors
import socket
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import evaluation
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.serve import loadgen, protocol
from repro.serve.batcher import BatchCollector
from repro.serve.protocol import ABR_PATCH, ABR_PATCH_OFFSET, FrameDecoder, frame
from repro.serve.server import ServerConfig
from repro.serve.session import ServingSession
from repro.simulate import runner
from repro.simulate.scenarios import freeway_scenario

from report import Result
from tracer import Tracer, first_arg_len

#: A 2.8-km drive is 1,440-1,700 ticks; every session replays its first
#: ``SCRIPT_TICKS`` (a minute of driving at 20 Hz), so a round is the
#: same work whatever the seed.
SCRIPT_KM = 2.8
SCRIPT_TICKS = 1200
WINDOW = 8
#: Ticks per session in the untimed warm-up round.
WARMUP_TICKS = 400
#: Fixed ABR feedback patched into every tick (see the module docstring).
ABR_BUFFER_S = loadgen.START_BUFFER_S
ABR_LAST_LEVEL = 2
ROUND_TIMEOUT_S = 60.0
#: Timed rounds per run, at least.
MIN_ROUNDS = 3
#: Set-up repetitions (drives, scripts, oracle, server spawn, warm-up).
SETUP_REPS = 3


@dataclass
class Prepared:
    """Everything the load needs, built once per set-up."""

    steps: list  # per connection: list of per-tick frame bytes
    hellos: list  # per connection: the hello dict (session id patched per round)
    oracle: list  # per connection: [(t, ho_type), ...]
    ticks: int = 0


def prepare(seed: int, connections: int) -> Prepared:
    """Simulate the drives, pre-encode the scripts, replay the oracle."""
    rng = np.random.default_rng(seed)
    scenarios = [
        freeway_scenario(OPX, BandClass.LOW, length_km=SCRIPT_KM, seed=int(s))
        for s in rng.integers(1, 2**31 - 1, size=connections)
    ]
    logs = runner.run_drives(scenarios, connections, use_cache=False)
    configs = evaluation.configs_for_log(OPX, (BandClass.LOW,))
    steps, hellos, oracle = [], [], []
    for i, log in enumerate(logs):
        script = loadgen.build_script(log, f"ue-{i}", configs)
        if len(script.steps) < SCRIPT_TICKS:
            raise ValueError(
                f"script {i} has {len(script.steps)} ticks, fewer than {SCRIPT_TICKS}"
            )
        encoded = []
        for (buf, tick_off), observed in zip(
            script.steps[:SCRIPT_TICKS], script.observed_mbps[:SCRIPT_TICKS]
        ):
            ABR_PATCH.pack_into(
                buf, tick_off + ABR_PATCH_OFFSET, observed, ABR_BUFFER_S, ABR_LAST_LEVEL
            )
            encoded.append(bytes(buf))
        steps.append(encoded)
        hellos.append(script.hello)
        replay = evaluation.run_prognos_over_logs([log], configs)
        oracle.append(list(zip(replay.times_s.tolist(), replay.predictions))[:SCRIPT_TICKS])
    return Prepared(steps, hellos, oracle, sum(len(s) for s in steps))


@dataclass
class _Conn:
    session: str
    steps: list
    sock: socket.socket
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    out: bytearray = field(default_factory=bytearray)
    sent: int = 0
    received: int = 0
    t_send: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)
    stream: list = field(default_factory=list)
    state: str = "hello"
    bye: dict | None = None
    error: str | None = None


@dataclass
class RoundResult:
    wall_s: float
    t0_ns: int
    t1_ns: int
    latencies_ns: list
    streams: dict
    byes: dict
    errors: dict


def _flush(sel, conn: _Conn) -> None:
    if conn.out:
        try:
            n = conn.sock.send(conn.out)
        except BlockingIOError:
            n = 0
        del conn.out[:n]
    events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
    sel.modify(conn.sock, events, conn)


def _fill(conn: _Conn) -> None:
    limit = len(conn.steps)
    while conn.sent < limit and conn.sent - conn.received < WINDOW:
        conn.out += conn.steps[conn.sent]
        conn.t_send.append(time.perf_counter_ns())
        conn.sent += 1


def _on_frame(conn: _Conn, payload: bytes) -> None:
    tag = payload[:1]
    if tag == b"P":
        t_recv = time.perf_counter_ns()
        time_s, ho_type, *_rest, seq = protocol.decode_prediction(payload)
        if seq != conn.received + 1:
            raise RuntimeError(f"{conn.session}: prediction seq {seq} out of order")
        conn.latencies_ns.append(t_recv - conn.t_send[conn.received])
        conn.stream.append((time_s, ho_type))
        conn.received += 1
        if conn.received == len(conn.steps):
            conn.out += frame(b"B")
            conn.state = "bye"
        else:
            _fill(conn)
        return
    if tag != b"{":
        raise RuntimeError(f"{conn.session}: unexpected frame tag {tag!r}")
    message = protocol.decode_json(payload)
    kind = message.get("type")
    if kind == "welcome" and conn.state == "hello":
        conn.state = "run"
        _fill(conn)
    elif kind == "bye" and conn.state == "bye":
        conn.bye = message
        conn.state = "done"
    else:
        conn.error = f"unexpected {kind!r} in state {conn.state}: {message}"
        conn.state = "done"


def run_round(port: int, prepared: Prepared, tag: str, limit: int | None = None) -> RoundResult:
    """Replay every script once, each over a fresh session, window ``WINDOW``."""
    sel = selectors.DefaultSelector()
    conns: list[_Conn] = []
    t0 = time.perf_counter_ns()
    try:
        for i, (steps, hello) in enumerate(zip(prepared.steps, prepared.hellos)):
            session = f"{tag}-{i}"
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(session, steps[:limit] if limit else steps, sock)
            conn.out += frame(protocol.encode_json({**hello, "session": session}))
            sel.register(sock, selectors.EVENT_READ, conn)
            conns.append(conn)
            _flush(sel, conn)
        deadline = time.monotonic() + ROUND_TIMEOUT_S
        while any(c.state != "done" for c in conns):
            if time.monotonic() > deadline:
                raise TimeoutError(f"round {tag} stalled")
            for key, mask in sel.select(timeout=1.0):
                conn = key.data
                if mask & selectors.EVENT_READ:
                    data = conn.sock.recv(1 << 16)
                    if not data:
                        conn.error = "server closed the connection mid-session"
                        conn.state = "done"
                    for payload in conn.decoder.feed(data):
                        _on_frame(conn, payload)
                if conn.state == "done":
                    sel.unregister(conn.sock)
                else:
                    _flush(sel, conn)
        t1 = time.perf_counter_ns()
    finally:
        for conn in conns:
            conn.sock.close()
        sel.close()
    return RoundResult(
        wall_s=(t1 - t0) / 1e9,
        t0_ns=t0,
        t1_ns=t1,
        latencies_ns=[ns for c in conns for ns in c.latencies_ns],
        streams={i: c.stream for i, c in enumerate(conns)},
        byes={i: c.bye for i, c in enumerate(conns)},
        errors={i: c.error for i, c in enumerate(conns) if c.error},
    )


def check_round(
    result: RoundResult, prepared: Prepared, limit: int | None = None
) -> tuple[list[str], int]:
    """Every way a round's output can be wrong, and the ticks answered wrongly.

    A tick fails when its prediction is missing or differs from the
    offline oracle; a session fails on any problem at all.
    """
    problems = [f"session {i}: {err}" for i, err in result.errors.items()]
    bad_ticks = 0
    for i, expect in enumerate(prepared.oracle):
        expect = expect[:limit] if limit else expect
        got = result.streams.get(i, [])
        if got != expect:
            wrong = [k for k, (g, e) in enumerate(zip(got, expect)) if g != e]
            bad_ticks += len(wrong) + max(0, len(expect) - len(got))
            first = wrong[0] if wrong else min(len(got), len(expect))
            problems.append(
                f"session {i}: stream diverges from the offline oracle at tick "
                f"{first} ({len(got)} predictions vs {len(expect)})"
            )
        bye = result.byes.get(i)
        if bye is None:
            problems.append(f"session {i}: no bye")
        elif bye.get("dropped") or bye.get("lost") or bye.get("answered") != len(expect):
            problems.append(f"session {i}: bye reports {bye}")
    return problems, bad_ticks


def _failed_sessions(problems: list[str]) -> int:
    return len({p.split(":", 1)[0] for p in problems})


class ServerProcess:
    """A forked single-shard batched daemon, accounted from outside."""

    def __init__(self):
        self.pid, self.port = loadgen.spawn_server(ServerConfig(batched=True, shards=1))

    def cpu_s(self) -> float:
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        return loadgen.stop_server(self.pid)


# ----------------------------------------------------------------------
# Tracing (installed in the parent, inherited by the forked server)
# ----------------------------------------------------------------------

SPAN_NAMES = (
    "serve.decode",
    "serve.encode",
    "serve.begin_tick",
    "serve.forecast_batch",
    "serve.finish_tick",
    "serve.mpc",
)


def install_server_tracing(tracer: Tracer, dump_path: Path) -> None:
    """Wrap the engine's entry points; the server dumps its spans at shutdown."""
    from repro.serve import server as server_module

    parent = os.getpid()
    tracer.wrap(protocol, "decode_tick", "serve.decode")
    tracer.wrap(protocol, "encode_prediction", "serve.encode")
    tracer.wrap(ServingSession, "begin_tick", "serve.begin_tick")
    tracer.wrap(ServingSession, "finish_tick", "serve.finish_tick")
    tracer.wrap(server_module, "forecast_batch", "serve.forecast_batch", first_arg_len)
    tracer.wrap(server_module, "mpc_select_many", "serve.mpc")

    # Queue wait: each put -> the collect that hands the entry to the engine.
    queued: defaultdict = defaultdict(deque)
    put = tracer.original(BatchCollector, "put")
    collect = tracer.original(BatchCollector, "collect")

    def traced_put(self, item):
        queued[id(item)].append(time.perf_counter_ns())
        put(self, item)

    async def traced_collect(self):
        batch = await collect(self)
        now = time.perf_counter_ns()
        for item in batch:
            tracer.record("wait.queue", queued[id(item)].popleft(), now)
        return batch

    shutdown = tracer.original(server_module.PrognosServer, "shutdown")

    async def traced_shutdown(self, *args, **kwargs):
        try:
            return await shutdown(self, *args, **kwargs)
        finally:
            if os.getpid() != parent:
                tracer.dump(dump_path)

    tracer.patch(BatchCollector, "put", traced_put)
    tracer.patch(BatchCollector, "collect", traced_collect)
    tracer.patch(server_module.PrognosServer, "shutdown", traced_shutdown)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


@dataclass
class Load:
    """Timed rounds against one server, with outside-in accounting."""

    walls: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    latencies_ns: list = field(default_factory=list)
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    sessions_failed: int = 0
    dropped: int = 0
    lost: int = 0

    @property
    def ticks(self) -> int:
        return len(self.latencies_ns)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(np.asarray(self.latencies_ns, dtype=float), q) / 1e6)

    def round_of(self, t_ns: int) -> int:
        """The timed round ``t_ns`` falls in, or -1."""
        for k, (a, b) in enumerate(self.windows):
            if a <= t_ns <= b:
                return k
        return -1


def _client_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def drive_load(server: ServerProcess, prepared: Prepared, seconds: float, tag: str, result: Result) -> Load:
    load = Load()
    t_start = time.perf_counter()
    k = 0
    while time.perf_counter() - t_start < seconds or k < MIN_ROUNDS:
        gc.collect()
        cpu0, client0 = server.cpu_s(), _client_cpu_s()
        done = run_round(server.port, prepared, f"{tag}{k}")
        load.server_cpu_s += server.cpu_s() - cpu0
        load.client_cpu_s += _client_cpu_s() - client0
        load.walls.append(done.wall_s)
        load.windows.append((done.t0_ns, done.t1_ns))
        load.latencies_ns += done.latencies_ns
        problems, bad_ticks = check_round(done, prepared)
        result.attempt(len(prepared.steps) + prepared.ticks)
        result.check(problems, _failed_sessions(problems) + bad_ticks)
        load.sessions_failed += _failed_sessions(problems)
        for bye in done.byes.values():
            if bye:
                load.dropped += bye.get("dropped", 0)
                load.lost += bye.get("lost", 0)
        k += 1
    return load


def start_server(prepared: Prepared, tag: str, result: Result) -> ServerProcess:
    """Spawn a server and run the untimed warm-up round against it."""
    server = ServerProcess()
    warm = run_round(server.port, prepared, tag, WARMUP_TICKS)
    problems, bad_ticks = check_round(warm, prepared, WARMUP_TICKS)
    result.attempt(len(prepared.steps) + len(prepared.steps) * WARMUP_TICKS)
    result.check(problems, _failed_sessions(problems) + bad_ticks)
    return server


def stop_server(server: ServerProcess, result: Result) -> None:
    code = server.stop()
    if code != 0:
        result.fail(f"server {server.pid} exited with {code}")


def run_workload(args, env) -> Result:
    result = Result()
    connections = env.workers
    setup_times = []
    server = None
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                stop_server(server, result)
                server = None
            t0 = time.perf_counter()
            prepared = prepare(args.seed, connections)
            server = start_server(prepared, f"setup{rep}-", result)
            setup_times.append(time.perf_counter() - t0)
        setup_s = env.import_s + statistics.median(setup_times)

        share = 0.5 if args.trace else 1.0
        load = drive_load(server, prepared, args.seconds * share, "round", result)
        peak_rss_mb = server.peak_rss_mb()
        if args.trace:
            stop_server(server, result)
            server = None
            tracer = Tracer()
            env.workdir.mkdir(parents=True, exist_ok=True)
            dump = env.workdir / f"serve-spans-{os.getpid()}.json"
            install_server_tracing(tracer, dump)
            try:
                server = start_server(prepared, "traced-warmup-", result)
                traced = drive_load(server, prepared, args.seconds * share, "traced", result)
                stop_server(server, result)
                server = None
            finally:
                tracer.uninstall()
            spans = Tracer.load(dump)
            spans.traces = [traced.round_of(start) for start in spans.starts]
            spans_path = env.workdir / f"spans-serve_pipelined-seed{args.seed}.json"
            spans.dump(spans_path)
            dump.unlink()
            result.lines.append(
                f"server spans (trace id = timed round, -1 outside): {spans_path}"
            )
    finally:
        if server is not None:
            stop_server(server, result)

    # Every round is the same ticks; a slow stretch of the host moves the
    # median round less than it moves a pooled rate.
    wall_s = statistics.median(load.walls)
    ticks_per_s = prepared.ticks / wall_s
    result.header.update(
        connections=connections, window=WINDOW, script_ticks=prepared.ticks,
        rounds=len(load.walls),
    )
    result.e2e = {
        # A round replays every script once: its median wall time.
        "wall_s": (wall_s, "s"),
        "ticks_per_s": (ticks_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    accounting = accounting_metrics(load)
    result.lines.append(
        f"{len(load.walls)} rounds x {connections} sessions x "
        f"{prepared.ticks // connections} ticks, window {WINDOW}: "
        f"{ticks_per_s:.1f} ticks/s, p50 {load.percentile_ms(50):.3f} ms, "
        f"p99 {load.percentile_ms(99):.3f} ms over {load.ticks} ticks; "
        f"set-up {setup_s:.3f} s"
    )
    result.lines.append(
        "accounting: "
        + ", ".join(f"{name} {value:.4g}" for name, (value, _) in accounting.items())
    )
    if accounting["serve.client_util"][0] > accounting["serve.server_util"][0]:
        result.lines.append(
            "note: the generator was busier than the server; "
            "ticks_per_s measured the client"
        )
    if args.trace:
        result.layers = {**layer_metrics(spans, traced), **accounting}

        def engine_span(i: int) -> bool:
            return spans.names[i] in SPAN_NAMES and spans.traces[i] >= 0

        traced_tps = prepared.ticks / statistics.median(traced.walls)
        cpu_per_round = traced.server_cpu_s / len(traced.walls)
        result.trace_report(
            layers=spans.summary(lambda name: name, engine_span),
            units=len(traced.walls),
            unit="round",
            unit_s=cpu_per_round,
            overhead=(
                f"tracing overhead: traced {traced_tps:.1f} ticks/s vs untraced "
                f"{ticks_per_s:.1f} ({100 * (traced_tps / ticks_per_s - 1):+.1f}%); "
                "shares are of server CPU per round"
            ),
            resolution_s=env.bounds["ticks_per_s"] * cpu_per_round,
            metric="ticks_per_s",
        )
    return result


def accounting_metrics(load: Load) -> dict:
    """Serve process accounting, read from /proc and getrusage (no tracing)."""
    rounds = len(load.walls)
    return {
        "serve.server_cpu_s": (load.server_cpu_s / rounds, "s"),
        "serve.server_util": (load.server_cpu_s / load.wall_s, "ratio"),
        "serve.client_util": (load.client_cpu_s / load.wall_s, "ratio"),
        "serve.sessions_failed": (float(load.sessions_failed), "count"),
        "serve.ticks_dropped": (float(load.dropped), "count"),
        "serve.ticks_lost": (float(load.lost), "count"),
        "serve.tick_p50_ms": (load.percentile_ms(50), "ms"),
        "serve.tick_p99_ms": (load.percentile_ms(99), "ms"),
        "serve.tick_p999_ms": (load.percentile_ms(99.9), "ms"),
    }


def layer_metrics(spans: Tracer, traced: Load) -> dict:
    """Server-side span metrics over the traced rounds, per round.

    ``spans.traces`` holds each span's timed round (-1 outside them).
    """
    rounds = len(traced.walls)

    def in_rounds(i: int) -> bool:
        return spans.traces[i] >= 0

    def per_round_s(name: str) -> float:
        return spans.total_s(name, in_rounds) / rounds

    waits_ms = np.asarray(spans.durations_s("wait.queue", in_rounds)) * 1e3
    batches = spans.count("serve.forecast_batch", in_rounds)
    span_s = sum(per_round_s(name) for name in SPAN_NAMES)
    return {
        "serve.decode_s": (per_round_s("serve.decode"), "s"),
        "serve.encode_s": (per_round_s("serve.encode"), "s"),
        "serve.queue_wait_p50_ms": (float(np.percentile(waits_ms, 50)), "ms"),
        "serve.queue_wait_p99_ms": (float(np.percentile(waits_ms, 99)), "ms"),
        "serve.begin_tick_s": (per_round_s("serve.begin_tick"), "s"),
        "serve.forecast_batch_s": (per_round_s("serve.forecast_batch"), "s"),
        "serve.batches": (batches / rounds, "count"),
        "serve.batch_size_mean": (
            spans.units("serve.forecast_batch", in_rounds) / batches, "count"
        ),
        "serve.finish_tick_s": (per_round_s("serve.finish_tick"), "s"),
        "serve.mpc_s": (per_round_s("serve.mpc"), "s"),
        "serve.residual_s": (traced.server_cpu_s / rounds - span_s, "s"),
    }
