"""Closed-loop load generator: corpus-driven clients for the server.

Each simulated UE replays one drive's measurement stream over a real
TCP connection, window-1 closed loop: send the tick, wait for the
prediction, advance. The per-tick latency (send → prediction) and the
end-to-end wall time therefore measure the server's whole serving path
under concurrency — protocol, batching, model, backpressure — not a
synthetic kernel.

Scripts are pre-encoded once per drive
(:func:`build_script` reuses the offline evaluator's replay plan, so
reports and commands interleave with ticks in exactly the order
:func:`~repro.core.evaluation.run_prognos_over_logs` drains them); per
send only the three ABR feedback fields are patched in place
(:data:`~repro.serve.protocol.ABR_PATCH`), keeping client-side CPU out
of the measurement as far as possible. The client's buffer model is
deterministic, so two runs over the same scripts (e.g. the bench's
sequential vs micro-batched servers) present byte-identical inputs.

Clients run on a ``selectors`` loop — ``run_load``, optionally forked
across ``processes`` worker processes so a single generator core can't
bottleneck a multi-shard server under test — and the helpers
:func:`spawn_server` / :func:`stop_server` fork a serving daemon
(sharded when the config resolves to more than one engine process) for
benches, tests, and the CI smoke CLI (``python -m repro.serve.loadgen``).

**Resumption and chaos.** With ``resume=True`` a client that loses its
connection (reset, eviction, drain bye, injected fault) reconnects
with its resume token and last-seen prediction sequence; the server
replays the missed tail and the client's deterministic buffer model
picks up exactly where it left off, so the merged per-session stream
still equals the offline oracle. A resume refusal (state lost — e.g. a
SIGKILLed shard, or the replay journal overflowed) restarts the drive
from scratch, which converges to the same stream. ``chaos=True``
additionally fires the :mod:`repro.robust.faults` network family
(``conn_reset``/``frame_truncate``/``byte_corrupt``/``stall_s``/
``reconnect_storm``) from ``REPRO_FAULTS`` before sends, keyed
``session@step`` with the reconnect count as the attempt — the same
sha256 draw as every other fault hook, so a chaos run reproduces
exactly.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import pickle
import selectors
import signal
import socket
import struct
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluation import _replay_plan, configs_for_log
from repro.robust import faults
from repro.robust.supervisor import reap_process
from repro.serve import protocol
from repro.serve.protocol import ABR_PATCH, ABR_PATCH_OFFSET, FrameDecoder, frame
from repro.serve.server import ServerConfig
from repro.serve.shard import make_server, resolve_shards

#: A DASH-style ladder spanning the simulated capacity range (Mbps).
DEFAULT_LEVELS_MBPS = [3.0, 7.5, 12.0, 18.5, 28.5, 43.0]
DEFAULT_CHUNK_S = 4.0
#: Client-side playout buffer model.
START_BUFFER_S = 8.0
MAX_BUFFER_S = 30.0
#: Hard ceiling on reconnect attempts per client (beyond the drive
#: length) before the session is counted failed.
RECONNECT_SLACK = 64
#: Hard ceiling on busy/shed retries per client.
SHED_RETRY_CAP = 200

_LINGER_RST = struct.pack("ii", 1, 0)


# ----------------------------------------------------------------------
# Script building
# ----------------------------------------------------------------------


@dataclass
class ClientScript:
    """One session's pre-encoded frame sequence."""

    session_id: str
    hello: dict
    #: Per tick: (buffer holding any due event frames + the tick frame,
    #: byte offset of the tick frame within the buffer).
    steps: list[tuple[bytearray, int]]
    #: Per tick: the observed throughput fed back on the next tick.
    observed_mbps: list[float]
    levels_mbps: list[float]
    chunk_s: float

    @property
    def n_ticks(self) -> int:
        return len(self.steps)


def build_script(
    log,
    session_id: str,
    event_configs,
    *,
    wants_abr: bool = True,
    levels_mbps: list[float] | None = None,
    chunk_s: float = DEFAULT_CHUNK_S,
    policy: str = "drop",
    standalone: bool = False,
    max_ticks: int | None = None,
) -> ClientScript:
    """Pre-encode one drive as a client session.

    The replay plan is the offline evaluator's own, so the server-side
    event drain order — and therefore the prediction stream — matches
    :func:`~repro.core.evaluation.run_prognos_over_logs` over the same
    single drive. Every frame carries its protocol-v2 sequence number,
    fixed at build time: a resume resend replays the same bytes and the
    server's duplicate filter keeps the application effects exactly
    once.
    """
    plan = _replay_plan(log, 1.0, 1)
    capacities = [t.total_capacity_mbps for t in log.ticks]
    levels = list(levels_mbps or DEFAULT_LEVELS_MBPS)
    steps: list[tuple[bytearray, int]] = []
    observed: list[float] = []
    e_idx = 0
    events = plan.events
    n = len(plan.step_times)
    if max_ticks is not None:
        n = min(n, max_ticks)
    seq = 0
    for pos in range(n):
        now = plan.step_times[pos]
        parts = bytearray()
        while e_idx < len(events) and events[e_idx][0] <= pos:
            _, kind, payload, event_time = events[e_idx]
            seq += 1
            if kind == 0:
                parts += frame(protocol.encode_report(payload, event_time, seq=seq))
            else:
                parts += frame(protocol.encode_command(payload, event_time, seq=seq))
            e_idx += 1
        tick_off = len(parts)
        rsrp, serving, neighbours, scoped = plan.step_inputs[pos]
        seq += 1
        parts += frame(
            protocol.encode_tick(
                now,
                rsrp,
                serving,
                neighbours,
                scoped,
                wants_abr=wants_abr,
                observed_mbps=0.0,
                buffer_s=0.0,
                last_level=0,
                seq=seq,
            )
        )
        steps.append((parts, tick_off))
        observed.append(float(capacities[pos]))
    hello = {
        "type": "hello",
        "version": protocol.PROTOCOL_VERSION,
        "session": session_id,
        "standalone": standalone,
        "policy": policy,
        "events": protocol.encode_event_configs(event_configs),
    }
    if wants_abr:
        hello["abr"] = {"levels_mbps": levels, "chunk_s": chunk_s}
    return ClientScript(session_id, hello, steps, observed, levels, chunk_s)


# ----------------------------------------------------------------------
# The selectors client engine
# ----------------------------------------------------------------------


class _Client:
    __slots__ = (
        "script",
        "host",
        "port",
        "sock",
        "decoder",
        "step",
        "buffer_s",
        "last_level",
        "observed",
        "t_send",
        "latencies_ns",
        "predictions",
        "collect",
        "abort_after",
        "outbuf",
        "state",
        "bye",
        "error",
        "mask",
        # Resumption / chaos.
        "resume_enabled",
        "chaos",
        "token",
        "last_seq",
        "replay_high",
        "reconnects",
        "resumes",
        "restarts",
        "shed",
        "resets",
        "storm_left",
        "connect_fails",
        "wait_until",
        "wait_action",
        "resume_t0",
        "resume_latencies_ns",
    )

    def __init__(
        self,
        script: ClientScript,
        collect: bool,
        abort_after: int | None,
        *,
        host: str,
        port: int,
        resume: bool = False,
        chaos: bool = False,
    ):
        self.script = script
        self.host = host
        self.port = port
        self.sock: socket.socket | None = None
        self.decoder = FrameDecoder()
        self.step = 0
        self.buffer_s = START_BUFFER_S
        self.last_level = 0
        self.observed = 0.0
        self.t_send = 0
        self.latencies_ns: list[int] = []
        self.predictions: list[tuple] = []
        self.collect = collect
        self.abort_after = abort_after
        self.outbuf = b""
        self.state = "hello"
        self.bye: dict | None = None
        self.error: str | None = None
        self.mask = 0
        self.resume_enabled = resume
        self.chaos = chaos
        self.token: str | None = None
        #: Last prediction sequence processed (== drive steps finished).
        self.last_seq = 0
        #: Server's out_seq at the last resume welcome; predictions up
        #: to here are journal replays, not fresh round trips.
        self.replay_high = 0
        self.reconnects = 0
        self.resumes = 0
        self.restarts = 0
        self.shed = 0
        self.resets = 0
        self.storm_left = 0
        self.connect_fails = 0
        self.wait_until: float | None = None
        self.wait_action: str | None = None
        self.resume_t0 = 0
        self.resume_latencies_ns: list[int] = []


def run_load(
    port: int,
    scripts: list[ClientScript],
    *,
    host: str = "127.0.0.1",
    collect: bool = False,
    abort_after: dict[str, int] | None = None,
    timeout_s: float = 600.0,
    processes: int = 1,
    resume: bool | None = None,
    chaos: bool = False,
) -> "LoadgenResult":
    """Drive every script to completion against a running server.

    With ``processes > 1`` the scripts are struck round-robin across
    that many forked generator processes (each its own ``selectors``
    loop and core) and the per-process results are merged — raw
    latencies included, so percentiles stay exact. Required to
    saturate a multi-shard server: one generator process is itself a
    single-core closed loop.

    ``resume=True`` makes disconnected clients resume their sessions
    instead of failing (default on when ``chaos`` is set); ``chaos``
    additionally fires the ``REPRO_FAULTS`` network family per send.
    Connection-level errors never propagate out of the loop either
    way: without resumption they are counted session outcomes.
    """
    if resume is None:
        resume = chaos
    if processes > 1 and len(scripts) > 1:
        return _run_load_forked(
            port,
            scripts,
            host=host,
            collect=collect,
            abort_after=abort_after,
            timeout_s=timeout_s,
            processes=min(processes, len(scripts)),
            resume=resume,
            chaos=chaos,
        )
    sel = selectors.DefaultSelector()
    abort_after = abort_after or {}
    clients = [
        _Client(
            script,
            collect,
            abort_after.get(script.session_id),
            host=host,
            port=port,
            resume=resume,
            chaos=chaos,
        )
        for script in scripts
    ]
    t0 = time.perf_counter_ns()
    for client in clients:
        _open_socket(sel, client)
        _send(sel, client, frame(protocol.encode_json(client.script.hello)))
    deadline = time.monotonic() + timeout_s
    while True:
        active = sum(1 for c in clients if c.state != "done")
        if not active:
            break
        now = time.monotonic()
        if now > deadline:
            raise TimeoutError(f"load run stalled with {active} clients active")
        timeout = 0.5
        for client in clients:
            if client.state != "done" and client.wait_until is not None:
                timeout = min(timeout, max(0.0, client.wait_until - now))
        for key, mask in sel.select(timeout=timeout):
            client = key.data
            if client.state == "done":
                continue
            try:
                if mask & selectors.EVENT_WRITE:
                    _flush(sel, client)
                if mask & selectors.EVENT_READ:
                    _drain_socket(sel, client)
            except OSError as exc:
                # Belt and braces: no connection-level error may abort
                # the whole run; it is this one session's outcome.
                _on_disconnect(sel, client, f"socket error: {exc}")
        now = time.monotonic()
        for client in clients:
            if (
                client.state != "done"
                and client.wait_until is not None
                and now >= client.wait_until
            ):
                _fire_timer(sel, client)
    wall_s = (time.perf_counter_ns() - t0) / 1e9
    return LoadgenResult.aggregate(clients, wall_s)


def _run_load_forked(
    port: int,
    scripts: list[ClientScript],
    *,
    host: str,
    collect: bool,
    abort_after: dict[str, int] | None,
    timeout_s: float,
    processes: int,
    resume: bool = False,
    chaos: bool = False,
) -> "LoadgenResult":
    slices = [scripts[i::processes] for i in range(processes)]
    t0 = time.perf_counter_ns()
    children: list[tuple[int, int]] = []
    for chunk in slices:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            status = 0
            try:
                result = run_load(
                    port,
                    chunk,
                    host=host,
                    collect=collect,
                    abort_after=abort_after,
                    timeout_s=timeout_s,
                    resume=resume,
                    chaos=chaos,
                )
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(pickle.dumps(result))
            except BaseException:
                status = 1
                with contextlib.suppress(OSError):
                    os.close(write_fd)
            os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    parts: list[LoadgenResult] = []
    failures = 0
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as fh:
            blob = fh.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not blob:
            failures += 1
            continue
        parts.append(pickle.loads(blob))
    wall_s = (time.perf_counter_ns() - t0) / 1e9
    if failures:
        raise RuntimeError(f"{failures} load generator worker(s) crashed")
    return LoadgenResult.merge(parts, wall_s)


def _set_mask(sel, client, mask) -> None:
    if mask != client.mask:
        client.mask = mask
        sel.modify(client.sock, mask, client)


def _open_socket(sel, client) -> None:
    sock = socket.socket()
    sock.setblocking(False)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.connect_ex((client.host, client.port))
    client.sock = sock
    client.decoder = FrameDecoder()
    client.outbuf = b""
    client.mask = selectors.EVENT_READ
    sel.register(sock, client.mask, client)


def _close_socket(sel, client, *, hard: bool = False) -> None:
    sock = client.sock
    if sock is None:
        return
    client.sock = None
    with contextlib.suppress(KeyError):
        sel.unregister(sock)
    if hard:
        # RST instead of FIN: the realistic shape of a dying client.
        with contextlib.suppress(OSError):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RST)
    sock.close()
    client.outbuf = b""


def _finish(sel, client, error: str | None = None) -> None:
    if client.state == "done":
        return
    client.state = "done"
    client.error = error
    client.wait_until = None
    _close_socket(sel, client)


def _send(sel, client, data: bytes) -> None:
    client.outbuf += data
    _flush(sel, client)


def _flush(sel, client) -> None:
    while client.outbuf:
        try:
            sent = client.sock.send(client.outbuf)
        except (BlockingIOError, InterruptedError):
            break
        except OSError as exc:
            _on_disconnect(sel, client, f"send failed: {exc}")
            return
        client.outbuf = client.outbuf[sent:]
    want = selectors.EVENT_READ
    if client.outbuf:
        want |= selectors.EVENT_WRITE
    _set_mask(sel, client, want)


# ----------------------------------------------------------------------
# Resumption plumbing
# ----------------------------------------------------------------------


def _reconnect_cap(client) -> int:
    # Generous: every busy shed retry and injected fault burns one
    # attempt, and only a genuinely dead server should exhaust it.
    return 4 * client.script.n_ticks + RECONNECT_SLACK + SHED_RETRY_CAP


def _backoff_s(client) -> float:
    return min(0.02 * (2 ** min(client.connect_fails, 5)), 0.5)


def _on_disconnect(sel, client, why: str) -> None:
    """Connection lost — resume when enabled, else a counted outcome."""
    if client.state == "done":
        return
    client.resets += 1
    was = client.state
    stalling = client.wait_until is not None and client.wait_action == "send_step"
    _close_socket(sel, client)
    if not client.resume_enabled:
        _finish(sel, client, why)
        return
    if client.reconnects >= _reconnect_cap(client):
        _finish(sel, client, f"reconnect cap exhausted after: {why}")
        return
    if was in ("hello", "resume") or client.token is None:
        # Handshake lost (e.g. a shard mid-refork refusing connects):
        # retry the same handshake with exponential backoff so a brief
        # dead window cannot burn through the reconnect cap.
        client.reconnects += 1
        client.connect_fails += 1
        client.state = "wait"
        _schedule(client, _backoff_s(client), "resume" if was == "resume" else "hello")
        return
    if stalling:
        # Mid-stall: keep stalling, resume when the timer fires (the
        # resume welcome will resend the pending step).
        client.wait_action = "resume"
        return
    _start_resume(sel, client)


def _start_resume(sel, client) -> None:
    client.state = "resume"
    client.reconnects += 1
    client.resume_t0 = time.perf_counter_ns()
    _open_socket(sel, client)
    _send(
        sel,
        client,
        frame(
            protocol.encode_json(
                {
                    "type": "resume",
                    "version": protocol.PROTOCOL_VERSION,
                    "session": client.script.session_id,
                    "token": client.token,
                    "seq": client.last_seq,
                }
            )
        ),
    )


def _restart(sel, client) -> None:
    """The server lost the session: replay the whole drive from zero.

    Deterministic scripts and a fresh server-side session make the
    rerun byte-identical, so the final collected stream still matches
    the offline oracle.
    """
    if client.reconnects >= _reconnect_cap(client):
        _finish(sel, client, "reconnect cap exhausted on restart")
        return
    client.restarts += 1
    client.reconnects += 1
    client.token = None
    client.step = 0
    client.last_seq = 0
    client.replay_high = 0
    client.storm_left = 0
    client.buffer_s = START_BUFFER_S
    client.last_level = 0
    client.predictions = []
    _close_socket(sel, client)
    client.state = "hello"
    _open_socket(sel, client)
    _send(sel, client, frame(protocol.encode_json(client.script.hello)))


def _schedule(client, delay_s: float, action: str) -> None:
    client.wait_until = time.monotonic() + max(0.0, delay_s)
    client.wait_action = action


def _fire_timer(sel, client) -> None:
    action, client.wait_action = client.wait_action, None
    client.wait_until = None
    if action == "send_step":
        client.state = "run"
        if client.sock is None:
            # The server dropped us mid-stall (dead-peer eviction).
            _start_resume(sel, client)
        else:
            _send_step(sel, client, skip_fault=True)
    elif action == "resume":
        _start_resume(sel, client)
    elif action == "hello":
        client.state = "hello"
        _open_socket(sel, client)
        _send(sel, client, frame(protocol.encode_json(client.script.hello)))


def _drop_and_resume(sel, client, *, hard: bool) -> None:
    client.resets += 1
    _close_socket(sel, client, hard=hard)
    if client.reconnects >= _reconnect_cap(client):
        _finish(sel, client, "reconnect cap exhausted (injected faults)")
        return
    _start_resume(sel, client)


# ----------------------------------------------------------------------
# Chaos fault actions
# ----------------------------------------------------------------------


def _apply_fault(sel, client, spec) -> bool:
    """Act out one fired network fault; True when the send is replaced."""
    name = spec.name
    script = client.script
    if name == "conn_reset":
        _drop_and_resume(sel, client, hard=True)
        return True
    if name == "frame_truncate":
        buf, tick_off = script.steps[client.step]
        # A prefix ending inside the tick frame's length/header: the
        # server's framer can never complete it.
        prefix = bytes(buf[: tick_off + 6])
        if prefix:
            with contextlib.suppress(OSError):
                client.sock.send(prefix)
        _drop_and_resume(sel, client, hard=True)
        return True
    if name == "byte_corrupt":
        buf, tick_off = script.steps[client.step]
        client.observed = script.observed_mbps[client.step]
        corrupt = bytearray(buf)
        ABR_PATCH.pack_into(
            corrupt,
            tick_off + ABR_PATCH_OFFSET,
            client.observed,
            client.buffer_s,
            client.last_level,
        )
        # Flip the tick frame's tag bit: guaranteed server-side
        # rejection, and no payload byte is touched, so the eventual
        # resumed stream stays bit-comparable to the oracle.
        corrupt[tick_off + 4] ^= 0x80
        client.t_send = time.perf_counter_ns()
        _send(sel, client, bytes(corrupt))
        # The server answers with an error frame and closes; the
        # disconnect path resumes and resends the step intact.
        return True
    if name == "stall_s":
        # Go silent mid-drive; long stalls trip dead-peer eviction.
        client.state = "wait"
        _schedule(client, spec.hang_s, "send_step")
        return True
    if name == "reconnect_storm":
        client.storm_left = 2
        _drop_and_resume(sel, client, hard=False)
        return True
    return False


def _send_step(sel, client, *, skip_fault: bool = False) -> None:
    script = client.script
    if client.chaos and not skip_fault:
        spec = faults.maybe_network_fault(
            f"{script.session_id}@{client.step}", attempt=client.reconnects
        )
        if spec is not None and _apply_fault(sel, client, spec):
            return
    buf, tick_off = script.steps[client.step]
    client.observed = script.observed_mbps[client.step]
    ABR_PATCH.pack_into(
        buf,
        tick_off + ABR_PATCH_OFFSET,
        client.observed,
        client.buffer_s,
        client.last_level,
    )
    client.t_send = time.perf_counter_ns()
    _send(sel, client, bytes(buf))


def _drain_socket(sel, client) -> None:
    # Pin the socket: a handled frame may reconnect the client, and
    # any frames still queued from the old connection must be dropped
    # with it, not replayed into the new one.
    sock = client.sock
    while client.sock is sock and client.state != "done":
        try:
            data = sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            _on_disconnect(sel, client, f"recv failed: {exc}")
            return
        if not data:
            _on_disconnect(sel, client, "server closed the connection")
            return
        try:
            frames = client.decoder.feed(data)
        except protocol.FrameError as exc:
            _on_disconnect(sel, client, f"bad frame from server: {exc}")
            return
        for payload in frames:
            _handle_frame(sel, client, payload)
            if client.state == "done" or client.sock is not sock:
                return
        if len(data) < (1 << 16):
            return


def _handle_welcome(sel, client, message: dict) -> None:
    resumed = client.state == "resume"
    client.token = message.get("resume") or client.token
    client.connect_fails = 0
    client.state = "run"
    if not resumed:
        if client.script.n_ticks == 0:
            client.state = "bye"
            _send(sel, client, frame(b"B"))
        else:
            _send_step(sel, client)
        return
    client.resumes += 1
    client.resume_latencies_ns.append(
        time.perf_counter_ns() - client.resume_t0
    )
    if client.storm_left > 0:
        client.storm_left -= 1
        _drop_and_resume(sel, client, hard=False)
        return
    server_seq = message.get("seq")
    client.replay_high = server_seq if isinstance(server_seq, int) else 0
    if client.replay_high == client.last_seq:
        # No tail to replay. Resend the in-flight step — duplicates are
        # filtered server-side, so this is the liveness kick, not a
        # correctness risk (the answer may come from the engine backlog).
        if client.last_seq >= client.script.n_ticks:
            client.state = "bye"
            _send(sel, client, frame(b"B"))
        else:
            client.step = client.last_seq
            _send_step(sel, client, skip_fault=True)
    # Else: replayed predictions are already in flight; the prediction
    # handler resumes sending when the tail ends.


def _handle_control(sel, client, message: dict) -> None:
    kind = message.get("type")
    if kind == "welcome" and client.state in ("hello", "resume"):
        _handle_welcome(sel, client, message)
    elif kind == "busy":
        client.shed += 1
        if client.shed > SHED_RETRY_CAP:
            _finish(sel, client, "shed retry cap exhausted")
            return
        retry_after = message.get("retry_after")
        delay = float(retry_after) if isinstance(retry_after, (int, float)) else 0.2
        resuming = client.state == "resume"
        _close_socket(sel, client)
        client.state = "wait"
        _schedule(client, delay, "resume" if resuming else "hello")
    elif kind == "bye":
        reason = message.get("reason")
        if reason in ("drain", "dead_peer") and client.resume_enabled:
            # Server-initiated close mid-drive; the token in the bye is
            # our ticket back in. The disconnect path (EOF follows)
            # performs the resume.
            client.token = message.get("resume") or client.token
            return
        client.bye = message
        _finish(sel, client)
    elif kind == "error":
        if client.resume_enabled and client.state == "resume":
            # Resume refused: the session state is gone (shard SIGKILL,
            # journal overflow). Start the drive over.
            _restart(sel, client)
        elif client.resume_enabled and client.state in ("run", "wait"):
            # Mid-stream rejection (e.g. an injected corrupt frame):
            # the server drops us; reconnect and resume.
            _on_disconnect(sel, client, f"server error: {message.get('error')}")
        else:
            _finish(sel, client, f"server error: {message.get('error')}")
    else:
        _finish(sel, client, f"unexpected control frame {kind!r}")


def _handle_frame(sel, client, payload: bytes) -> None:
    tag = payload[:1]
    if tag == b"{":
        _handle_control(sel, client, protocol.decode_json(payload))
        return
    if tag == b"H":
        # Heartbeat ping. A stalling client stays silent on purpose —
        # that is exactly the wedged peer the server must evict.
        if client.state == "run":
            _send(sel, client, frame(b"H"))
        return
    if tag != b"P" or client.state not in ("run", "wait"):
        _finish(sel, client, f"unexpected frame tag {tag!r} in state {client.state}")
        return
    t_recv = time.perf_counter_ns()
    time_s, ho_type, score, similarity, lead, level, dropped, seq = (
        protocol.decode_prediction(payload)
    )
    if seq <= client.last_seq:
        return  # stale duplicate; already applied
    replaying = seq <= client.replay_high
    if not replaying:
        client.latencies_ns.append(t_recv - client.t_send)
    client.last_seq = seq
    if client.collect:
        client.predictions.append((time_s, ho_type, score, similarity, lead, level))
    if level >= 0:
        # Deterministic playout-buffer evolution: download the chosen
        # chunk at the rate observed for that step, then play one
        # chunk. Indexing by sequence (not a mutable "current observed")
        # keeps the evolution identical across resumes and replays.
        rate = max(client.script.observed_mbps[seq - 1], 0.1)
        download_s = client.script.levels_mbps[level] * client.script.chunk_s / rate
        client.buffer_s = min(
            max(client.buffer_s - download_s, 0.0) + client.script.chunk_s,
            MAX_BUFFER_S,
        )
        client.last_level = level
    client.step = seq
    if client.abort_after is not None and client.step >= client.abort_after:
        # Fault injection: vanish mid-stream, no goodbye.
        _finish(sel, client, "aborted (injected)")
        return
    if replaying and seq < client.replay_high:
        return  # more of the journal tail is in flight
    if client.state == "wait":
        return  # stalled; the timer resumes sending
    if client.step >= client.script.n_ticks:
        client.state = "bye"
        _send(sel, client, frame(b"B"))
    else:
        _send_step(sel, client, skip_fault=replaying)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class LoadgenResult:
    """Aggregate of one closed-loop run."""

    sessions: int
    completed: int
    aborted: int
    failed: int
    ticks: int
    wall_s: float
    sessions_per_s: float
    ticks_per_s: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    #: Resilience outcomes: reconnect/resume/restart totals, busy
    #: shed retries, connection-level errors absorbed, and resume
    #: latency percentiles (reconnect → resumed welcome).
    resumes: int = 0
    restarts: int = 0
    shed: int = 0
    resets: int = 0
    resume_p50_ms: float = float("nan")
    resume_p99_ms: float = float("nan")
    byes: dict = field(default_factory=dict)
    predictions: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    #: Raw per-tick latencies, kept so merging per-process results
    #: (:meth:`merge`) recomputes percentiles exactly.
    latencies_ns: list = field(default_factory=list, repr=False)
    resume_latencies_ns: list = field(default_factory=list, repr=False)

    @staticmethod
    def _percentiles(raw: list) -> tuple[float, float, float]:
        if not raw:
            return (float("nan"),) * 3
        p50, p99, p999 = np.percentile(
            np.array(raw, dtype=float), [50.0, 99.0, 99.9]
        ) / 1e6
        return float(p50), float(p99), float(p999)

    @classmethod
    def aggregate(cls, clients: list[_Client], wall_s: float) -> "LoadgenResult":
        raw = [ns for c in clients for ns in c.latencies_ns]
        raw_resume = [ns for c in clients for ns in c.resume_latencies_ns]
        ticks = len(raw)
        p50, p99, p999 = cls._percentiles(raw)
        r50, r99, _ = cls._percentiles(raw_resume)
        completed = sum(1 for c in clients if c.bye is not None)
        aborted = sum(1 for c in clients if c.error and c.error.startswith("aborted"))
        failed = sum(
            1
            for c in clients
            if c.bye is None and not (c.error and c.error.startswith("aborted"))
        )
        return cls(
            sessions=len(clients),
            completed=completed,
            aborted=aborted,
            failed=failed,
            ticks=ticks,
            wall_s=wall_s,
            sessions_per_s=completed / wall_s if wall_s > 0 else 0.0,
            ticks_per_s=ticks / wall_s if wall_s > 0 else 0.0,
            p50_ms=p50,
            p99_ms=p99,
            p999_ms=p999,
            resumes=sum(c.resumes for c in clients),
            restarts=sum(c.restarts for c in clients),
            shed=sum(c.shed for c in clients),
            resets=sum(c.resets for c in clients),
            resume_p50_ms=r50,
            resume_p99_ms=r99,
            byes={c.script.session_id: c.bye for c in clients if c.bye is not None},
            predictions={
                c.script.session_id: c.predictions for c in clients if c.collect
            },
            errors={c.script.session_id: c.error for c in clients if c.error},
            latencies_ns=raw,
            resume_latencies_ns=raw_resume,
        )

    @classmethod
    def merge(cls, parts: list["LoadgenResult"], wall_s: float) -> "LoadgenResult":
        """Combine per-process results under the parent's wall clock."""
        raw = [ns for p in parts for ns in p.latencies_ns]
        raw_resume = [ns for p in parts for ns in p.resume_latencies_ns]
        ticks = len(raw)
        p50, p99, p999 = cls._percentiles(raw)
        r50, r99, _ = cls._percentiles(raw_resume)
        completed = sum(p.completed for p in parts)
        byes: dict = {}
        predictions: dict = {}
        errors: dict = {}
        for part in parts:
            byes.update(part.byes)
            predictions.update(part.predictions)
            errors.update(part.errors)
        return cls(
            sessions=sum(p.sessions for p in parts),
            completed=completed,
            aborted=sum(p.aborted for p in parts),
            failed=sum(p.failed for p in parts),
            ticks=ticks,
            wall_s=wall_s,
            sessions_per_s=completed / wall_s if wall_s > 0 else 0.0,
            ticks_per_s=ticks / wall_s if wall_s > 0 else 0.0,
            p50_ms=p50,
            p99_ms=p99,
            p999_ms=p999,
            resumes=sum(p.resumes for p in parts),
            restarts=sum(p.restarts for p in parts),
            shed=sum(p.shed for p in parts),
            resets=sum(p.resets for p in parts),
            resume_p50_ms=r50,
            resume_p99_ms=r99,
            byes=byes,
            predictions=predictions,
            errors=errors,
            latencies_ns=raw,
            resume_latencies_ns=raw_resume,
        )

    def summary(self) -> dict:
        def ms(value: float) -> float | None:
            # NaN (no samples) would leak into JSON output as a
            # non-standard token; null is the honest spelling.
            return None if value != value else round(value, 3)

        return {
            "sessions": self.sessions,
            "completed": self.completed,
            "aborted": self.aborted,
            "failed": self.failed,
            "ticks": self.ticks,
            "wall_s": round(self.wall_s, 3),
            "sessions_per_s": round(self.sessions_per_s, 3),
            "ticks_per_s": round(self.ticks_per_s, 1),
            "p50_ms": ms(self.p50_ms),
            "p99_ms": ms(self.p99_ms),
            "p999_ms": ms(self.p999_ms),
            "resumes": self.resumes,
            "restarts": self.restarts,
            "shed": self.shed,
            "resets": self.resets,
            "resume_p50_ms": ms(self.resume_p50_ms),
            "resume_p99_ms": ms(self.resume_p99_ms),
        }


# ----------------------------------------------------------------------
# Forked serving daemon (benches, tests, CI smoke)
# ----------------------------------------------------------------------


async def _serve_until_sigterm(config: ServerConfig, write_fd: int) -> None:
    # Hook SIGTERM before the port goes out: a caller may stop the
    # daemon the moment spawn_server returns.
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    server = make_server(config)
    await server.start()
    os.write(write_fd, f"{server.port}\n".encode())
    os.close(write_fd)
    await stop.wait()
    # Graceful before hard: byes with resume tokens, then teardown.
    with contextlib.suppress(Exception):
        await server.drain()
    await server.shutdown()


def spawn_server(config: ServerConfig) -> tuple[int, int]:
    """Fork a serving daemon; returns ``(pid, port)`` once it listens.

    When ``config`` resolves to more than one shard
    (:func:`repro.serve.shard.resolve_shards`) the daemon is the
    sharded controller and the returned pid is the controller's — its
    engine workers are the controller's own children and die with it.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 0
        try:
            asyncio.run(_serve_until_sigterm(config, write_fd))
        except BaseException:
            status = 1
        os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        line = fh.readline().strip()
    if not line:
        with contextlib.suppress(ChildProcessError):
            reap_process(pid, timeout_s=5.0)
        raise RuntimeError("server child died before listening")
    return pid, int(line)


def stop_server(pid: int, *, timeout_s: float = 15.0) -> int:
    """SIGTERM the daemon and reap it; returns its exit code.

    Escalates to SIGKILL after ``timeout_s`` so a daemon wedged in
    shutdown — or orphaned by a client that died mid-handshake and left
    a connection half-routed — can never leak past the caller.
    """
    return reap_process(pid, term=True, timeout_s=timeout_s)


# ----------------------------------------------------------------------
# CLI (the CI serving smoke)
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Spawn a Prognos server and drive simulated UE sessions at it."
    )
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--drives", type=int, default=2)
    parser.add_argument("--length-km", type=float, default=0.6)
    parser.add_argument("--max-ticks", type=int, default=None)
    parser.add_argument(
        "--mode", choices=("batched", "sequential"), default="batched"
    )
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="engine shard processes (default: REPRO_SERVE_SHARDS / cpus-1)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="load generator worker processes",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="fire the REPRO_FAULTS network family per send and resume "
        "dropped sessions",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="collect every prediction stream and assert it matches the "
        "offline run_prognos_over_logs oracle",
    )
    args = parser.parse_args(argv)

    from repro.radio.bands import BandClass
    from repro.ran import OPX
    from repro.simulate.runner import run_drives
    from repro.simulate.scenarios import freeway_scenario

    logs = run_drives(
        [
            freeway_scenario(
                OPX, BandClass.LOW, length_km=args.length_km, seed=args.seed + i
            )
            for i in range(args.drives)
        ]
    )
    configs = configs_for_log(OPX, (BandClass.LOW,))
    scripts = [
        build_script(
            logs[i % len(logs)],
            f"ue-{i:04d}",
            configs,
            max_ticks=args.max_ticks,
        )
        for i in range(args.sessions)
    ]
    config = ServerConfig(batched=args.mode == "batched", shards=args.shards)
    pid, port = spawn_server(config)
    try:
        result = run_load(
            port,
            scripts,
            processes=args.processes,
            chaos=args.chaos,
            collect=args.verify,
        )
    finally:
        exit_code = stop_server(pid)
    summary = result.summary()
    summary["mode"] = args.mode
    summary["shards"] = resolve_shards(config)
    summary["server_exit"] = exit_code
    mismatches = 0
    if args.verify:
        from repro.core.evaluation import run_prognos_over_logs

        oracle = {}
        for i, log in enumerate(logs):
            offline = run_prognos_over_logs([log], configs)
            oracle[i] = list(zip(offline.times_s, offline.predictions))
        for i, script in enumerate(scripts):
            expect = oracle[i % len(logs)][: script.n_ticks]
            got = result.predictions.get(script.session_id, [])
            ok = len(got) == len(expect) and all(
                g[0] == e[0] and g[1] == e[1] for g, e in zip(got, expect)
            )
            if not ok:
                mismatches += 1
                print(
                    f"stream mismatch for {script.session_id}: "
                    f"{len(got)} predictions vs oracle {len(expect)}",
                    file=sys.stderr,
                )
        summary["verified"] = len(scripts) - mismatches
    print(json.dumps(summary, indent=2))
    if exit_code != 0:
        print("server did not shut down cleanly", file=sys.stderr)
        return 1
    if mismatches:
        print("prediction streams diverged from the offline oracle", file=sys.stderr)
        return 1
    if result.failed or result.completed != args.sessions:
        print("not all sessions completed cleanly", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
