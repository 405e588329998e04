"""Multi-core serving: process-sharded Prognos engines.

One :class:`~repro.serve.server.PrognosServer` saturates a single core
— the asyncio loop hosts the readers *and* the micro-batch engine, so
sessions/s is capped by one Python process regardless of the host.
This module scales the daemon across cores: a controller process forks
``REPRO_SERVE_SHARDS`` engine worker processes (default
``cpu_count() - 1``), each running the PR 7 micro-batch engine
unchanged, and routes every UE session to exactly one shard.

**Fork inheritance, not pickling.** Shards are forked from the
controller after the trained bootstrap patterns, Prognos config, and
carrier event-config lists are already in memory — the same pattern as
the :mod:`repro.simulate.fanout` registry: nothing is serialized per
shard, and a respawned shard re-inherits the same objects because the
controller still holds them.

**Routing** (``ServerConfig.routing``):

* ``reuseport`` — every shard opens its own listener on the shared
  port with ``SO_REUSEPORT``; the kernel distributes connections and
  the controller never touches a byte of session traffic.
* ``handoff`` — the controller accepts, reads exactly the handshake
  frame (:func:`~repro.serve.protocol.read_frame_sock` never
  over-reads, so pipelined bytes stay in the kernel buffer), picks the
  shard by a consistent hash of the session id, and passes the
  connection fd over a Unix datagram socketpair with
  ``socket.send_fds``. Tick frames never transit the controller.
* ``auto`` — ``reuseport`` where the platform has it, else
  ``handoff``.

**Handoff resync.** The controller keeps its duplicate of a handed-off
connection open until the shard acknowledges adoption over the control
channel. If the shard dies first, the fd is still alive in the
controller and is re-sent to the respawned shard — a session caught
mid-handoff survives its shard's crash without the client noticing.

**Failure ladder** (generalizing the in-process engine ladder, on top
of :mod:`repro.robust` supervision): a dead shard process is detected
by control-channel EOF, reaped with
:func:`repro.robust.supervisor.reap_process`, and respawned after the
deterministic jittered :func:`repro.robust.supervisor.backoff_s`; its
unacknowledged handoffs are resynced to the new process. Past the
``shard_restarts`` budget the shard is respawned *degraded* — inline
sequential serving, that shard alone — while sibling shards keep their
micro-batch engines and their sessions' byte streams untouched.

**Session resumption across shards.** When a shard parks a session
(unclean disconnect) it exports the pickled
:class:`~repro.serve.session.SessionState` — journal, inbox, learner —
over the control channel into the controller's bounded **orphan
pool**; the local copy is dropped. A resume landing on *any* shard
thus misses locally and claims the state back from the controller by
``(session, token)``, so both routing modes survive reconnects that
land on a different process, and a shard refork hands its sessions to
the successor for free. **Graceful drain** builds on the same path:
``drain`` over the control channel makes a shard stop accepting, flush
in-flight ticks, send byes carrying resume tokens, export every
remaining session, and exit — :meth:`ShardedPrognosServer.
rolling_drain` does this one slot at a time (the planned exit skips
the restart penalty and backoff), while SIGTERM drains the whole
daemon in parallel before shutdown.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import hashlib
import hmac
import json
import os
import pickle
import signal
import socket
import struct
from collections import OrderedDict
from dataclasses import replace
from functools import partial

from repro import settings
from repro.robust.supervisor import backoff_s, reap_process
from repro.serve import protocol
from repro.serve.server import MAX_EXPORT, PrognosServer, ServerConfig

#: Largest handshake frame the controller will hand off (a hello is
#: JSON and small; a Unix datagram comfortably carries this).
HANDOFF_MAX = 1 << 17
#: How long the controller waits for a client's handshake frame before
#: dropping the connection (keeps half-open sockets from pinning fds).
HANDSHAKE_TIMEOUT_S = 30.0
#: How long a respawn waits to reap the dead shard before SIGKILL.
REAP_TIMEOUT_S = 5.0
#: Control-channel line limit: an exported session blob rides base64
#: on one newline-JSON line, so the default 64 KiB would truncate it.
CONTROL_LIMIT = 8 << 20
#: Most parked sessions the controller holds for adoption; past this
#: the oldest orphan is dropped (its client restarts the drive).
ORPHAN_POOL_MAX = 4096

_SEQ = struct.Struct("<Q")

ROUTING_MODES = ("auto", "reuseport", "handoff")


# ----------------------------------------------------------------------
# Knobs and routing resolution
# ----------------------------------------------------------------------


def serve_shards() -> int:
    """Shard count from ``REPRO_SERVE_SHARDS``.

    Defaults to ``cpu_count() - 1`` (one core stays with the
    controller/OS); malformed or non-positive values warn once and fall
    back to that default (:mod:`repro.settings`).
    """
    return settings.get("REPRO_SERVE_SHARDS")


def resolve_shards(config: ServerConfig) -> int:
    """Effective shard count for a server config."""
    if config.shards is None:
        return serve_shards()
    return max(1, int(config.shards))


def reuseport_available() -> bool:
    """Whether kernel ``SO_REUSEPORT`` listener sharding is usable."""
    return hasattr(socket, "SO_REUSEPORT")


def fd_passing_available() -> bool:
    """Whether ``socket.send_fds`` fd handoff is usable."""
    return hasattr(socket, "send_fds") and hasattr(socket, "recv_fds")


def resolve_routing(config: ServerConfig) -> str:
    """Pick the concrete routing mode for a sharded server."""
    mode = (config.routing or "auto").strip().lower()
    if mode not in ROUTING_MODES:
        raise ValueError(f"unknown routing mode {config.routing!r}")
    if mode == "auto":
        mode = "reuseport" if reuseport_available() else "handoff"
    if mode == "reuseport" and not reuseport_available():
        mode = "handoff"
    if mode == "handoff" and not fd_passing_available():
        raise RuntimeError("fd handoff requires socket.send_fds (Unix)")
    return mode


def shard_for_session(session_id: str, n_shards: int) -> int:
    """Consistent session→shard hash (stable across processes/runs)."""
    if n_shards <= 1:
        return 0
    digest = hashlib.sha256(session_id.encode("utf-8", "replace")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


# ----------------------------------------------------------------------
# fd handoff wire helpers (unit-tested in tests/test_serve_shard.py)
# ----------------------------------------------------------------------


def send_handoff(sock: socket.socket, seq: int, payload: bytes, fd: int) -> None:
    """One handoff datagram: 8-byte sequence, handshake frame, the fd."""
    socket.send_fds(sock, [_SEQ.pack(seq) + payload], [fd])


def recv_handoff(sock: socket.socket) -> tuple[int, bytes, int]:
    """Receive one handoff datagram; raises ``BlockingIOError`` when
    the socket is drained. Returns ``(seq, payload, fd)``."""
    msg, fds, flags, _addr = socket.recv_fds(sock, HANDOFF_MAX + _SEQ.size, 4)
    if flags & getattr(socket, "MSG_CTRUNC", 0) or not fds:
        for fd in fds:
            with contextlib.suppress(OSError):
                os.close(fd)
        raise OSError("truncated fd handoff datagram")
    for extra in fds[1:]:
        with contextlib.suppress(OSError):
            os.close(extra)
    (seq,) = _SEQ.unpack_from(msg)
    return seq, msg[_SEQ.size :], fds[0]


# ----------------------------------------------------------------------
# Shard child process
# ----------------------------------------------------------------------


def _shard_child(
    config: ServerConfig,
    shard_id: int,
    generation: int,
    control_sock: socket.socket,
    handoff_sock: socket.socket | None,
    listen_addr: tuple[str, int] | None,
) -> int:
    """Forked shard body: fresh event loop, one engine, never returns
    to the caller's frame (the fork site ``os._exit``s the result)."""
    # The controller's loop installed signal plumbing we must not
    # inherit-use: reset before creating this process's own loop.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(
            _shard_serve(
                config, shard_id, generation, control_sock, handoff_sock, listen_addr
            )
        )
    except Exception:
        return 1
    finally:
        with contextlib.suppress(Exception):
            loop.close()


async def _shard_serve(
    config: ServerConfig,
    shard_id: int,
    generation: int,
    control_sock: socket.socket,
    handoff_sock: socket.socket | None,
    listen_addr: tuple[str, int] | None,
) -> int:
    loop = asyncio.get_running_loop()
    server = PrognosServer(config, shard_id=shard_id, generation=generation)
    port = 0
    if listen_addr is not None:
        lsock = socket.socket()
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        lsock.bind(listen_addr)
        lsock.listen(512)
        lsock.setblocking(False)
        port = lsock.getsockname()[1]
        await server.start(sock=lsock)
    else:
        await server.start_engine()

    control_sock.setblocking(False)
    creader, cwriter = await asyncio.open_connection(
        sock=control_sock, limit=CONTROL_LIMIT
    )
    stop = asyncio.Event()
    adopted = 0
    draining = False
    claims: dict[int, asyncio.Future] = {}
    next_claim = 0

    def _send_control(message: dict) -> None:
        with contextlib.suppress(Exception):
            cwriter.write(json.dumps(message, separators=(",", ":")).encode() + b"\n")

    def _export_state(session_id: str, token: str, blob: bytes) -> None:
        _send_control(
            {
                "t": "export",
                "session": session_id,
                "token": token,
                "blob": base64.b64encode(blob).decode(),
            }
        )

    async def _claim_state(session_id: str, token: str) -> bytes | None:
        nonlocal next_claim
        claim_id = next_claim
        next_claim += 1
        future = loop.create_future()
        claims[claim_id] = future
        _send_control(
            {"t": "claim", "id": claim_id, "session": session_id, "token": token}
        )
        try:
            blob64 = await asyncio.wait_for(future, timeout=5.0)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            return None
        finally:
            claims.pop(claim_id, None)
        if not blob64:
            return None
        try:
            return base64.b64decode(blob64)
        except (ValueError, TypeError):
            return None

    server.export_state_cb = _export_state
    server.claim_state_cb = _claim_state

    async def _do_drain(deadline) -> None:
        """Drain, export every surviving session, report, exit."""
        nonlocal draining
        if draining:
            return
        draining = True
        await server.drain(deadline if isinstance(deadline, (int, float)) else None)
        for state in server.extract_states():
            try:
                blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                continue
            if len(blob) > MAX_EXPORT:
                continue
            _export_state(state.session_id, state.token, blob)
        _send_control({"t": "drained"})
        with contextlib.suppress(Exception):
            await cwriter.drain()
        stop.set()

    loop.add_signal_handler(
        signal.SIGTERM, lambda: loop.create_task(_do_drain(None))
    )

    if handoff_sock is not None:
        handoff_sock.setblocking(False)

        def _on_handoff() -> None:
            nonlocal adopted
            while True:
                try:
                    seq, payload, fd = recv_handoff(handoff_sock)
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    loop.remove_reader(handoff_sock.fileno())
                    stop.set()
                    return
                conn = socket.socket(fileno=fd)
                conn.setblocking(False)
                adopted += 1
                server.adopt(conn, payload)
                # Ack *after* adopt: from here the connection is this
                # shard's failure domain and the controller releases
                # its duplicate.
                _send_control({"t": "adopted", "seq": seq})

        loop.add_reader(handoff_sock.fileno(), _on_handoff)

    async def _control_loop() -> None:
        while True:
            try:
                line = await creader.readline()
            except (ConnectionError, OSError):
                line = b""
            if not line:
                stop.set()  # controller is gone: no reason to live
                return
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            kind = message.get("t")
            if kind == "stats":
                stats = server.stats()
                stats["adopted"] = adopted
                _send_control({"t": "stats", "stats": stats})
            elif kind == "state":
                future = claims.get(message.get("id"))
                if future is not None and not future.done():
                    future.set_result(message.get("blob"))
            elif kind == "yank":
                # A resume for a session this shard still holds landed
                # on a sibling; surrender the state through the
                # controller (token-checked inside yank_state).
                blob = server.yank_state(
                    message.get("session"), message.get("token")
                )
                _send_control(
                    {
                        "t": "yanked",
                        "id": message.get("id"),
                        "blob": base64.b64encode(blob).decode() if blob else None,
                    }
                )
            elif kind == "drain":
                loop.create_task(_do_drain(message.get("deadline")))

    control_task = asyncio.create_task(_control_loop())
    _send_control({"t": "ready", "port": port})
    await stop.wait()
    control_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await control_task
    await server.shutdown()
    with contextlib.suppress(Exception):
        cwriter.close()
    return 0


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------


class _Shard:
    """Controller-side bookkeeping for one engine worker process."""

    __slots__ = (
        "id",
        "pid",
        "restarts",
        "degraded",
        "ready",
        "port",
        "control_sock",
        "control_reader",
        "control_writer",
        "handoff_sock",
        "pending",
        "sent",
        "writer_armed",
        "monitor",
        "stats_future",
        "draining",
        "drained",
    )

    def __init__(self, shard_id: int) -> None:
        self.id = shard_id
        self.pid = -1
        self.restarts = 0
        self.degraded = False
        self.ready = asyncio.Event()
        self.port = 0
        self.control_sock: socket.socket | None = None
        self.control_reader = None
        self.control_writer = None
        self.handoff_sock: socket.socket | None = None
        #: seq → (client socket, handshake payload); kept until the
        #: shard acks adoption so a crash can resync the handoff.
        self.pending: dict[int, tuple[socket.socket, bytes]] = {}
        self.sent: set[int] = set()
        self.writer_armed = False
        self.monitor: asyncio.Task | None = None
        self.stats_future: asyncio.Future | None = None
        #: A planned (rolling-drain) exit is underway: the respawn
        #: skips the crash penalty and the backoff.
        self.draining = False
        self.drained = asyncio.Event()


class ShardedPrognosServer:
    """Acceptor/controller in front of ``n`` forked engine shards.

    Presents the same lifecycle surface as
    :class:`~repro.serve.server.PrognosServer` (``start`` /
    ``shutdown`` / ``port`` / async context manager) so
    :func:`repro.serve.loadgen.spawn_server` can fork either
    interchangeably; ``stats()`` is a coroutine here because it polls
    the shards over their control channels.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.n_shards = resolve_shards(self.config)
        self.routing = resolve_routing(self.config)
        self._shards: list[_Shard] = []
        self._listen_sock: socket.socket | None = None
        self._placeholder: socket.socket | None = None
        self._accept_task: asyncio.Task | None = None
        self._route_tasks: set[asyncio.Task] = set()
        self._routing_conns: set[socket.socket] = set()
        self._next_seq = 0
        self._port = 0
        self._running = False
        self._draining = False
        #: Parked sessions exported by shards, keyed by session id;
        #: bounded FIFO — see ORPHAN_POOL_MAX.
        self._orphans: OrderedDict[str, tuple[str, str]] = OrderedDict()
        self.orphans_claimed = 0
        self.orphans_dropped = 0
        #: In-flight claim-miss yanks: yank id → pending record.
        self._yanks: dict[int, dict] = {}
        self._next_yank = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._port, "server not started"
        return self._port

    async def __aenter__(self) -> "ShardedPrognosServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    async def start(self) -> None:
        self._running = True
        host = self.config.host
        if self.routing == "reuseport":
            # Reserve the port without listening: shards open their own
            # SO_REUSEPORT listeners on it; the placeholder keeps the
            # reservation alive across shard respawns.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((host, self.config.port))
            self._placeholder = sock
            self._port = sock.getsockname()[1]
        else:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, self.config.port))
            sock.listen(512)
            sock.setblocking(False)
            self._listen_sock = sock
            self._port = sock.getsockname()[1]
        for shard_id in range(self.n_shards):
            shard = _Shard(shard_id)
            self._shards.append(shard)
            self._spawn(shard)
        await asyncio.wait_for(
            asyncio.gather(*(s.ready.wait() for s in self._shards)), timeout=60.0
        )
        if self._listen_sock is not None:
            self._accept_task = asyncio.create_task(self._accept_loop())

    def _send_drain(self, shard: _Shard, deadline_s: float | None) -> bool:
        if not shard.ready.is_set() or shard.control_writer is None:
            return False
        shard.drained = asyncio.Event()
        message = {"t": "drain", "deadline": deadline_s}
        try:
            shard.control_writer.write(
                json.dumps(message, separators=(",", ":")).encode() + b"\n"
            )
        except Exception:
            return False
        return True

    async def drain(self, deadline_s: float | None = None) -> None:
        """Full-daemon graceful drain (SIGTERM path): every shard
        drains in parallel — byes with resume tokens, sessions exported
        — then exits; no successors are forked."""
        if self._draining:
            return
        self._draining = True
        if self._accept_task is not None:
            self._accept_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._accept_task
            self._accept_task = None
        sent = [s for s in self._shards if self._send_drain(s, deadline_s)]
        budget = (deadline_s if deadline_s is not None else 30.0) + 10.0
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                asyncio.gather(*(s.drained.wait() for s in sent)), timeout=budget
            )

    async def rolling_drain(self, deadline_s: float | None = None) -> None:
        """Drain and refork one shard at a time.

        While a slot is down, its sessions' resumes land on siblings
        (``reuseport``) or park in the controller's pending handoffs
        until the successor reports ready (``handoff``); either way the
        exported state is claimed from the orphan pool, so no session
        restarts. The planned exit skips the crash penalty, leaving the
        restart budget intact.
        """
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            if not self._running or self._draining:
                return
            old_pid = shard.pid
            shard.draining = True
            if not self._send_drain(shard, deadline_s):
                shard.draining = False
                continue
            budget = (deadline_s if deadline_s is not None else 30.0) + 10.0
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(shard.drained.wait(), timeout=budget)
            # The child exits after reporting drained; the monitor
            # reforks the slot (planned, no backoff). Wait for the
            # successor so at most one slot is ever down.
            deadline = loop.time() + 60.0
            while loop.time() < deadline and (
                shard.pid == old_pid or not shard.ready.is_set()
            ):
                if not self._running:
                    return
                await asyncio.sleep(0.02)

    async def shutdown(self) -> None:
        self._running = False
        if self._accept_task is not None:
            self._accept_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._accept_task
            self._accept_task = None
        for task in list(self._route_tasks):
            task.cancel()
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            if shard.monitor is not None:
                shard.monitor.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await shard.monitor
            with contextlib.suppress(ProcessLookupError, OSError):
                os.kill(shard.pid, signal.SIGTERM)
        for shard in self._shards:
            if shard.pid > 0:
                await loop.run_in_executor(
                    None, partial(reap_process, shard.pid, timeout_s=REAP_TIMEOUT_S)
                )
            self._close_shard_sockets(shard)
            for conn, _payload in shard.pending.values():
                with contextlib.suppress(OSError):
                    conn.close()
            shard.pending.clear()
        for conn in list(self._routing_conns):
            with contextlib.suppress(OSError):
                conn.close()
        self._routing_conns.clear()
        for sock in (self._listen_sock, self._placeholder):
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()
        self._listen_sock = None
        self._placeholder = None
        self._shards.clear()

    # ------------------------------------------------------------------
    # Spawning and supervision
    # ------------------------------------------------------------------

    def _engine_config(self, degraded: bool) -> ServerConfig:
        return replace(
            self.config,
            shards=1,
            batched=self.config.batched and not degraded,
        )

    def _controller_fds(self) -> list[int]:
        """Every controller-side fd a freshly forked shard must close."""
        socks: list[socket.socket] = []
        if self._listen_sock is not None:
            socks.append(self._listen_sock)
        if self._placeholder is not None:
            socks.append(self._placeholder)
        for shard in self._shards:
            if shard.control_sock is not None:
                socks.append(shard.control_sock)
            if shard.handoff_sock is not None:
                socks.append(shard.handoff_sock)
            for conn, _payload in shard.pending.values():
                socks.append(conn)
        socks.extend(self._routing_conns)
        fds = []
        for sock in socks:
            with contextlib.suppress(OSError, ValueError):
                fds.append(sock.fileno())
        return [fd for fd in fds if fd >= 0]

    def _spawn(self, shard: _Shard) -> None:
        """Fork one engine worker; models are inherited, never pickled."""
        control_parent, control_child = socket.socketpair()
        handoff_parent = handoff_child = None
        if self.routing == "handoff":
            handoff_parent, handoff_child = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_DGRAM
            )
        listen_addr = (
            (self.config.host, self._port) if self.routing == "reuseport" else None
        )
        close_in_child = self._controller_fds()
        degraded = shard.degraded
        config = self._engine_config(degraded)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                control_parent.close()
                if handoff_parent is not None:
                    handoff_parent.close()
                for fd in close_in_child:
                    with contextlib.suppress(OSError):
                        os.close(fd)
                status = _shard_child(
                    config,
                    shard.id,
                    shard.restarts,
                    control_child,
                    handoff_child,
                    listen_addr,
                )
            finally:
                os._exit(status)
        control_child.close()
        if handoff_child is not None:
            handoff_child.close()
        shard.pid = pid
        shard.control_sock = control_parent
        shard.handoff_sock = handoff_parent
        shard.sent.clear()
        shard.writer_armed = False
        shard.monitor = asyncio.create_task(self._monitor(shard))

    def _close_shard_sockets(self, shard: _Shard) -> None:
        if shard.control_writer is not None:
            with contextlib.suppress(Exception):
                shard.control_writer.close()
            shard.control_reader = None
            shard.control_writer = None
        elif shard.control_sock is not None:
            with contextlib.suppress(OSError):
                shard.control_sock.close()
        shard.control_sock = None
        if shard.handoff_sock is not None:
            if shard.writer_armed:
                with contextlib.suppress(Exception):
                    asyncio.get_running_loop().remove_writer(
                        shard.handoff_sock.fileno()
                    )
                shard.writer_armed = False
            with contextlib.suppress(OSError):
                shard.handoff_sock.close()
            shard.handoff_sock = None

    async def _monitor(self, shard: _Shard) -> None:
        """Drive one shard's control channel; respawn it on EOF."""
        sock = shard.control_sock
        sock.setblocking(False)
        try:
            reader, writer = await asyncio.open_connection(
                sock=sock, limit=CONTROL_LIMIT
            )
        except OSError:
            return
        shard.control_reader = reader
        shard.control_writer = writer
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                kind = message.get("t")
                if kind == "ready":
                    shard.port = int(message.get("port") or 0)
                    shard.ready.set()
                    self._flush_handoffs(shard)
                elif kind == "adopted":
                    entry = shard.pending.pop(message.get("seq"), None)
                    shard.sent.discard(message.get("seq"))
                    if entry is not None:
                        with contextlib.suppress(OSError):
                            entry[0].close()
                elif kind == "stats":
                    future = shard.stats_future
                    if future is not None and not future.done():
                        future.set_result(message.get("stats"))
                elif kind == "export":
                    self._store_orphan(message)
                elif kind == "claim":
                    self._answer_claim(shard, message)
                elif kind == "yanked":
                    self._on_yanked(message)
                elif kind == "drained":
                    shard.drained.set()
        except (ConnectionError, OSError):
            pass
        if not self._running or self._draining:
            return
        planned = shard.draining
        shard.draining = False
        await self._respawn(shard, planned=planned)

    def _store_orphan(self, message: dict) -> None:
        """Bank one exported session for a later claim."""
        session_id = message.get("session")
        token = message.get("token")
        blob64 = message.get("blob")
        if not (
            isinstance(session_id, str)
            and isinstance(token, str)
            and isinstance(blob64, str)
        ):
            return
        self._orphans.pop(session_id, None)
        self._orphans[session_id] = (token, blob64)
        while len(self._orphans) > ORPHAN_POOL_MAX:
            self._orphans.popitem(last=False)
            self.orphans_dropped += 1

    def _reply_claim(self, shard: _Shard, req_id, blob64) -> None:
        reply = {"t": "state", "id": req_id, "blob": blob64}
        if shard.control_writer is not None:
            with contextlib.suppress(Exception):
                shard.control_writer.write(
                    json.dumps(reply, separators=(",", ":")).encode() + b"\n"
                )

    def _answer_claim(self, shard: _Shard, message: dict) -> None:
        """Resolve a shard's resume miss — orphan pool first, then yank.

        A resume can land on a sibling before the owner shard has even
        noticed the disconnect (``SO_REUSEPORT`` picks listeners at
        random), so a pool miss fans a token-carrying yank out to every
        other live shard; the first shard holding the session exports it
        on demand and the claim is answered with that blob. Only when
        every shard denies it (or the backstop timer fires — a yanked
        shard can die mid-answer) does the claimant get a miss and the
        client a restart.
        """
        session_id = message.get("session")
        token = message.get("token")
        req_id = message.get("id")
        entry = self._orphans.get(session_id) if isinstance(session_id, str) else None
        if (
            entry is not None
            and isinstance(token, str)
            and hmac.compare_digest(entry[0], token)
        ):
            self.orphans_claimed += 1
            self._reply_claim(shard, req_id, self._orphans.pop(session_id)[1])
            return
        others = [
            s
            for s in self._shards
            if s is not shard and s.ready.is_set() and s.control_writer is not None
        ]
        if not (others and isinstance(session_id, str) and isinstance(token, str)):
            self._reply_claim(shard, req_id, None)
            return
        self._next_yank += 1
        yank_id = self._next_yank
        record = {
            "shard": shard,
            "req": req_id,
            "left": 0,
            "session": session_id,
            "token": token,
        }
        self._yanks[yank_id] = record
        data = (
            json.dumps(
                {"t": "yank", "id": yank_id, "session": session_id, "token": token},
                separators=(",", ":"),
            ).encode()
            + b"\n"
        )
        for other in others:
            try:
                other.control_writer.write(data)
            except Exception:
                continue
            record["left"] += 1
        if record["left"] == 0:
            del self._yanks[yank_id]
            self._reply_claim(shard, req_id, None)
            return
        # Backstop under the claimant's own 5 s wait.
        asyncio.get_running_loop().call_later(2.0, self._expire_yank, yank_id)

    def _finish_yank_miss(self, record: dict) -> None:
        """Every shard denied the yank (or the backstop fired).

        Re-check the orphan pool before giving up: the owner may have
        been exporting the session while the claim raced past it, and
        its control channel is ordered — the export message lands here
        before its yank denial does.
        """
        entry = self._orphans.get(record["session"])
        if entry is not None and hmac.compare_digest(entry[0], record["token"]):
            self.orphans_claimed += 1
            self._reply_claim(
                record["shard"],
                record["req"],
                self._orphans.pop(record["session"])[1],
            )
        else:
            self._reply_claim(record["shard"], record["req"], None)

    def _expire_yank(self, yank_id: int) -> None:
        record = self._yanks.pop(yank_id, None)
        if record is not None:
            self._finish_yank_miss(record)

    def _on_yanked(self, message: dict) -> None:
        yank_id = message.get("id")
        record = self._yanks.get(yank_id)
        if record is None:
            return
        blob64 = message.get("blob")
        if isinstance(blob64, str) and blob64:
            del self._yanks[yank_id]
            self.orphans_claimed += 1
            self._reply_claim(record["shard"], record["req"], blob64)
            return
        record["left"] -= 1
        if record["left"] <= 0:
            del self._yanks[yank_id]
            self._finish_yank_miss(record)

    async def _respawn(self, shard: _Shard, planned: bool = False) -> None:
        """The shard process died: reap, back off, fork a successor.

        Unacknowledged handoffs stay in ``shard.pending`` — their
        client fds are still open here — and are re-sent to the new
        process once it reports ready. Past the restart budget the
        successor runs degraded (inline sequential), alone. A
        ``planned`` exit (rolling drain) is not a crash: no restart
        strike, no backoff — the slot reforks immediately.
        """
        shard.ready = asyncio.Event()
        loop = asyncio.get_running_loop()
        if shard.pid > 0:
            await loop.run_in_executor(
                None, partial(reap_process, shard.pid, timeout_s=REAP_TIMEOUT_S)
            )
        self._close_shard_sockets(shard)
        if not planned:
            shard.restarts += 1
            if shard.restarts > self.config.shard_restarts:
                shard.degraded = True
        future = shard.stats_future
        if future is not None and not future.done():
            future.cancel()
        if not planned:
            await asyncio.sleep(backoff_s(shard.restarts, salt=f"shard-{shard.id}"))
        if not self._running:
            return
        self._spawn(shard)

    # ------------------------------------------------------------------
    # Accept + route (handoff mode)
    # ------------------------------------------------------------------

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while self._running:
            try:
                conn, _addr = await loop.sock_accept(self._listen_sock)
            except (OSError, asyncio.CancelledError):
                return
            task = asyncio.create_task(self._route(conn))
            self._route_tasks.add(task)
            task.add_done_callback(self._route_tasks.discard)

    async def _route(self, conn: socket.socket) -> None:
        """Read the handshake, pick the shard, hand the fd over."""
        loop = asyncio.get_running_loop()
        self._routing_conns.add(conn)
        routed = False
        try:
            conn.setblocking(False)
            try:
                payload = await asyncio.wait_for(
                    protocol.read_frame_sock(loop, conn), HANDSHAKE_TIMEOUT_S
                )
            except (protocol.FrameError, asyncio.TimeoutError, OSError):
                payload = None
            if payload is None or len(payload) > HANDOFF_MAX:
                return
            session_id = ""
            with contextlib.suppress(protocol.FrameError):
                hello = protocol.decode_json(payload)
                if isinstance(hello.get("session"), str):
                    session_id = hello["session"]
            shard = self._shards[shard_for_session(session_id, self.n_shards)]
            seq = self._next_seq
            self._next_seq += 1
            shard.pending[seq] = (conn, payload)
            routed = True
            self._flush_handoffs(shard)
        finally:
            self._routing_conns.discard(conn)
            if not routed:
                with contextlib.suppress(OSError):
                    conn.close()

    def _flush_handoffs(self, shard: _Shard) -> None:
        """Send every not-yet-sent pending handoff to a ready shard."""
        if not shard.ready.is_set() or shard.handoff_sock is None:
            return
        for seq, (conn, payload) in list(shard.pending.items()):
            if seq in shard.sent:
                continue
            try:
                send_handoff(shard.handoff_sock, seq, payload, conn.fileno())
            except (BlockingIOError, InterruptedError):
                self._arm_flush_writer(shard)
                return
            except OSError:
                # Shard is dying; the monitor's respawn will resync.
                return
            shard.sent.add(seq)

    def _arm_flush_writer(self, shard: _Shard) -> None:
        if shard.writer_armed or shard.handoff_sock is None:
            return
        loop = asyncio.get_running_loop()
        fd = shard.handoff_sock.fileno()

        def _writable() -> None:
            with contextlib.suppress(Exception):
                loop.remove_writer(fd)
            shard.writer_armed = False
            self._flush_handoffs(shard)

        loop.add_writer(fd, _writable)
        shard.writer_armed = True

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    async def stats(self) -> dict:
        """Controller + per-shard engine stats (queue depths, drops,
        restarts); shards are polled over their control channels."""
        loop = asyncio.get_running_loop()
        per_shard = []
        for shard in self._shards:
            entry = {
                "shard": shard.id,
                "pid": shard.pid,
                "restarts": shard.restarts,
                "degraded": shard.degraded,
                "alive": shard.ready.is_set(),
                "pending_handoffs": len(shard.pending),
            }
            if shard.ready.is_set() and shard.control_writer is not None:
                future = loop.create_future()
                shard.stats_future = future
                try:
                    shard.control_writer.write(b'{"t":"stats"}\n')
                    await shard.control_writer.drain()
                    entry["engine"] = await asyncio.wait_for(future, timeout=5.0)
                except (Exception, asyncio.TimeoutError):
                    entry["alive"] = False
                finally:
                    shard.stats_future = None
            per_shard.append(entry)
        engines = [e["engine"] for e in per_shard if "engine" in e]
        return {
            "shards": self.n_shards,
            "routing": self.routing,
            "batched": self.config.batched,
            "sessions": sum(e["sessions"] for e in engines),
            "restarts": sum(s["restarts"] for s in per_shard),
            "dropped": sum(e["dropped"] for e in engines),
            "lost": sum(e["lost"] for e in engines),
            "shed": sum(e.get("shed", 0) for e in engines),
            "resumed": sum(e.get("resumed", 0) for e in engines),
            "resume_misses": sum(e.get("resume_misses", 0) for e in engines),
            "replayed": sum(e.get("replayed", 0) for e in engines),
            "evicted_idle": sum(e.get("evicted_idle", 0) for e in engines),
            "evicted_dead": sum(e.get("evicted_dead", 0) for e in engines),
            "orphans": len(self._orphans),
            "orphans_claimed": self.orphans_claimed,
            "per_shard": per_shard,
        }


def make_server(config: ServerConfig | None = None):
    """The right daemon for a config: sharded when it resolves to more
    than one engine process, the single-process server otherwise."""
    config = config or ServerConfig()
    if resolve_shards(config) > 1:
        return ShardedPrognosServer(config)
    return PrognosServer(config)
