"""Multi-core serving: process-sharded Prognos engines.

One :class:`~repro.serve.server.PrognosServer` saturates a single core
— the asyncio loop hosts the readers *and* the micro-batch engine, so
sessions/s is capped by one Python process regardless of the host.
This module scales the daemon across cores: a controller process forks
``REPRO_SERVE_SHARDS`` engine worker processes (default
``cpu_count() - 1``), each running the PR 7 micro-batch engine
unchanged, and routes every UE session to exactly one shard.

**Fork inheritance, not pickling.** Shards are forked from the
controller, so each inherits the server config and the imported engine
code already in memory: nothing is serialized per shard, and a
respawned shard re-inherits the same objects because the controller
still holds them.

**Routing: consistent-hash fd handoff.** The controller accepts, reads
exactly the handshake frame (:func:`~repro.serve.protocol.read_frame_sock`
never over-reads, so pipelined bytes stay in the kernel buffer), picks
the shard by a consistent hash of the session id, and passes the
connection fd over a Unix datagram socketpair with ``socket.send_fds``.
Tick frames never transit the controller. This is the only routing
mode: ``send_fds`` exists on every platform that can fork this server,
and the hash puts a session on the same shard on all of them, whereas
kernel-balanced per-shard listeners are Linux-only (DESIGN.md §6d).

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

**Session resumption.** When a shard parks a session (unclean
disconnect) it exports the pickled
:class:`~repro.serve.session.SessionState` — journal, inbox, learner —
over the control channel into the controller's bounded **orphan
pool**; the local copy is dropped. The resume hashes to the same slot,
misses locally and claims the state back from the pool by
``(session, token)``; a shard refork hands its sessions to the
successor in that slot the same way. **Graceful drain** builds on the
same path: ``drain`` over the control channel makes a shard stop
accepting, flush in-flight ticks, send byes carrying resume tokens,
export every remaining session, and exit —
:meth:`ShardedPrognosServer.rolling_drain` does this one slot at a time
(the planned exit skips the restart penalty and backoff), while SIGTERM
drains the whole daemon in parallel before shutdown.
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


# ----------------------------------------------------------------------
# Knobs and platform check
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


def fd_passing_available() -> bool:
    """Whether ``socket.send_fds`` fd handoff is usable."""
    return hasattr(socket, "send_fds") and hasattr(socket, "recv_fds")


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
    handoff_sock: socket.socket,
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
            _shard_serve(config, shard_id, generation, control_sock, handoff_sock)
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
    handoff_sock: socket.socket,
) -> int:
    loop = asyncio.get_running_loop()
    server = PrognosServer(config, shard_id=shard_id, generation=generation)
    await server.start_engine()

    control_sock.setblocking(False)
    creader, cwriter = await asyncio.open_connection(
        sock=control_sock, limit=CONTROL_LIMIT
    )
    stop = asyncio.Event()
    adopted = 0
    drain_task: asyncio.Task | None = None
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

    def _start_drain(deadline) -> None:
        # One drain per process, and none once teardown has begun: a
        # task created after ``stop`` would never run.
        nonlocal drain_task
        if drain_task is None and not stop.is_set():
            drain_task = loop.create_task(_do_drain(deadline))

    loop.add_signal_handler(signal.SIGTERM, _start_drain, None)

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
            # shard's failure domain and the controller releases its
            # duplicate.
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
            elif kind == "drain":
                _start_drain(message.get("deadline"))

    control_task = asyncio.create_task(_control_loop())
    _send_control({"t": "ready"})
    await stop.wait()
    # Unhook SIGTERM while the loop still runs: removing the handler
    # also clears the signal wakeup fd, which ``loop.close()`` would
    # otherwise close first — a late SIGTERM then writes to a dead fd.
    loop.remove_signal_handler(signal.SIGTERM)
    for task in (control_task, drain_task):
        if task is not None and not task.done():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
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
        #: This process reported ``drained``: it exits on its own, so
        #: shutdown reaps it without a signal.
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
        if not fd_passing_available():
            raise RuntimeError("sharded serving requires socket.send_fds (Unix)")
        self.config = config or ServerConfig()
        self.n_shards = resolve_shards(self.config)
        self._shards: list[_Shard] = []
        self._listen_sock: socket.socket | None = None
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
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
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
        self._accept_task = asyncio.create_task(self._accept_loop())

    def _send_drain(self, shard: _Shard, deadline_s: float | None) -> bool:
        if not shard.ready.is_set() or shard.control_writer is None:
            return False
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

        While a slot is down, its sessions' resumes park in the
        controller's pending handoffs until the successor reports
        ready, which claims the exported state from the orphan pool, so
        no session restarts. The planned exit skips the crash penalty,
        leaving the restart budget intact.
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
            if not shard.drained.is_set():
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
        if self._listen_sock is not None:
            with contextlib.suppress(OSError):
                self._listen_sock.close()
        self._listen_sock = None
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
        """Fork one engine worker; its config is inherited, never pickled."""
        control_parent, control_child = socket.socketpair()
        handoff_parent, handoff_child = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_DGRAM
        )
        close_in_child = self._controller_fds()
        degraded = shard.degraded
        config = self._engine_config(degraded)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                control_parent.close()
                handoff_parent.close()
                for fd in close_in_child:
                    with contextlib.suppress(OSError):
                        os.close(fd)
                status = _shard_child(
                    config, shard.id, shard.restarts, control_child, handoff_child
                )
            finally:
                os._exit(status)
        control_child.close()
        handoff_child.close()
        shard.pid = pid
        shard.drained = asyncio.Event()
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

    def _answer_claim(self, shard: _Shard, message: dict) -> None:
        """Resolve a shard's resume miss from the orphan pool.

        A session lives only on the slot its id hashes to or, once
        parked, in the pool, so a token-checked pool hit is the one way
        a claim succeeds; anything else is a miss and the client
        restarts its drive.
        """
        session_id = message.get("session")
        token = message.get("token")
        entry = self._orphans.get(session_id) if isinstance(session_id, str) else None
        blob64 = None
        if (
            entry is not None
            and isinstance(token, str)
            and hmac.compare_digest(entry[0], token)
        ):
            self.orphans_claimed += 1
            blob64 = self._orphans.pop(session_id)[1]
        reply = {"t": "state", "id": message.get("id"), "blob": blob64}
        if shard.control_writer is not None:
            with contextlib.suppress(Exception):
                shard.control_writer.write(
                    json.dumps(reply, separators=(",", ":")).encode() + b"\n"
                )

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
    # Accept + route
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
