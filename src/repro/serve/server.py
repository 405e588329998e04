"""The Prognos serving daemon: asyncio TCP, micro-batched inference.

One process serves many concurrent UE sessions. Readers do protocol
work only (decode, order-preserving per-session inboxes); all model
work happens on one engine task that drains the
:class:`~repro.serve.batcher.BatchCollector` of ready sessions. One
engine pass takes every tick each ready session has queued, runs one
cross-session :func:`~repro.serve.forecast.forecast_batch` and one
:func:`~repro.apps.abr.algorithms.mpc_select_many` call over all of
them, and hands encoded predictions to per-session outboxes in tick
order (see :meth:`PrognosServer._take_ticks` for the frame order
inside a pass). A server built with ``batched=False`` short-circuits
everything in the reader with the scalar per-session pipeline — that
is the bench's baseline mode, not a degraded afterthought.

Backpressure, per session and never global:

* **inbound** — a session may have at most :data:`INBOX_LIMIT`
  unanswered ticks; past that its reader stops reading, which pushes
  back through TCP to the client. Other sessions are unaffected.
* **outbound** — predictions queue in a per-session outbox flushed by a
  small writer task that respects the transport's write buffer. A slow
  consumer fills its outbox; policy ``"drop"`` (default) then evicts
  the oldest prediction and counts it (the ``dropped`` field of every
  later prediction frame carries the running count), policy
  ``"disconnect"`` aborts the connection. The engine never blocks on
  either.

Resilience (see DESIGN.md §6d for the full ladder):

* **Resumable sessions** — session state lives in a
  :class:`~repro.serve.session.SessionState` that outlives the TCP
  connection. Every prediction is journalled (framed bytes, bounded by
  ``ServerConfig.replay``, counted overflow); an unclean disconnect
  parks the state instead of destroying it, and a client reconnecting
  with ``resume {token, last_seq}`` gets the missed tail replayed
  bit-identically. Under a shard controller, parked states are
  exported over the control channel to the controller's orphan pool
  and claimed back by the session's own shard when the resume lands
  there.
* **Liveness** — a sweeper pings idle connections (``H`` frames) after
  ``REPRO_SERVE_HEARTBEAT_S``, evicts dead peers at twice that, and
  expires parked sessions at four times (reasons surfaced in the bye
  and in stats).
* **Admission control** — past ``ServerConfig.max_sessions`` new
  hellos are shed with a JSON ``busy`` carrying ``retry_after`` instead
  of degrading every session; resumes are exempt (their session is
  already accounted).
* **Graceful drain** — :meth:`PrognosServer.drain` stops accepting,
  lets in-flight ticks finish within ``ServerConfig.drain_s``, sends
  every client a bye carrying its resume token, then closes; parked
  state survives for the successor to adopt.

Failure ladder for the engine: an engine crash loses at most the ticks
its pass had taken, up to each session's whole backlog — the
supervisor resyncs every session's accounting (lost ticks are counted,
never silently swallowed), restarts the engine, and after
``engine_restarts`` strikes degrades the server to inline sequential
serving (each session taking a forced log boundary) rather than going
dark.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import pickle
import secrets
import socket
from collections import deque
from dataclasses import dataclass

from repro import settings
from repro.apps.abr.algorithms import mpc_select_many
from repro.serve import protocol
from repro.serve.batcher import BatchCollector
from repro.serve.protocol import FrameError, frame, read_frame
from repro.serve.forecast import forecast_batch
from repro.serve.session import ServingSession, SessionState

_POLICIES = ("drop", "disconnect")

#: Ceiling on one exported session blob (journal + learner state); a
#: session past this is not exported and its resume falls back to a
#: client-side restart.
MAX_EXPORT = 4 << 20

#: Max unanswered ticks per session before its reader stops reading.
INBOX_LIMIT = 64

#: Transport write-buffer high water (bytes) the flusher respects.
WRITE_HIGH_WATER = 256 * 1024

_HEARTBEAT = frame(b"H")


@dataclass
class ServerConfig:
    """Tunables of one serving daemon."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Micro-batched engine vs inline per-session sequential serving.
    batched: bool = True
    #: Max queued predictions per slow session before the policy bites.
    outbox_limit: int = 256
    #: Engine crash budget before the server degrades to sequential.
    engine_restarts: int = 2
    #: Engine worker processes. ``None`` reads ``REPRO_SERVE_SHARDS``
    #: (default ``cpu_count() - 1``); a resolved count > 1 makes
    #: ``spawn_server`` run the multi-process
    #: :class:`~repro.serve.shard.ShardedPrognosServer` instead of one
    #: :class:`PrognosServer`. Direct ``PrognosServer`` construction
    #: always serves single-process and ignores this field.
    shards: int | None = None
    #: Shard process crash budget before a shard is respawned degraded
    #: (inline-sequential). Per shard, on top of the per-process engine
    #: ladder above.
    shard_restarts: int = 2
    #: Replay journal depth per session; 0 disables resumption.
    replay: int = 512
    #: Heartbeat interval. ``None`` reads ``REPRO_SERVE_HEARTBEAT_S``
    #: (default 30); 0 disables the liveness sweeper entirely.
    heartbeat_s: float | None = None
    #: Admission ceiling on concurrent sessions (live + parked); 0 = off.
    max_sessions: int = 0
    #: Drain deadline, seconds.
    drain_s: float = 5.0


class _Connection:
    """Transport plumbing around one attached :class:`SessionState`."""

    __slots__ = (
        "state",
        "reader",
        "writer",
        "policy",
        "outbox",
        "outbox_limit",
        "drain",
        "out_event",
        "closed",
        "flusher",
        "last_in_at",
        "pinged",
    )

    def __init__(self, state, reader, writer, policy, outbox_limit) -> None:
        self.state = state
        self.reader = reader
        self.writer = writer
        self.policy = policy
        self.outbox: deque = (
            deque(maxlen=outbox_limit) if policy == "drop" else deque()
        )
        self.outbox_limit = outbox_limit
        self.drain = asyncio.Event()
        self.out_event = asyncio.Event()
        self.closed = False
        self.flusher: asyncio.Task | None = None
        self.last_in_at = 0.0
        self.pinged = False

    def deliver(self, data: bytes) -> None:
        """Queue an encoded frame for the flusher; never blocks."""
        if self.closed:
            return
        if self.policy == "disconnect":
            if len(self.outbox) >= self.outbox_limit:
                self.kill()
                return
        elif len(self.outbox) == self.outbox.maxlen:
            # The append below evicts the oldest live send; the journal
            # still holds it, so a resume can recover what a slow
            # consumer missed.
            self.state.dropped += 1
        self.outbox.append(data)
        self.out_event.set()

    def kill(self) -> None:
        """Abort the transport (policy violation or shutdown)."""
        if self.closed:
            return
        self.closed = True
        self.drain.set()
        self.out_event.set()
        with contextlib.suppress(Exception):
            self.writer.transport.abort()

    def close_graceful(self) -> None:
        """FIN instead of RST, so a final bye still flushes."""
        if self.closed:
            return
        self.closed = True
        self.drain.set()
        self.out_event.set()
        with contextlib.suppress(Exception):
            self.writer.close()


class PrognosServer:
    """Long-lived serving daemon; see the module docstring."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        shard_id: int | None = None,
        generation: int = 0,
    ) -> None:
        self.config = config or ServerConfig()
        #: Which shard of a sharded daemon this engine is (None when it
        #: is the whole daemon) and how many times the controller has
        #: respawned it; both surface in stats and every bye frame.
        self.shard_id = shard_id
        self.generation = generation
        cfg = self.config
        self.heartbeat_s = (
            cfg.heartbeat_s
            if cfg.heartbeat_s is not None
            else settings.get("REPRO_SERVE_HEARTBEAT_S")
        )
        #: Live and parked sessions, keyed by session id. A state with
        #: ``conn is None`` is parked, awaiting resume or eviction.
        self._sessions: dict[str, SessionState] = {}
        #: Sessions with equal event-config lists must share one list
        #: object — the forecast engine keys trigger cohorts by id().
        self._config_intern: dict[tuple, list] = {}
        self._collector: BatchCollector | None = None
        self._server: asyncio.Server | None = None
        self._engine_task: asyncio.Task | None = None
        self._sweeper_task: asyncio.Task | None = None
        self._adopted: set[asyncio.Task] = set()
        self._running = False
        self._degraded = False
        self._draining = False
        self.engine_restarts = 0
        self.batches = 0
        self.batch_ticks = 0
        self.sessions_total = 0
        self.dropped_total = 0
        self.lost_total = 0
        self.overflow_total = 0
        self.shed = 0
        self.resumed = 0
        self.resume_misses = 0
        self.replayed = 0
        self.detached = 0
        self.evicted_idle = 0
        self.evicted_dead = 0
        self.exported = 0
        #: Shard-controller hooks (set by :mod:`repro.serve.shard`):
        #: export ships a pickled parked session to the orphan pool,
        #: claim fetches one back on a resume miss.
        self.export_state_cb = None
        self.claim_state_cb = None
        #: Test hook: an exception instance raised at the top of the
        #: next engine pass (exercises the supervision ladder).
        self._inject_engine_fault: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start_engine(self) -> None:
        """Arm the engine without a TCP listener (shards adopt handed-off
        connections instead)."""
        self._running = True
        self._collector = BatchCollector()
        if self.config.batched:
            self._engine_task = asyncio.create_task(self._engine_supervisor())
        if self.heartbeat_s > 0:
            self._sweeper_task = asyncio.create_task(self._sweep_loop())

    async def start(self) -> None:
        """Start the engine and listen on the configured host/port."""
        await self.start_engine()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )

    def adopt(self, sock: socket.socket, first_payload: bytes) -> asyncio.Task:
        """Serve a connection handed over by the shard controller.

        ``first_payload`` is the handshake frame the controller already
        consumed for routing; everything after it is still in the
        socket and is read here, so tick frames never transit the
        controller.
        """

        async def _serve() -> None:
            try:
                reader, writer = await asyncio.open_connection(sock=sock)
            except OSError:
                with contextlib.suppress(OSError):
                    sock.close()
                return
            await self._handle_client(reader, writer, first_payload=first_payload)

        task = asyncio.create_task(_serve())
        self._adopted.add(task)
        task.add_done_callback(self._adopted.discard)
        return task

    async def drain(self, deadline_s: float | None = None) -> None:
        """Graceful drain: stop accepting, flush, bye with resume tokens.

        In-flight ticks get until the deadline (``ServerConfig.drain_s``
        unless overridden) to finish and flush; then every attached
        client receives a JSON bye with ``reason: "drain"`` and its
        resume token, and the connection is closed with a FIN. Parked
        states survive — :meth:`extract_states` hands them to the shard
        controller for a successor to adopt.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + (
            self.config.drain_s if deadline_s is None else deadline_s
        )
        while loop.time() < deadline:
            states = list(self._sessions.values())
            busy = any(s.pending for s in states) or any(
                s.conn is not None and not s.conn.closed and s.conn.outbox
                for s in states
            )
            if not busy:
                break
            await asyncio.sleep(0.005)
        for state in list(self._sessions.values()):
            conn = state.conn
            if conn is None or conn.closed:
                continue
            bye = {
                "type": "bye",
                "reason": "drain",
                "session": state.session_id,
                "resume": state.token,
                "seq": state.out_seq,
                "ticks": state.ticks_in,
                "answered": state.session.ticks,
                "dropped": state.dropped,
                "lost": state.lost,
            }
            if self.shard_id is not None:
                bye["shard"] = self.shard_id
                bye["shard_restarts"] = self.generation
            with contextlib.suppress(Exception):
                conn.writer.write(frame(protocol.encode_json(bye)))
                await asyncio.wait_for(
                    conn.writer.drain(),
                    timeout=max(0.05, deadline - loop.time()),
                )
            conn.close_graceful()

    def extract_states(self) -> list[SessionState]:
        """Pop every session for export after a drain (shard hand-off)."""
        states = []
        for session_id in list(self._sessions):
            state = self._sessions.pop(session_id)
            state.gone = True
            state.conn = None
            states.append(state)
        return states

    async def shutdown(self) -> None:
        """Stop accepting, stop the engine, drop every connection."""
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in (self._engine_task, self._sweeper_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._engine_task = None
        self._sweeper_task = None
        for task in list(self._adopted):
            task.cancel()
        for state in list(self._sessions.values()):
            conn = state.conn
            if conn is not None:
                if conn.flusher is not None:
                    conn.flusher.cancel()
                conn.kill()
        self._sessions.clear()

    async def __aenter__(self) -> "PrognosServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    def stats(self) -> dict:
        states = list(self._sessions.values())
        attached = [s for s in states if s.conn is not None and not s.conn.closed]
        stats = {
            "sessions": len(attached),
            "detached": len(states) - len(attached),
            "sessions_total": self.sessions_total,
            "batched": self.config.batched,
            "degraded": self._degraded,
            "draining": self._draining,
            "engine_restarts": self.engine_restarts,
            "batches": self.batches,
            "batch_ticks": self.batch_ticks,
            #: Queue depths right now: unanswered ticks and undelivered
            #: predictions, summed across live sessions.
            "inbox_depth": sum(s.pending for s in states),
            "outbox_depth": sum(len(s.conn.outbox) for s in attached),
            "dropped": self.dropped_total + sum(s.dropped for s in states),
            "lost": self.lost_total + sum(s.lost for s in states),
            "shed": self.shed,
            "resumed": self.resumed,
            "resume_misses": self.resume_misses,
            "replayed": self.replayed,
            "replay_overflow": self.overflow_total
            + sum(s.overflow for s in states),
            "evicted_idle": self.evicted_idle,
            "evicted_dead": self.evicted_dead,
            "exported": self.exported,
        }
        if self.shard_id is not None:
            stats["shard"] = self.shard_id
            stats["shard_restarts"] = self.generation
        return stats

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _intern_configs(self, spec: list) -> list:
        configs = protocol.decode_event_configs(spec)
        return self._config_intern.setdefault(tuple(configs), configs)

    def _retire(self, state: SessionState) -> None:
        """Drop a state for good; fold its counters into the totals."""
        if self._sessions.get(state.session_id) is state:
            del self._sessions[state.session_id]
        state.gone = True
        self.dropped_total += state.dropped
        self.lost_total += state.lost
        self.overflow_total += state.overflow

    async def _handle_client(self, reader, writer, first_payload=None) -> None:
        conn: _Connection | None = None
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                # Predictions are latency-sensitive single small frames;
                # never let them sit behind Nagle waiting for an ACK.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = await self._handshake(reader, writer, first_payload)
            if conn is None:
                return
            writer.transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
            if self.config.batched and conn.flusher is None:
                conn.flusher = asyncio.create_task(self._flush_loop(conn))
            await self._read_loop(conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except FrameError as exc:
            await self._send_error(writer, str(exc))
        finally:
            if conn is not None:
                state = conn.state
                if conn.flusher is not None:
                    conn.flusher.cancel()
                conn.kill()
                if state.conn is conn:
                    state.conn = None
                if (
                    state.conn is None
                    and not state.finished
                    and not state.gone
                    and self._sessions.get(state.session_id) is state
                ):
                    # Unclean loss: park the session for resumption.
                    state.detached_at = asyncio.get_running_loop().time()
                    self.detached += 1
                    self._export_parked(state)
            else:
                with contextlib.suppress(Exception):
                    writer.close()

    def _admission_delay(self, *, replacing: bool = False) -> float | None:
        """Seconds for the client to back off, or None to admit."""
        limit = self.config.max_sessions
        count = len(self._sessions) - (1 if replacing else 0)
        if limit and count >= limit:
            return round(min(2.0, 0.05 * (count - limit + 1) + 0.05), 3)
        return None

    async def _send_busy(self, writer, retry_after: float) -> None:
        self.shed += 1
        with contextlib.suppress(Exception):
            writer.write(
                frame(
                    protocol.encode_json(
                        {"type": "busy", "retry_after": retry_after}
                    )
                )
            )
            await writer.drain()
            writer.close()

    async def _refuse_resume(self, writer, session_id: str, code: str) -> None:
        self.resume_misses += 1
        with contextlib.suppress(Exception):
            writer.write(
                frame(
                    protocol.encode_json(
                        {
                            "type": "error",
                            "error": f"cannot resume session {session_id!r}",
                            "code": code,
                        }
                    )
                )
            )
            await writer.drain()
            writer.close()

    async def _handshake(
        self, reader, writer, first_payload: bytes | None = None
    ) -> _Connection | None:
        payload = (
            first_payload if first_payload is not None else await read_frame(reader)
        )
        if payload is None:
            with contextlib.suppress(Exception):
                writer.close()
            return None
        hello = protocol.decode_json(payload)
        kind = hello.get("type")
        if kind == "resume":
            return await self._resume(hello, reader, writer)
        if kind != "hello":
            raise FrameError("first frame must be a hello")
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            raise FrameError(f"unsupported protocol version {hello.get('version')!r}")
        session_id = hello.get("session")
        if not isinstance(session_id, str) or not session_id:
            raise FrameError("hello carries no session id")
        existing = self._sessions.get(session_id)
        if existing is not None and existing.conn is not None:
            raise FrameError(f"duplicate session id {session_id!r}")
        policy = hello.get("policy", "drop")
        if policy not in _POLICIES:
            raise FrameError(f"unknown backpressure policy {policy!r}")
        if self._draining:
            await self._send_busy(writer, 0.5)
            return None
        retry_after = self._admission_delay(replacing=existing is not None)
        if retry_after is not None:
            await self._send_busy(writer, retry_after)
            return None
        if existing is not None:
            # A fresh hello for a parked session: the client restarted
            # the drive; the old journal is useless to it.
            self._retire(existing)
        configs = self._intern_configs(hello.get("events"))
        abr = hello.get("abr") or {}
        levels = abr.get("levels_mbps")
        session = ServingSession(
            session_id,
            configs,
            standalone=bool(hello.get("standalone", False)),
            levels_mbps=levels,
            chunk_s=float(abr.get("chunk_s", 4.0)),
            batched=self.config.batched,
        )
        state = SessionState(
            session_id,
            session,
            token=secrets.token_hex(16),
            policy=policy,
            replay_limit=self.config.replay,
        )
        conn = _Connection(state, reader, writer, policy, self.config.outbox_limit)
        conn.last_in_at = asyncio.get_running_loop().time()
        state.conn = conn
        self._sessions[session_id] = state
        self.sessions_total += 1
        welcome = {
            "type": "welcome",
            "version": protocol.PROTOCOL_VERSION,
            "session": session_id,
            "batched": self.config.batched,
            "resume": state.token,
            "seq": 0,
        }
        if self.shard_id is not None:
            welcome["shard"] = self.shard_id
        writer.write(frame(protocol.encode_json(welcome)))
        await writer.drain()
        return conn

    async def _resume(self, hello, reader, writer) -> _Connection | None:
        if hello.get("version") != protocol.PROTOCOL_VERSION:
            raise FrameError(f"unsupported protocol version {hello.get('version')!r}")
        session_id = hello.get("session")
        token = hello.get("token")
        last_seq = hello.get("seq")
        if not isinstance(session_id, str) or not session_id:
            raise FrameError("resume carries no session id")
        if not isinstance(token, str) or not token:
            raise FrameError("resume carries no token")
        if not isinstance(last_seq, int) or last_seq < 0:
            raise FrameError("resume carries no last sequence")
        if self._draining:
            await self._send_busy(writer, 0.5)
            return None
        state = self._sessions.get(session_id)
        if state is None:
            state = await self._claim_state(session_id, token)
            if state is not None:
                self._adopt_state(state)
        if state is None or not hmac.compare_digest(state.token, str(token)):
            await self._refuse_resume(writer, session_id, "resume-miss")
            return None
        if state.conn is not None and not state.conn.closed:
            # The previous connection is a zombie the client already
            # abandoned — its reset may simply not have surfaced here
            # yet. The token proved ownership, so the newest connection
            # wins; killing the old one detaches it without parking
            # (its handler sees a foreign conn on the state and backs
            # off).
            stale = state.conn
            state.conn = None
            stale.kill()
        if last_seq > state.out_seq:
            raise FrameError(
                f"resume seq {last_seq} is ahead of the server ({state.out_seq})"
            )
        tail = state.replay_from(last_seq)
        if tail is None:
            # The journal aged past the client's cursor; a replayed
            # stream could not be bit-identical, so refuse and retire —
            # the client restarts the drive from scratch.
            self._retire(state)
            await self._refuse_resume(writer, session_id, "replay-overflow")
            return None
        conn = _Connection(
            state, reader, writer, state.policy, self.config.outbox_limit
        )
        conn.last_in_at = asyncio.get_running_loop().time()
        state.conn = conn
        state.detached_at = None
        state.resumes += 1
        self.resumed += 1
        self.replayed += len(tail)
        welcome = {
            "type": "welcome",
            "version": protocol.PROTOCOL_VERSION,
            "session": session_id,
            "batched": self.config.batched,
            "resumed": True,
            "resume": state.token,
            "seq": state.out_seq,
        }
        if self.shard_id is not None:
            welcome["shard"] = self.shard_id
        writer.write(frame(protocol.encode_json(welcome)))
        # Replay before the flusher starts, so journalled frames hit
        # the wire ahead of anything the engine delivers meanwhile.
        for payload in tail:
            writer.write(payload)
        await writer.drain()
        if self.config.batched:
            conn.flusher = asyncio.create_task(self._flush_loop(conn))
        return conn

    # ------------------------------------------------------------------
    # Export / adopt (shard controller hooks)
    # ------------------------------------------------------------------

    def _export_parked(self, state: SessionState) -> bool:
        """Ship a parked session to the controller's orphan pool."""
        cb = self.export_state_cb
        if cb is None:
            return False
        try:
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        if len(blob) > MAX_EXPORT:
            return False
        try:
            cb(state.session_id, state.token, blob)
        except Exception:
            return False
        if self._sessions.get(state.session_id) is state:
            del self._sessions[state.session_id]
        state.gone = True
        self.exported += 1
        return True

    async def _claim_state(self, session_id: str, token) -> SessionState | None:
        """Fetch this session back from the controller's orphan pool
        (resume miss path: the session was parked and exported)."""
        cb = self.claim_state_cb
        if cb is None or not isinstance(token, str):
            return None
        try:
            blob = await cb(session_id, token)
        except Exception:
            return None
        if not blob:
            return None
        try:
            state = pickle.loads(blob)
        except Exception:
            return None
        if not isinstance(state, SessionState):
            return None
        return state

    def _adopt_state(self, state: SessionState) -> None:
        """Wire an imported session into this server's engine."""
        state.gone = False
        state.conn = None
        state.detached_at = None
        self._sessions[state.session_id] = state
        if self.config.batched and not self._degraded:
            state.pending = sum(1 for item in state.inbox if item[0] == "T")
            if state.pending:
                self._collector.put(state)
        else:
            self._drain_inbox_inline(state)

    async def _send_error(self, writer, message: str) -> None:
        with contextlib.suppress(Exception):
            writer.write(
                frame(protocol.encode_json({"type": "error", "error": message}))
            )
            await writer.drain()
            writer.close()

    async def _read_loop(self, conn: _Connection) -> None:
        state = conn.state
        session = state.session
        inline = not self.config.batched
        loop = asyncio.get_running_loop()
        while not conn.closed:
            payload = await read_frame(conn.reader)
            if payload is None:
                return  # disconnect (clean EOF or reset)
            conn.last_in_at = loop.time()
            conn.pinged = False
            tag = payload[:1]
            if tag in protocol.SEQUENCED_TAGS:
                seq = protocol.frame_seq(payload)
                if seq <= state.in_seq:
                    continue  # duplicate resend after a resume
                if seq != state.in_seq + 1:
                    raise FrameError(
                        f"sequence gap: got {seq}, expected {state.in_seq + 1}"
                    )
                state.in_seq = seq
            if tag == b"T":
                tick = protocol.decode_tick(payload)
                state.ticks_in += 1
                if inline or self._degraded:
                    conn.writer.write(self._serve_tick_inline(state, tick))
                    await conn.writer.drain()
                    continue
                state.inbox.append(("T", tick))
                state.pending += 1
                if state.pending == 1:
                    # Queued once: the pass that takes it takes every
                    # tick queued by then (see _take_ticks).
                    self._collector.put(state)
                while state.pending >= INBOX_LIMIT and not conn.closed:
                    conn.drain.clear()
                    if state.pending >= INBOX_LIMIT:
                        await conn.drain.wait()
            elif tag == b"R":
                label, time_s = protocol.decode_report(payload)
                if inline or self._degraded:
                    session.observe_report(label, time_s)
                else:
                    state.inbox.append(("R", label, time_s))
            elif tag == b"C":
                ho_type, time_s = protocol.decode_command(payload)
                if inline or self._degraded:
                    session.observe_command(ho_type, time_s)
                else:
                    state.inbox.append(("C", ho_type, time_s))
            elif tag == b"S":
                if inline or self._degraded:
                    session.start_log()
                else:
                    state.inbox.append(("S",))
            elif tag == b"H":
                continue  # heartbeat echo; last_in_at already refreshed
            elif tag == b"B":
                while state.pending > 0 and not conn.closed:
                    conn.drain.clear()
                    if state.pending > 0:
                        await conn.drain.wait()
                # Let the flusher empty the outbox before the goodbye.
                while conn.outbox and not conn.closed:
                    await asyncio.sleep(0)
                bye = {
                    "type": "bye",
                    "session": state.session_id,
                    "ticks": state.ticks_in,
                    "answered": session.ticks,
                    "dropped": state.dropped,
                    "lost": state.lost,
                    "resumes": state.resumes,
                    "seq": state.out_seq,
                }
                if self.shard_id is not None:
                    bye["shard"] = self.shard_id
                    bye["shard_restarts"] = self.generation
                conn.writer.write(frame(protocol.encode_json(bye)))
                await conn.writer.drain()
                state.finished = True
                self._retire(state)
                return
            elif tag == b"{":
                raise FrameError("unexpected control frame mid-stream")
            else:
                raise FrameError(f"unknown frame tag {tag!r}")

    def _serve_tick_inline(self, state: SessionState, tick) -> bytes:
        """The scalar per-session pipeline (baseline + degraded mode)."""
        (
            time_s,
            rsrp,
            serving,
            neighbours,
            scoped,
            wants_abr,
            observed_mbps,
            buffer_s,
            last_level,
        ) = tick
        session = state.session
        prediction = session.step_sequential(time_s, rsrp, serving, neighbours, scoped)
        level = -1
        if wants_abr:
            entry = session.abr_entry(observed_mbps, buffer_s, last_level)
            if entry is not None:
                (level,) = mpc_select_many([entry])
        payload = frame(
            protocol.encode_prediction(
                time_s,
                prediction.ho_type,
                prediction.ho_score,
                prediction.similarity,
                prediction.lead_time_s,
                level,
                state.dropped,
                state.out_seq + 1,
            )
        )
        state.record(payload)
        return payload

    def _drain_inbox_inline(self, state: SessionState) -> None:
        """Serve a session's queued inbox with the scalar pipeline."""
        while state.inbox:
            item = state.inbox.popleft()
            if item[0] != "T":
                _apply_frame(state.session, item)
            elif state.conn is not None:
                state.conn.deliver(self._serve_tick_inline(state, item[1]))
            else:
                self._serve_tick_inline(state, item[1])
        state.pending = 0
        if state.conn is not None:
            state.conn.drain.set()

    # ------------------------------------------------------------------
    # Liveness sweeper
    # ------------------------------------------------------------------

    async def _sweep_loop(self) -> None:
        """Ping idle peers, evict dead ones, expire parked sessions."""
        hb = self.heartbeat_s
        loop = asyncio.get_running_loop()
        while self._running:
            await asyncio.sleep(min(hb / 2, 1.0))
            now = loop.time()
            for state in list(self._sessions.values()):
                conn = state.conn
                if conn is not None and not conn.closed:
                    idle = now - conn.last_in_at
                    if idle >= 2 * hb:
                        self.evicted_dead += 1
                        await self._evict(conn, state, "dead_peer")
                    elif idle >= hb and not conn.pinged:
                        conn.pinged = True
                        if conn.flusher is not None:
                            conn.deliver(_HEARTBEAT)
                        else:
                            with contextlib.suppress(Exception):
                                conn.writer.write(_HEARTBEAT)
                elif state.detached_at is not None:
                    if now - state.detached_at >= 4 * hb:
                        self.evicted_idle += 1
                        self._retire(state)

    async def _evict(self, conn: _Connection, state: SessionState, reason: str) -> None:
        """Close a connection server-side, naming the reason in a bye.

        The session stays parked (the peer may only be stalled, and a
        resume must still work); only the idle-eviction sweep above
        retires parked state for good.
        """
        bye = {
            "type": "bye",
            "reason": reason,
            "session": state.session_id,
            "resume": state.token,
            "seq": state.out_seq,
        }
        if self.shard_id is not None:
            bye["shard"] = self.shard_id
        with contextlib.suppress(Exception):
            conn.writer.write(frame(protocol.encode_json(bye)))
        conn.close_graceful()

    # ------------------------------------------------------------------
    # Outbound flusher
    # ------------------------------------------------------------------

    async def _flush_loop(self, conn: _Connection) -> None:
        transport = conn.writer.transport
        try:
            while not conn.closed:
                await conn.out_event.wait()
                conn.out_event.clear()
                while conn.outbox and not conn.closed:
                    conn.writer.write(conn.outbox.popleft())
                    if transport.get_write_buffer_size() > WRITE_HIGH_WATER:
                        # The consumer is behind; wait here, not in the
                        # engine. The outbox keeps absorbing (and, under
                        # the drop policy, evicting) meanwhile.
                        await conn.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------

    async def _engine_supervisor(self) -> None:
        """Restart a crashed engine; degrade after the crash budget."""
        while self._running:
            try:
                await self._engine_loop()
                return
            except asyncio.CancelledError:
                raise
            except Exception:
                self.engine_restarts += 1
                self._resync_after_crash()
                if self.engine_restarts > self.config.engine_restarts:
                    self._degrade()
                    return

    def _resync_after_crash(self) -> None:
        """Recount every session's in-flight ticks after an engine loss.

        Ticks the dead engine consumed but never answered (every tick
        its pass had taken) are gone — counted in ``lost``, surfaced in
        the bye frame. A session with ticks still in its inbox is queued
        for the new engine.
        """
        for state in self._sessions.values():
            remaining = sum(1 for item in state.inbox if item[0] == "T")
            missing = state.pending - remaining
            if missing > 0:
                state.lost += missing
            state.pending = remaining
            if remaining:
                self._collector.put(state)
            if state.conn is not None:
                state.conn.drain.set()

    def _degrade(self) -> None:
        """Last rung: serve inline-sequential instead of going dark.

        Each session takes a forced log boundary (its radio history
        lived in the batched forecaster, which is no longer trusted) and
        every queued inbox item is served inline before readers take
        over.
        """
        self._degraded = True
        for state in self._sessions.values():
            state.session.start_log()
            self._drain_inbox_inline(state)

    def _deliver_prediction(self, state, time_s, prediction, level) -> None:
        payload = frame(
            protocol.encode_prediction(
                time_s,
                prediction.ho_type,
                prediction.ho_score,
                prediction.similarity,
                prediction.lead_time_s,
                level,
                state.dropped,
                state.out_seq + 1,
            )
        )
        state.record(payload)
        conn = state.conn
        if conn is not None:
            conn.deliver(payload)
        state.pending -= 1
        if conn is not None:
            conn.drain.set()

    def _take_ticks(self, state: SessionState, jobs: list, taken: list) -> None:
        """Begin every queued tick of ``state`` for this pass, in order.

        Appends one :func:`forecast_batch` job per tick to ``jobs`` and
        ``(state, tick, after)`` to ``taken``. Frames ahead of the first
        tick apply at once. An ``R``/``C`` behind a taken tick goes in
        its ``after`` list, applied once that tick's learner tail has
        run. An ``S`` behind a taken tick ends the session's share of
        the pass: it resets the phase reports the taken ticks' tails
        still read, so it stays at the head of the inbox and the session
        is queued for the next pass. A pass never awaits between taking
        a tick and delivering it, so ``pending`` counts exactly the
        ticks in the inbox here, and frames behind the last of them stay
        queued.
        """
        session = state.session
        inbox = state.inbox
        left = state.pending
        after = None
        while left:
            kind = inbox[0][0]
            if kind == "T":
                tick = inbox.popleft()[1]
                plan = session.begin_tick(tick[0], tick[1], tick[2], tick[3], tick[4])
                jobs.append((session.forecaster, plan))
                after = []
                taken.append((state, tick, after))
                left -= 1
            elif after is None:
                _apply_frame(session, inbox.popleft())
            elif kind == "S":
                self._collector.put(state)
                return
            else:
                after.append(inbox.popleft())

    async def _engine_loop(self) -> None:
        collector = self._collector
        while self._running:
            batch = await collector.collect()
            if self._inject_engine_fault is not None:
                fault, self._inject_engine_fault = self._inject_engine_fault, None
                raise fault
            jobs: list = []
            taken: list = []
            seen: set[int] = set()
            for state in batch:
                # A detached (parked) session still gets served — its
                # predictions land in the journal for the resume replay.
                # A session queued twice (crash resync) is taken once.
                if state.gone or state.finished or id(state) in seen:
                    continue
                seen.add(id(state))
                self._take_ticks(state, jobs, taken)
            if not jobs:
                continue
            self.batches += 1
            self.batch_ticks += len(jobs)
            forecasts = forecast_batch(jobs)
            predictions: list = []
            abr_rows: list = []
            abr_idx: list[int] = []
            for k, (state, tick, after) in enumerate(taken):
                session = state.session
                predictions.append(session.finish_tick(tick[0], tick[2], forecasts[k]))
                if tick[5]:
                    entry = session.abr_entry(tick[6], tick[7], tick[8])
                    if entry is not None:
                        abr_rows.append(entry)
                        abr_idx.append(k)
                for item in after:
                    _apply_frame(session, item)
            levels = [-1] * len(taken)
            if abr_rows:
                for k, level in zip(abr_idx, mpc_select_many(abr_rows)):
                    levels[k] = level
            for (state, tick, _after), prediction, level in zip(taken, predictions, levels):
                self._deliver_prediction(state, tick[0], prediction, level)


def _apply_frame(session: ServingSession, item: tuple) -> None:
    """Apply a queued ``R`` (report), ``C`` (command) or ``S`` (log start)."""
    kind = item[0]
    if kind == "R":
        session.observe_report(item[1], item[2])
    elif kind == "C":
        session.observe_command(item[1], item[2])
    else:
        session.start_log()
