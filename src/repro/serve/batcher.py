"""Adaptive micro-batch collection for the serving engine loop.

The naive shape — an ``asyncio.Queue`` the readers put ticks into and
the engine ``get``s from — costs more than it saves: every put/get is a
future allocation plus a scheduler hop, and at one tick per frame the
collector overhead exceeded the sequential baseline in measurement. The
collector here is a plain list the readers append to, with a single
:class:`asyncio.Event` wake: the engine wakes once per burst and swaps
the whole list out at once, up to :data:`MAX_BATCH` sessions. A reader
puts its session once, when its first unanswered tick arrives, and the
engine pass that takes the session takes every tick it has queued.
Batching is adaptive only: ticks accumulate naturally while the engine
is busy with the previous pass, and waiting beyond that for stragglers trades
engine utilisation for batch size, a strict loss when the engine
shares cores with the readers. Backpressure is per-session and lives in
the server (bounded inboxes/outboxes); the collector itself never
blocks a reader.
"""

from __future__ import annotations

import asyncio

#: Most sessions coalesced into one engine pass.
MAX_BATCH = 64


class BatchCollector:
    """List-append collector with one event wake per burst."""

    def __init__(self) -> None:
        self._ready: list = []
        self._event = asyncio.Event()

    def put(self, item) -> None:
        """Mark a session ready (reader side; never blocks)."""
        self._ready.append(item)
        if not self._event.is_set():
            self._event.set()

    def __len__(self) -> int:
        return len(self._ready)

    async def collect(self) -> list:
        """Wait for work, then take up to :data:`MAX_BATCH` ready items.

        Anything beyond stays queued for the next pass (and keeps the
        event set so the engine re-runs immediately).
        """
        while not self._ready:
            self._event.clear()
            await self._event.wait()
        ready = self._ready
        if len(ready) <= MAX_BATCH:
            self._ready = []
            return ready
        self._ready = ready[MAX_BATCH:]
        return ready[:MAX_BATCH]
