"""Every ``REPRO_*`` environment knob the package reads, in one table.

Each :class:`Setting` names its variable, type, default and lower
bound. :func:`get` reads the environment on every call, so code that
re-points ``REPRO_CACHE_DIR`` between runs (and tests that monkeypatch
the environment) sees the change at once. It never raises: an unset or
empty variable gives the default, and a malformed, non-finite or
out-of-range value gives the default plus one :class:`RuntimeWarning`
per (variable, value) per process. A daemon that re-reads its knobs per
session therefore does not spam its log, while changing a broken value
to a differently broken one still warns.

This is the only module that reads ``os.environ``. Knobs whose only
users are tests are parameters instead (``ServerConfig.replay``,
``CorpusStore(shard_mb=)``, ``supervised_map(retries=)``, ...).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class Setting:
    name: str
    #: ``bool`` (``0``/``1``), ``int``, ``float`` or ``str``.
    type: type
    #: The value, or a zero-argument callable computing it.
    default: object
    #: Smallest accepted value of a numeric knob.
    minimum: float | None = None


SETTINGS: dict[str, Setting] = {
    s.name: s
    for s in (
        # Root of the on-disk caches: drive logs, datasets, models.
        Setting("REPRO_CACHE_DIR", str, ".repro-cache"),
        # 1 disables every cache layer and the corpus store.
        Setting("REPRO_NO_CACHE", bool, False),
        # Corpus store root; when set, a default DriveCache attaches it.
        Setting("REPRO_CORPUS_DIR", str, ""),
        # Default worker processes of the pool passes (1 = serial).
        Setting("REPRO_BENCH_WORKERS", int, 1, minimum=1),
        # 1 forces the spawn/pickle fallback of the worker pools.
        Setting("REPRO_FORCE_SPAWN", bool, False),
        # Per-job deadline of the supervised pools, seconds (0 = off).
        Setting("REPRO_JOB_TIMEOUT_S", float, 0.0, minimum=0.0),
        # Fault-injection spec, parsed by repro.robust.faults.
        Setting("REPRO_FAULTS", str, ""),
        # Engine shard processes behind the serving controller; one core
        # stays with the controller and the OS.
        Setting(
            "REPRO_SERVE_SHARDS",
            int,
            lambda: max(1, (os.cpu_count() or 2) - 1),
            minimum=1,
        ),
        # Serving heartbeat interval, seconds (0 = no liveness sweeper).
        Setting("REPRO_SERVE_HEARTBEAT_S", float, 30.0, minimum=0.0),
    )
}

#: (name, raw value) pairs already warned about in this process.
_warned: set[tuple[str, str]] = set()


def get(name: str):
    """The value of knob ``name``: parsed, validated, or its default."""
    setting = SETTINGS[name]
    default = setting.default() if callable(setting.default) else setting.default
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    value, problem = _parse(setting, raw)
    if problem is None:
        return value
    if (name, raw) not in _warned:
        _warned.add((name, raw))
        warnings.warn(
            f"{name}={raw!r} {problem}; falling back to the default {default!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    return default


def _parse(setting: Setting, raw: str) -> tuple[object, str | None]:
    """``(value, None)``, or ``(None, why raw is rejected)``."""
    if setting.type is str:
        return raw, None
    if setting.type is bool:
        if raw in ("0", "1"):
            return raw == "1", None
        return None, "is not 0 or 1"
    try:
        value = setting.type(raw)
    except ValueError:
        return None, "is not an integer" if setting.type is int else "is not a number"
    if not math.isfinite(value):
        return None, "is not finite"
    if setting.minimum is not None and value < setting.minimum:
        return None, f"is below the minimum {setting.minimum}"
    return value, None
