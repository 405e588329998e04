"""Normalising analysis inputs to packed columnar slices.

The columnar analyses accept any of: a list of
:class:`~repro.simulate.records.DriveLog` objects (fresh simulator
output — each contributes its memoized packing), a list of
:class:`~repro.simulate.columnar.ColumnarLog` /
:class:`~repro.simulate.corpus.DriveRef` handles, or a whole
memmap-backed :class:`~repro.simulate.corpus.CorpusView`. The last two
never materialise a tick object: a store-backed slice is scanned
straight off the shard files.
"""

from __future__ import annotations

from typing import Sequence

from repro.simulate.columnar import ColumnarLog, as_columnar
from repro.simulate.corpus import CorpusView, DriveRef
from repro.simulate.records import DriveLog

#: The union every columnar analysis entry point accepts.
Logs = "Sequence[DriveLog | ColumnarLog | DriveRef] | CorpusView"


def columnar_logs(logs) -> list[ColumnarLog]:
    """Resolve any supported input shape to packed columnar slices."""
    if isinstance(logs, CorpusView):
        return list(logs.iter_columnar())
    return [as_columnar(log) for log in logs]
