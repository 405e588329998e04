"""ColumnarLog: lossless packing, the on-disk layout, views, and digests."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.simulate.columnar import ARRAY_KEYS, ColumnarLog
from repro.simulate.corpus import CorpusStore
from repro.simulate.serialization import FORMAT_VERSION
from repro.simulate.serialization import log_to_dict
from tests.conftest import make_optional_field_log


def _assert_identical(rebuilt, original):
    assert rebuilt.carrier == original.carrier
    assert rebuilt.bearer == original.bearer
    assert rebuilt.scenario == original.scenario
    assert rebuilt.ticks == original.ticks
    assert rebuilt.reports == original.reports
    assert rebuilt.handovers == original.handovers
    # Byte-for-byte on the artifact format too, and JSON-compatible
    # (native Python scalars, not numpy types).
    payload = log_to_dict(rebuilt)
    assert payload == log_to_dict(original)
    json.dumps(payload)


class TestRoundTrip:
    def test_simulated_log_bit_identical(self, freeway_low_log):
        rebuilt = ColumnarLog.from_drive_log(freeway_low_log).to_drive_log()
        _assert_identical(rebuilt, freeway_low_log)

    @pytest.mark.parametrize("bearer", [None, *BearerMode])
    @pytest.mark.parametrize("band", [None, *BandClass])
    def test_optional_fields_none_vs_present(self, bearer, band):
        log = make_optional_field_log(bearer=bearer, band=band)
        rebuilt = ColumnarLog.from_drive_log(log).to_drive_log()
        _assert_identical(rebuilt, log)
        # The specific optional enums survive exactly.
        assert rebuilt.ticks[0].nr_band_class is band
        assert rebuilt.ticks[1].nr_band_class is None
        assert rebuilt.handovers[0].band_class is band
        assert rebuilt.handovers[1].band_class is None
        assert rebuilt.bearer is bearer

    def test_negative_identifier_rejected(self):
        log = make_optional_field_log()
        bad = log.ticks[0].__class__(
            **{
                **{
                    name: getattr(log.ticks[0], name)
                    for name in log.ticks[0].__dataclass_fields__
                },
                "lte_serving_gci": -5,
            }
        )
        log.ticks[0] = bad  # type: ignore[index]
        log.ticks = [bad, log.ticks[1]]
        with pytest.raises(ValueError, match="sentinel"):
            ColumnarLog.from_drive_log(log)


class TestBacking:
    def test_memoized_series_are_views(self, freeway_low_log):
        clog = ColumnarLog.from_drive_log(freeway_low_log)
        rebuilt = clog.to_drive_log()
        times, caps = rebuilt.capacity_series()
        assert np.shares_memory(times, clog.arrays["tick_time_s"])
        assert np.shares_memory(caps, clog.arrays["tick_total_capacity_mbps"])
        assert not times.flags.writeable and not caps.flags.writeable
        lte, nr = rebuilt.serving_pci_series()
        assert np.shares_memory(lte, clog.arrays["tick_lte_pci"])
        assert np.shares_memory(nr, clog.arrays["tick_nr_pci"])
        # And the views match what a fresh (unbacked) log computes.
        fresh_lte, fresh_nr = freeway_low_log.serving_pci_series()
        np.testing.assert_array_equal(lte, fresh_lte)
        np.testing.assert_array_equal(nr, fresh_nr)
        np.testing.assert_array_equal(times, freeway_low_log.capacity_series()[0])

    def test_columnar_accessor_memoizes(self, freeway_low_log):
        clog = freeway_low_log.columnar()
        assert freeway_low_log.columnar() is clog
        rebuilt = clog.to_drive_log()
        # Cache hits carry their backing store: no repack.
        assert rebuilt.columnar() is clog


class TestDigest:
    def test_digest_stable_across_codec(self, freeway_low_log, tmp_path):
        """The store is the one on-disk codec: a simulated drive's digest
        survives the append and a fresh handle's memory-mapped slice, and
        is the digest its index entry records for checked hits."""
        clog = freeway_low_log.columnar()
        CorpusStore(tmp_path, enabled=True).append("drive", clog)
        store = CorpusStore(tmp_path, enabled=True)
        mapped = store.open_slice("drive")
        assert mapped.content_digest() == clog.content_digest()
        assert store.verify("drive", mapped)
        index = json.loads((tmp_path / "shard-000000.json").read_text())
        assert index["drives"]["drive"]["digest"] == clog.content_digest()

    def test_digest_hashes_array_bytes(self):
        """The digest reads each array through the buffer protocol, and
        equals the formula that hashed ``.tobytes()`` copies, for every
        dtype the log holds (``U`` name tables, empty arrays)."""
        log = make_optional_field_log(bearer=BearerMode.FIVE_G_ONLY)
        log.reports, log.handovers = [], []  # empty report/handover arrays
        clog = ColumnarLog.from_drive_log(log)
        kinds = {a.dtype.kind for a in clog.arrays.values()}
        assert "U" in kinds
        assert any(a.size == 0 for a in clog.arrays.values())
        digest = hashlib.sha256()
        digest.update(b"columnar-log\0")
        digest.update(str(FORMAT_VERSION).encode())
        for text in (clog.carrier, clog.bearer.name, clog.scenario):
            digest.update(b"\0")
            digest.update(text.encode())
        for key in ARRAY_KEYS:
            array = clog.arrays[key]
            digest.update(key.encode())
            digest.update(str(array.dtype).encode())
            digest.update(str(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        assert clog.content_digest() == digest.hexdigest()

    def test_digest_tracks_content(self):
        a = make_optional_field_log(band=BandClass.LOW)
        b = make_optional_field_log(band=BandClass.MID)
        same = make_optional_field_log(band=BandClass.LOW)
        assert a.columnar().content_digest() != b.columnar().content_digest()
        assert a.columnar().content_digest() == same.columnar().content_digest()

    def test_dataset_cache_digest_uses_packed_arrays(self, freeway_low_log):
        from repro.ml.dataset_cache import log_content_digest

        token = log_content_digest(freeway_low_log)
        assert token == freeway_low_log.columnar().content_digest()
        # Memoized on the instance.
        assert log_content_digest(freeway_low_log) == token


class TestFormat:
    def test_archive_holds_exactly_the_canonical_arrays(self, tmp_path):
        """A stored drive is its canonical arrays, packed back to back at
        aligned offsets, plus the scalar metadata in its index entry."""
        log = make_optional_field_log(bearer=BearerMode.FIVE_G_ONLY)
        clog = log.columnar()
        CorpusStore(tmp_path, enabled=True).append("drive", clog)
        meta = json.loads((tmp_path / "shard-000000.json").read_text())
        entry = meta["drives"]["drive"]
        assert set(entry) == {
            "carrier",
            "bearer",
            "scenario",
            "digest",
            "offset",
            "nbytes",
            "arrays",
        }
        assert set(entry["arrays"]) == set(ARRAY_KEYS)
        assert (entry["carrier"], entry["bearer"], entry["scenario"]) == (
            clog.carrier,
            "FIVE_G_ONLY",
            clog.scenario,
        )
        blob = (tmp_path / "shard-000000.bin").read_bytes()
        assert entry["offset"] == 0
        assert len(blob) == entry["nbytes"] == meta["committed_bytes"]
        end = 0
        for key in ARRAY_KEYS:
            array = clog.arrays[key]
            spec = entry["arrays"][key]
            assert spec["offset"] >= end
            assert (spec["dtype"], spec["shape"]) == (array.dtype.str, list(array.shape))
            end = spec["offset"] + array.nbytes
            assert blob[spec["offset"] : end] == np.ascontiguousarray(array).tobytes()
        assert end <= entry["nbytes"]
