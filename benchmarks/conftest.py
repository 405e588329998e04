"""Shared simulation corpus for the reproduction benches.

Every bench regenerates one of the paper's tables/figures from simulated
drive logs. Builders declare *scenarios*; :class:`Corpus` turns them
into logs through :func:`repro.simulate.runner.run_drives`, which
consults the on-disk :class:`~repro.simulate.cache.DriveCache` first
(so a warm cache skips simulation entirely) and fans cache misses out
over ``REPRO_BENCH_WORKERS`` processes. Within a session the logs are
additionally memoised in memory.

Scale: simulating the full 6,200 km corpus is possible but slow; the
benches default to reduced mileage/durations that keep the whole suite
in the tens of minutes while leaving every distribution well-populated.
Set ``REPRO_BENCH_SCALE=full`` for larger runs. ``REPRO_NO_CACHE=1``
disables the disk cache; ``REPRO_CACHE_DIR`` relocates it.
"""

from __future__ import annotations

import os

import pytest

from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.ran import OPX, OPY, OPZ
from repro.simulate.cache import DriveCache
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import (
    Scenario,
    city_drive_scenario,
    city_walk_scenario,
    coverage_scenario,
    energy_loop_scenario,
    freeway_scenario,
)

FULL = os.environ.get("REPRO_BENCH_SCALE", "") == "full"


def _x(reduced, full):
    return full if FULL else reduced


class Corpus:
    """Lazily-built, memoised simulation corpus.

    Builders produce :class:`Scenario` objects; ``_get`` resolves them
    into drive logs via the cached, parallel runner.
    """

    def __init__(self):
        self._cache = {}
        self.drive_cache = DriveCache()

    def _get(self, key, builder):
        if key not in self._cache:
            built = builder()
            if isinstance(built, Scenario):
                logs = run_drives([built], cache=self.drive_cache)
                self._cache[key] = logs[0]
            else:
                self._cache[key] = run_drives(built, cache=self.drive_cache)
        return self._cache[key]

    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/store counters of the on-disk drive cache."""
        return self.drive_cache.stats

    # --- freeway characterization drives (§5.1, Figs. 8-9) ---

    def freeway_low(self):
        return self._get(
            "freeway_low",
            lambda: freeway_scenario(OPX, BandClass.LOW, length_km=_x(20, 60), seed=211),
        )

    def freeway_mmwave(self):
        return self._get(
            "freeway_mmwave",
            lambda: freeway_scenario(
                OPX, BandClass.MMWAVE, length_km=_x(6, 15), seed=212
            ),
        )

    def freeway_mid(self):
        return self._get(
            "freeway_mid",
            lambda: freeway_scenario(OPY, BandClass.MID, length_km=_x(12, 30), seed=213),
        )

    # Multi-seed pools for rate estimates (§5.1): handover spacing has
    # large per-drive variance (spatially correlated shadowing clusters
    # the events), so frequency comparisons pool several seeds instead
    # of leaning on one drive.  Seeds overlap the single-drive builders
    # above so the on-disk cache shares the common entries.

    def freeway_low_pool(self):
        return self._get(
            "freeway_low_pool",
            lambda: [
                freeway_scenario(OPX, BandClass.LOW, length_km=_x(20, 60), seed=s)
                for s in (211, 311, 411)
            ],
        )

    def freeway_mmwave_pool(self):
        return self._get(
            "freeway_mmwave_pool",
            lambda: [
                freeway_scenario(OPX, BandClass.MMWAVE, length_km=_x(6, 15), seed=s)
                for s in (212, 312)
            ],
        )

    def mmwave_drive_pool(self):
        """Freeway + downtown mmWave drives pooled for SCGC statistics.

        SCG Changes are rare (~0.3/km of mmWave driving and absent from
        walks), so Fig. 12's phase stats need tens of km of drives to
        populate.
        """
        return self._get(
            "mmwave_drive_pool",
            lambda: [
                freeway_scenario(OPX, BandClass.MMWAVE, length_km=_x(6, 15), seed=s)
                for s in (212, 312, 412)
            ]
            + [
                city_drive_scenario(OPX, BandClass.MMWAVE, distance_km=_x(12, 20), seed=s)
                for s in (252, 352, 452, 552)
            ],
        )

    def freeway_mid_pool(self):
        return self._get(
            "freeway_mid_pool",
            lambda: [
                freeway_scenario(OPY, BandClass.MID, length_km=_x(12, 30), seed=s)
                for s in (213, 214, 313)
            ],
        )

    def freeway_mid_2(self):
        return self._get(
            "freeway_mid_2",
            lambda: freeway_scenario(OPY, BandClass.MID, length_km=_x(12, 30), seed=214),
        )

    def freeway_opy_low(self):
        return self._get(
            "freeway_opy_low",
            lambda: freeway_scenario(OPY, BandClass.LOW, length_km=_x(15, 40), seed=215),
        )

    def freeway_sa(self):
        return self._get(
            "freeway_sa",
            lambda: freeway_scenario(
                OPY, BandClass.LOW, standalone=True, length_km=_x(15, 40), seed=216
            ),
        )

    def freeway_lte_only(self):
        return self._get(
            "freeway_lte_only",
            lambda: freeway_scenario(OPX, None, length_km=_x(15, 40), seed=217),
        )

    # --- bearer-mode drives (Fig. 7) ---

    def bearer_dual(self):
        return self._get(
            "bearer_dual",
            lambda: freeway_scenario(
                OPX, BandClass.LOW, length_km=_x(10, 25), seed=221,
                bearer=BearerMode.DUAL,
            ),
        )

    def bearer_5g_only(self):
        return self._get(
            "bearer_5g_only",
            lambda: freeway_scenario(
                OPX, BandClass.LOW, length_km=_x(10, 25), seed=221,
                bearer=BearerMode.FIVE_G_ONLY,
            ),
        )

    # --- energy loops (§5.3, Fig. 10) ---

    def energy_lte(self):
        return self._get(
            "energy_lte",
            lambda: energy_loop_scenario(OPX, None, length_km=_x(15, 40), seed=231),
        )

    def energy_low(self):
        return self._get(
            "energy_low",
            lambda: energy_loop_scenario(
                OPX, BandClass.LOW, length_km=_x(15, 40), seed=232
            ),
        )

    def energy_mmwave(self):
        return self._get(
            "energy_mmwave",
            lambda: energy_loop_scenario(
                OPX, BandClass.MMWAVE, length_km=_x(8, 20), seed=233
            ),
        )

    # --- coverage drives (§6.1, Fig. 11) ---

    def coverage_low_nsa(self):
        return self._get(
            "coverage_low_nsa",
            lambda: coverage_scenario(
                OPX, BandClass.LOW, length_km=_x(40, 120), seed=241
            ),
        )

    def coverage_low_sa(self):
        return self._get(
            "coverage_low_sa",
            lambda: coverage_scenario(
                OPY, BandClass.LOW, standalone=True, length_km=_x(40, 120), seed=241
            ),
        )

    def coverage_mid_nsa(self):
        return self._get(
            "coverage_mid_nsa",
            lambda: coverage_scenario(
                OPY, BandClass.MID, length_km=_x(25, 60), seed=242
            ),
        )

    # --- city workloads (Figs. 4-6, 12, 16; §7.4) ---

    def city_drive_low(self):
        return self._get(
            "city_drive_low",
            lambda: city_drive_scenario(
                OPX, BandClass.LOW, distance_km=_x(6, 14), seed=251
            ),
        )

    def city_drive_mmwave(self):
        return self._get(
            "city_drive_mmwave",
            lambda: city_drive_scenario(
                OPX, BandClass.MMWAVE, distance_km=_x(6, 14), seed=252
            ),
        )

    def mmwave_walk(self):
        """The §6.2 iPerf walk: 35+ minutes of mmWave downtown."""
        return self._get(
            "mmwave_walk",
            lambda: city_walk_scenario(
                OPX, (BandClass.MMWAVE,), duration_min=_x(25, 35), seed=253
            ),
        )

    def low_band_walk(self):
        return self._get(
            "low_band_walk",
            lambda: city_walk_scenario(
                OPX, (BandClass.LOW,), duration_min=_x(15, 25), seed=254
            ),
        )

    # --- Prognos datasets (§7.3) ---

    def d1(self):
        return self._get(
            "d1",
            lambda: [
                city_walk_scenario(
                    OPX, (BandClass.MMWAVE,), duration_min=_x(18, 35), seed=261 + i
                )
                for i in range(_x(2, 7))
            ],
        )

    def d2(self):
        return self._get(
            "d2",
            lambda: [
                city_walk_scenario(
                    OPX,
                    (BandClass.MMWAVE, BandClass.LOW),
                    duration_min=_x(14, 25),
                    seed=281 + i,
                )
                for i in range(_x(3, 10))
            ],
        )


@pytest.fixture(scope="session")
def corpus():
    corpus = Corpus()
    yield corpus
    stats = corpus.cache_stats
    if stats["hits"] or stats["misses"]:
        print(
            f"\n[drive-cache] hits={stats['hits']} misses={stats['misses']} "
            f"stores={stats['stores']} store={corpus.drive_cache.store.root}"
        )


def print_header(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(8, 70 - len(title)))
