"""The drive-test simulator: the paper's measurement platform, in silico.

``DriveSimulator`` walks a UE along a trajectory through a deployment,
runs the full measurement/handover machinery each tick (20 Hz, like the
paper's logging), and emits a :class:`DriveLog` — the cross-layer log the
paper's XCAL + 5G Tracker pipeline produced: RRS samples, measurement
reports, handover commands with T1/T2 stamps, per-leg capacity, and
per-handover signaling/energy attribution.

:mod:`repro.simulate.scenarios` packages the named workloads behind each
table/figure; :mod:`repro.simulate.dataset` assembles the paper's
datasets (the cross-country Table 1 set and the D1/D2 walking sets).
"""

from repro.simulate.records import (
    TickRecord,
    ReportRecord,
    HandoverRecord,
    DriveLog,
)
from repro.simulate.simulator import DriveSimulator, SimulationConfig
from repro.simulate.scenarios import (
    Scenario,
    freeway_scenario,
    city_walk_scenario,
    energy_loop_scenario,
    coverage_scenario,
)
from repro.simulate.dataset import (
    build_d1_dataset,
    build_d2_dataset,
    build_table1_dataset,
    DatasetSummary,
)
from repro.simulate.cache import DriveCache
from repro.simulate.columnar import ColumnarLog
from repro.simulate.runner import run_drives

__all__ = [
    "ColumnarLog",
    "DatasetSummary",
    "DriveCache",
    "DriveLog",
    "DriveSimulator",
    "HandoverRecord",
    "ReportRecord",
    "Scenario",
    "SimulationConfig",
    "TickRecord",
    "build_d1_dataset",
    "build_d2_dataset",
    "build_table1_dataset",
    "city_walk_scenario",
    "coverage_scenario",
    "energy_loop_scenario",
    "freeway_scenario",
    "run_drives",
]
