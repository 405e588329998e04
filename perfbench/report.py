"""A workload's result: checks, metrics, and the human-readable report."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: name -> (value, unit)
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    header: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, problems: list[str], failed: int = 1) -> None:
        """An attempted check's outcome: any problem fails ``failed`` operations."""
        if problems:
            self.failed += max(1, failed)
            self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.check([problem])

    def trace_report(
        self,
        *,
        layers: dict,
        units: int,
        unit: str,
        unit_s: float,
        overhead: str,
        resolution_s: float,
        metric: str,
    ) -> None:
        """Per-layer table, tracing overhead, and the layers below resolution.

        ``layers`` is :meth:`tracer.Tracer.summary` over ``units`` traced
        passes or rounds; ``unit_s`` is one unit's time, which the shares
        divide by. ``resolution_s`` is the smallest change in one unit's
        time that ``metric``'s bound lets the benchmark resolve: a layer
        whose whole self time is smaller cannot move the metric past it.
        """
        self.lines.append(f"per-layer time per {unit} (mean of {units} traced):")
        self.lines.append(
            f"  {'layer':22s}{'spans':>9s}{'busy s':>10s}{'self s':>10s}{'share':>8s}"
        )
        for name in sorted(layers, key=lambda k: -layers[k]["self_s"]):
            row = layers[name]
            self_s = row["self_s"] / units
            self.lines.append(
                f"  {name:22s}{row['count'] / units:9.0f}{row['busy_s'] / units:10.4f}"
                f"{self_s:10.4f}{100 * self_s / unit_s:7.1f}%"
            )
        self.lines.append(overhead)
        for name, row in sorted(layers.items()):
            self_s = row["self_s"] / units
            if name != "other" and self_s < resolution_s:
                self.lines.append(
                    f"note: {name} self time {self_s:.4f} s per {unit} is below what "
                    f"{metric}'s bound resolves ({resolution_s:.4f} s); optimising "
                    f"it alone cannot move {metric}"
                )
