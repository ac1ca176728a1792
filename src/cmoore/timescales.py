"""Indexed timescales: the scale system that clusters and fluents share."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputDomainError


@dataclass(frozen=True)
class ScaleSystem:
    """Indexed timescales between global bounds, with per-scale branching.

    ``branching(i)`` is how many scale-(i-1) units one scale-i unit contains.
    The modern preset is decimal across the board; the naive preset runs from
    perceptible instants up to aeons with uneven, culturally motivated
    factors (the ones above the day are defaults, not doctrine).
    """

    min_scale: int = -18
    max_scale: int = 18
    default_factor: int = 10
    factors: tuple[tuple[int, int], ...] = ()
    labels: tuple[tuple[int, str], ...] = ()
    name: str = "modern"

    def __post_init__(self):
        if self.min_scale >= self.max_scale:
            raise ValueError("min_scale must be below max_scale")
        for scale, factor in self.factors:
            if not self.min_scale < scale <= self.max_scale:
                raise ValueError(f"branching factor at scale {scale} is out of bounds")
            if not 2 <= factor <= 10_000:
                raise ValueError(f"branching factor {factor} must lie in [2, 10000]")
        if not 2 <= self.default_factor <= 10_000:
            raise ValueError("default branching factor must lie in [2, 10000]")

    @classmethod
    def modern(cls, min_scale: int = -18, max_scale: int = 18) -> "ScaleSystem":
        return cls(min_scale=min_scale, max_scale=max_scale)

    @classmethod
    def naive(
        cls,
        instants_per_heartbeat: int = 100,
        heartbeats_per_quarter_hour: int = 900,
        quarter_hours_per_day: int = 96,
        days_per_season: int = 96,
        seasons_per_generation: int = 120,
        generations_per_aeon: int = 100,
    ) -> "ScaleSystem":
        return cls(
            min_scale=-1,
            max_scale=5,
            factors=(
                (0, instants_per_heartbeat),
                (1, heartbeats_per_quarter_hour),
                (2, quarter_hours_per_day),
                (3, days_per_season),
                (4, seasons_per_generation),
                (5, generations_per_aeon),
            ),
            labels=(
                (-1, "instant"),
                (0, "heartbeat"),
                (1, "quarter-hour"),
                (2, "day"),
                (3, "season"),
                (4, "generation"),
                (5, "aeon"),
            ),
            name="naive",
        )

    def branching(self, scale: int) -> int:
        if not self.min_scale < scale <= self.max_scale:
            raise InputDomainError(
                f"scale {scale} has no branching factor in [{self.min_scale + 1}, {self.max_scale}]"
            )
        return dict(self.factors).get(scale, self.default_factor)

    def units(self, outer_scale: int, inner_scale: int) -> int:
        """Scale-``inner_scale`` units inside one scale-``outer_scale`` unit."""
        if inner_scale > outer_scale:
            raise InputDomainError("inner scale must not exceed outer scale")
        product = 1
        for scale in range(inner_scale + 1, outer_scale + 1):
            product *= self.branching(scale)
        return product

    def label(self, scale: int) -> str:
        return dict(self.labels).get(scale, f"scale {scale}")
