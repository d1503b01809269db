"""Pre-registration cloud conditioning: height crop and remote-point removal.

Both filters keep the input order and propagate the cloud's bounds metadata,
so the crop boundary always refers to the original extent and re-applying a
filter with the same config is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloudio import Cloud
from .geom import bounds

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class FilterConfig:
    """crop_fraction keeps the bottom share of the vertical extent; points
    farther than remote_multiplier times the median centroid distance are
    dropped. crop_upper flips the crop to the complement side."""

    crop_fraction: float = 0.25
    vertical_axis: str = "y"
    remote_multiplier: float = 10.0
    crop_upper: bool = False

    def __post_init__(self):
        if not 0.0 < self.crop_fraction <= 1.0:
            raise ValueError("crop_fraction must be in (0, 1]")
        if self.vertical_axis not in _AXES:
            raise ValueError("vertical_axis must be one of x, y, z")
        if self.remote_multiplier <= 0.0:
            raise ValueError("remote_multiplier must be positive")

    @property
    def axis_index(self) -> int:
        return _AXES[self.vertical_axis]


def crop_lower(cloud: Cloud, cfg: FilterConfig = FilterConfig()) -> Cloud:
    """Keep the points in the bottom ``crop_fraction`` of the vertical extent.

    The extent comes from the cloud's bounds metadata when present (and is
    attached to the result), so cropping an already-cropped cloud changes
    nothing. A point at exactly the boundary height is retained; with zero
    vertical extent every point sits on the boundary and the cloud passes
    unchanged. Input order is preserved.
    """
    box = cloud.bounds_hint if cloud.bounds_hint is not None else bounds(cloud.points)
    axis = cfg.axis_index
    lo = float(box.minimum[axis])
    hi = float(box.maximum[axis])
    coords = cloud.points[:, axis]
    if cfg.crop_upper:
        boundary = hi - cfg.crop_fraction * (hi - lo)
        mask = coords >= boundary
    else:
        boundary = lo + cfg.crop_fraction * (hi - lo)
        mask = coords <= boundary
    if not mask.any():
        raise ValueError("crop removed every point")
    return Cloud(points=cloud.points[mask], label=cloud.label, bounds_hint=box)


def remove_remote(cloud: Cloud, cfg: FilterConfig = FilterConfig()) -> Cloud:
    """Drop points farther from the centroid than ``remote_multiplier`` times
    the median centroid distance. Order is preserved; may return the cloud
    unchanged."""
    if len(cloud) < 2:
        raise ValueError("remote-point removal needs at least 2 points")
    centroid = cloud.points.mean(axis=0)
    dist = np.linalg.norm(cloud.points - centroid, axis=1)
    mask = dist <= cfg.remote_multiplier * np.median(dist)
    if not mask.any():
        return cloud
    box = cloud.bounds_hint if cloud.bounds_hint is not None else bounds(cloud.points)
    return Cloud(points=cloud.points[mask], label=cloud.label, bounds_hint=box)
