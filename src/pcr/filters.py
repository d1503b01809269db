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

# Column of the vertical (up) axis: y in both clouds.
VERTICAL_AXIS = 1
# Points farther from the centroid than this many times the median centroid
# distance are remote.
REMOTE_MULTIPLIER = 10.0


@dataclass(frozen=True)
class FilterConfig:
    """crop_fraction keeps the bottom share of the vertical extent."""

    crop_fraction: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.crop_fraction <= 1.0:
            raise ValueError("crop_fraction must be in (0, 1]")


def crop_lower(cloud: Cloud, cfg: FilterConfig = FilterConfig()) -> Cloud:
    """Keep the points in the bottom ``crop_fraction`` of the vertical extent.

    The extent comes from the cloud's bounds metadata when present (and is
    attached to the result), so cropping an already-cropped cloud changes
    nothing. A point at exactly the boundary height is retained; with zero
    vertical extent every point sits on the boundary and the cloud passes
    unchanged. Input order is preserved.
    """
    box = cloud.bounds_hint if cloud.bounds_hint is not None else bounds(cloud.points)
    lo = float(box.minimum[VERTICAL_AXIS])
    hi = float(box.maximum[VERTICAL_AXIS])
    boundary = lo + cfg.crop_fraction * (hi - lo)
    mask = cloud.points[:, VERTICAL_AXIS] <= boundary
    if not mask.any():
        raise ValueError("crop removed every point")
    return Cloud(points=cloud.points[mask], label=cloud.label, bounds_hint=box)


def remove_remote(cloud: Cloud) -> Cloud:
    """Drop points farther from the centroid than ``REMOTE_MULTIPLIER`` times
    the median centroid distance. Order is preserved; at least half the
    points are kept, since half lie within the median distance."""
    if len(cloud) < 2:
        raise ValueError("remote-point removal needs at least 2 points")
    centroid = cloud.points.mean(axis=0)
    dist = np.linalg.norm(cloud.points - centroid, axis=1)
    mask = dist <= REMOTE_MULTIPLIER * np.median(dist)
    box = cloud.bounds_hint if cloud.bounds_hint is not None else bounds(cloud.points)
    return Cloud(points=cloud.points[mask], label=cloud.label, bounds_hint=box)
