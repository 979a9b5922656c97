"""Road geometry in the vehicle frame.

World/vehicle coordinates: ``x`` forward (meters), ``y`` left, ``z`` up;
the ego vehicle sits at the origin heading along ``+x``.  The road
centerline (center of the *ego lane*) is a clothoid-like curve described
by an initial lateral offset ``y0``, initial relative heading ``psi0``,
curvature ``kappa0`` and curvature rate ``kappa_rate``:

    psi(s)  = psi0 + kappa0 * s + kappa_rate * s**2 / 2
    y_c(x) ~= y0 + psi0 * x + kappa0 * x**2 / 2 + kappa_rate * x**3 / 6

The cubic lateral model (small-angle approximation, standard in lane
modelling) is used consistently for rendering *and* ground-truth
affordances, so labels are exact with respect to the generated images.
Positive curvature bends the road to the *left*, negative to the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np


class _RoadLayout:
    """The centerline and lane layout shared by one road and a stack of roads.

    The formulas read only the fields annotated here, so they evaluate
    the same way on a :class:`RoadGeometry`'s scalars and on a
    :class:`RoadStack`'s ``(n, 1, 1)`` per-road columns.
    """

    kappa0: Any
    kappa_rate: Any
    y0: Any
    psi0: Any
    lane_width: Any
    num_lanes: Any
    ego_lane: Any

    def centerline_offset(self, x: np.ndarray | float) -> np.ndarray | float:
        """Lateral position ``y_c(x)`` of the ego-lane centerline."""
        x = np.asarray(x, dtype=float)
        return (
            self.y0
            + self.psi0 * x
            + 0.5 * self.kappa0 * x**2
            + self.kappa_rate * x**3 / 6.0
        )

    def boundary_shift(self, j: int) -> Any:
        """Lateral shift of lane boundary ``j`` from the ego centerline."""
        return (j - self.ego_lane - 0.5) * self.lane_width

    @property
    def road_half_span(self) -> Any:
        """Half of the total paved width."""
        return 0.5 * self.num_lanes * self.lane_width

    def road_center_offset(self, x: np.ndarray | float) -> np.ndarray | float:
        """Lateral position of the center of the *paved road* (all lanes)."""
        shift = (0.5 * (self.num_lanes - 1) - self.ego_lane) * self.lane_width
        return self.centerline_offset(x) + shift

    def on_road(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean mask: is world point ``(x, y)`` on the paved road?"""
        return np.abs(y - self.road_center_offset(x)) <= self.road_half_span


@dataclass(frozen=True)
class RoadGeometry(_RoadLayout):
    """Clothoid road segment in the vehicle frame.

    Parameters
    ----------
    kappa0:
        Curvature at the vehicle position (1/m). Positive = bends left.
    kappa_rate:
        Curvature change per meter of arc length (1/m^2).
    y0:
        Lateral offset of the ego-lane centerline at ``x = 0`` (m);
        ``-y0`` is the vehicle's offset from the lane center.
    psi0:
        Road heading relative to the vehicle heading at ``x = 0`` (rad).
    lane_width:
        Width of each lane (m).
    num_lanes:
        Total number of lanes (all same direction, highway style).
    ego_lane:
        Index of the lane the vehicle drives in; ``0`` is the rightmost.
    """

    kappa0: float = 0.0
    kappa_rate: float = 0.0
    y0: float = 0.0
    psi0: float = 0.0
    lane_width: float = 3.6
    num_lanes: int = 2
    ego_lane: int = 0

    def __post_init__(self) -> None:
        if self.lane_width <= 0.0:
            raise ValueError(f"lane_width must be positive, got {self.lane_width}")
        if self.num_lanes < 1:
            raise ValueError(f"num_lanes must be >= 1, got {self.num_lanes}")
        if not 0 <= self.ego_lane < self.num_lanes:
            raise ValueError(
                f"ego_lane {self.ego_lane} out of range for {self.num_lanes} lanes"
            )

    # -- scalar curve functions (vectorized over x) -------------------------

    def curvature(self, x: np.ndarray | float) -> np.ndarray | float:
        """Curvature at forward distance ``x``."""
        return self.kappa0 + self.kappa_rate * np.asarray(x, dtype=float)

    def heading(self, x: np.ndarray | float) -> np.ndarray | float:
        """Road heading relative to the vehicle at forward distance ``x``."""
        x = np.asarray(x, dtype=float)
        return self.psi0 + self.kappa0 * x + 0.5 * self.kappa_rate * x**2

    # -- lane structure ----------------------------------------------------------

    def lane_center_offset(self, x: np.ndarray | float, lane: int) -> np.ndarray | float:
        """Lateral position of the centerline of lane ``lane``."""
        if not 0 <= lane < self.num_lanes:
            raise ValueError(f"lane {lane} out of range for {self.num_lanes} lanes")
        return self.centerline_offset(x) + (lane - self.ego_lane) * self.lane_width

    def boundary_offsets(self, x: np.ndarray | float) -> list[np.ndarray | float]:
        """Lateral positions of all ``num_lanes + 1`` lane boundaries.

        Index ``0`` is the right road edge, index ``num_lanes`` the left
        road edge; interior indices are dashed lane separators.
        """
        center = self.centerline_offset(x)
        return [center + self.boundary_shift(j) for j in range(self.num_lanes + 1)]

    def bend_direction(self, lookahead: float, threshold: float = 1e-4) -> int:
        """Sign of the bend over the lookahead window: +1 left, -1 right, 0 straight.

        Uses the average curvature over ``[0, lookahead]``, which equals
        the curvature at the window midpoint for the linear profile.
        """
        mean_curvature = float(self.curvature(0.5 * lookahead))
        if mean_curvature > threshold:
            return 1
        if mean_curvature < -threshold:
            return -1
        return 0


class RoadStack(_RoadLayout):
    """Several roads' fields as ``(n, 1, 1)`` columns.

    Evaluated against a camera's ``(H, W)`` ground grid, the shared
    layout formulas give ``(n, H, W)`` arrays whose slice ``i`` equals
    ``roads[i]``'s own evaluation bit for bit: each is the same
    elementwise IEEE operations on the same values.
    """

    def __init__(self, roads: Sequence[RoadGeometry]):
        def column(name: str) -> np.ndarray:
            return np.array([getattr(road, name) for road in roads])[:, None, None]

        self.kappa0 = column("kappa0")
        self.kappa_rate = column("kappa_rate")
        self.y0 = column("y0")
        self.psi0 = column("psi0")
        self.lane_width = column("lane_width")
        self.num_lanes = column("num_lanes")
        self.ego_lane = column("ego_lane")
