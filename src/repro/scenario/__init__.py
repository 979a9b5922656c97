"""Synthetic road-scene generator — the ODD substrate.

The paper evaluates on camera recordings from a segment of the German A9
highway "considering variations such as weather and the current lane"
(footnote 7), with affordance labels (next waypoint and orientation) and
a human oracle for input properties such as "road strongly bends to the
right".  Those recordings are proprietary; this subpackage replaces them
with a *parametric* scene model:

- :mod:`repro.scenario.geometry` — road curvature / heading / centerline,
- :mod:`repro.scenario.camera` — pinhole projection and inverse
  perspective mapping,
- :mod:`repro.scenario.render` — a grayscale rasterizer (road surface,
  lane markings, textured grass, sky, vehicles),
- :mod:`repro.scenario.weather` — brightness / contrast / fog / sensor
  noise variations,
- :mod:`repro.scenario.traffic` — vehicles in adjacent lanes,
- :mod:`repro.scenario.affordances` — exact ground-truth affordances,
- :mod:`repro.scenario.labels` — exact property oracles (the "human
  oracle" of Section II.A),
- :mod:`repro.scenario.dataset` — seeded sampling of whole datasets,
- :mod:`repro.scenario.regions` — perturbation-envelope input boxes
  (region grids) for batched verification campaigns.

Because every image is generated from known parameters, property labels
are *exact*, which is precisely the oracle access the paper assumes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.scenario.affordances import affordance_names, affordances
    from repro.scenario.camera import PinholeCamera
    from repro.scenario.dataset import (
        Dataset,
        SceneConfig,
        SceneParams,
        generate_dataset,
        render_scene,
        render_scenes,
        sample_scene,
    )
    from repro.scenario.geometry import RoadGeometry
    from repro.scenario.labels import ORACLES, PropertyOracle
    from repro.scenario.regions import (
        PerturbationAxes,
        Region,
        RegionGrid,
        RegionMemoryError,
        ensure_regions_fit,
        region_from_scene,
        scenario_region_grid,
    )
    from repro.scenario.streaming import (
        StreamPlan,
        StreamReport,
        run_stream,
        stream_enclosure_range,
        stream_scenario_regions,
    )
    from repro.scenario.traffic import Vehicle
    from repro.scenario.weather import Weather

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.scenario.affordances": ("affordance_names", "affordances"),
        "repro.scenario.camera": ("PinholeCamera",),
        "repro.scenario.dataset": (
            "Dataset",
            "SceneConfig",
            "SceneParams",
            "generate_dataset",
            "render_scene",
            "render_scenes",
            "sample_scene",
        ),
        "repro.scenario.geometry": ("RoadGeometry",),
        "repro.scenario.labels": ("ORACLES", "PropertyOracle"),
        "repro.scenario.regions": (
            "PerturbationAxes",
            "Region",
            "RegionGrid",
            "RegionMemoryError",
            "ensure_regions_fit",
            "region_from_scene",
            "scenario_region_grid",
        ),
        "repro.scenario.streaming": (
            "StreamPlan",
            "StreamReport",
            "run_stream",
            "stream_enclosure_range",
            "stream_scenario_regions",
        ),
        "repro.scenario.traffic": ("Vehicle",),
        "repro.scenario.weather": ("Weather",),
    },
)
