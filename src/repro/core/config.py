"""Experiment configuration for the end-to-end pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scenario.dataset import SceneConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything the pipeline needs to build a verified system.

    Defaults are sized for interactive runs (seconds end to end);
    the benchmarks scale ``train_scenes`` and ``epochs`` up.
    """

    scene: SceneConfig = field(default_factory=SceneConfig)
    train_scenes: int = 400
    val_scenes: int = 120
    seed: int = 0
    feature_width: int = 12
    epochs: int = 25
    batch_size: int = 32
    lr: float = 2e-3
    characterizer_hidden: tuple[int, ...] = (16,)
    characterizer_epochs: int = 200
    characterizer_scenes: int = 400
    characterizer_balanced: bool = True
    set_kind: str = "box+diff"
    set_margin: float = 0.0
    solver: str = "branch-and-bound"
    properties: tuple[str, ...] = ("bends_right", "bends_left")

    def __post_init__(self) -> None:
        if self.train_scenes < 10 or self.val_scenes < 10:
            raise ValueError("need at least 10 train and 10 val scenes")
        if self.set_kind not in ("box", "box+diff", "box+pairs"):
            raise ValueError(f"unknown set kind {self.set_kind!r}")
        if self.set_margin < 0.0:
            raise ValueError(f"set_margin must be >= 0, got {self.set_margin}")
