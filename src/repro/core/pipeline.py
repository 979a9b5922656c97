"""One-call construction of a fully trained, verifiable system.

``build_verified_system(config)`` runs the complete Figure 1 pipeline:

1. sample and render the synthetic ODD (train/validation datasets),
2. train the direct-perception network on affordances,
3. extract cut-layer features and build the assume-guarantee set ``S~``,
4. train one characterizer per requested property,
5. estimate each characterizer's Table I confusion on validation data,
6. assemble a :class:`~repro.api.engine.VerificationEngine` on the first
   read of ``system.engine`` (building a system does not need one).

Examples and benchmarks share this path so that every experiment runs on
an identically constructed system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import ExperimentConfig
from repro.perception.characterizer import Characterizer, train_characterizer
from repro.perception.features import extract_features
from repro.perception.network import build_direct_perception_network, default_cut_layer
from repro.perception.train import PerceptionTrainingResult, train_direct_perception
from repro.properties.phi import InputProperty
from repro.scenario.dataset import Dataset, balanced_property_dataset, generate_dataset
from repro.verification.statistical import ConfusionEstimate, estimate_confusion

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.engine import VerificationEngine


@dataclass
class VerifiedSystem:
    """Everything the pipeline produced, ready for querying."""

    config: ExperimentConfig
    train_data: Dataset
    val_data: Dataset
    training: PerceptionTrainingResult
    cut_layer: int
    train_features: np.ndarray
    val_features: np.ndarray
    characterizers: dict[str, Characterizer]
    confusions: dict[str, ConfusionEstimate]

    @property
    def model(self):
        return self.training.model

    @cached_property
    def engine(self) -> VerificationEngine:
        """The engine over the ``data`` feature set (the config's set kind
        and margin) with every characterizer attached, built on first read."""
        # deferred: repro.api.engine imports repro.core.verdict, whose
        # package imports this module
        from repro.api.engine import VerificationEngine

        engine = VerificationEngine(
            self.model, self.cut_layer, solver=self.config.solver
        )
        engine.add_feature_set_from_features(
            self.train_features,
            kind=self.config.set_kind,
            margin=self.config.set_margin,
            name="data",
        )
        for characterizer in self.characterizers.values():
            engine.attach_characterizer(characterizer)
        return engine

    def summary(self) -> str:
        lines = [
            f"perception: {self.training.summary()}",
            f"cut layer: {self.cut_layer} "
            f"(dimension {self.model.feature_dim(self.cut_layer)})",
        ]
        for name, characterizer in self.characterizers.items():
            confusion = self.confusions[name]
            lines.append(
                f"characterizer[{name}]: train_acc={characterizer.train_accuracy:.3f} "
                f"val_acc={characterizer.val_accuracy:.3f} "
                f"gamma={confusion.gamma:.4f} (1-gamma >= {confusion.guarantee_lower:.4f})"
            )
        return "\n".join(lines)


def build_verified_system(
    config: ExperimentConfig | None = None, verbose: bool = False
) -> VerifiedSystem:
    """Run the full pipeline described in the module docstring."""
    config = config or ExperimentConfig()

    train_data = generate_dataset(config.train_scenes, config.scene, seed=config.seed)
    val_data = generate_dataset(
        config.val_scenes, config.scene, seed=config.seed + 10_000
    )

    model = build_direct_perception_network(
        input_shape=train_data.images.shape[1:],
        feature_width=config.feature_width,
        seed=config.seed,
    )
    training = train_direct_perception(
        model,
        train_data,
        val_data,
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.lr,
        seed=config.seed,
        verbose=verbose,
    )

    cut_layer = default_cut_layer(model)
    train_features = extract_features(model, train_data.images, cut_layer)
    val_features = extract_features(model, val_data.images, cut_layer)

    characterizers: dict[str, Characterizer] = {}
    confusions: dict[str, ConfusionEstimate] = {}
    for prop_index, prop_name in enumerate(config.properties):
        prop = InputProperty.from_registry(prop_name)
        val_labels = prop.labels(val_data)
        if config.characterizer_balanced:
            # the paper's (In, C_phi) is a dedicated labelled training set
            # for each property; a class-balanced sample trains far better
            # than the skewed ODD distribution
            char_data = balanced_property_dataset(
                config.characterizer_scenes,
                prop.oracle,
                config.scene,
                seed=config.seed + 20_000 + prop_index,
            )
            char_features = extract_features(model, char_data.images, cut_layer)
            char_labels = prop.labels(char_data)
        else:
            char_features = train_features
            char_labels = prop.labels(train_data)
        characterizer, _ = train_characterizer(
            prop_name,
            cut_layer,
            char_features,
            char_labels,
            val_features,
            val_labels,
            hidden=config.characterizer_hidden,
            epochs=config.characterizer_epochs,
            seed=config.seed,
            verbose=verbose,
        )
        characterizers[prop_name] = characterizer
        confusions[prop_name] = estimate_confusion(
            characterizer.decide(val_features), val_labels.astype(bool)
        )

    return VerifiedSystem(
        config=config,
        train_data=train_data,
        val_data=val_data,
        training=training,
        cut_layer=cut_layer,
        train_features=train_features,
        val_features=val_features,
        characterizers=characterizers,
        confusions=confusions,
    )
