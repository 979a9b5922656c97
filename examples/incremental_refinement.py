"""Incremental refinement on the declarative query API.

The paper closes: "Our approach of looking at close-to-output layers can
be viewed as an abstraction which can, in future work, lead to
layer-wise incremental abstraction-refinement techniques."

This example runs both refinement flavors the engine offers, through the
same :class:`repro.api.VerificationEngine` every other workflow uses:

1. ``method="refine"`` — layer-wise *envelope chaining*: a property not
   provable at the cheapest (latest) cut layer is retried with earlier
   data envelopes chained in whenever the counterexample turns out to
   be spurious.  Per-layer activation-coverage metrics warn when an
   envelope (and any proof resting on it) is built on little evidence.
2. ``method="cegar"`` — *anytime input-region refinement*: the same
   engine splits a sound input region instead, batching the prescreen
   of every pending subregion per round and reporting monotone anytime
   progress (the ``RefinementTrace``), budgeted and resumable.

Run:  python examples/incremental_refinement.py
"""

import numpy as np

from repro.api import VerificationQuery
from repro.core import ExperimentConfig, build_verified_system
from repro.monitor.coverage import coverage_report
from repro.perception.features import extract_features
from repro.properties.library import steer_far_left
from repro.properties.risk import RiskCondition, output_geq
from repro.verification.assume_guarantee import feature_set_from_data
from repro.verification.refinement import encode_chained_problem
from repro.verification.solver import BranchAndBoundSolver


def main() -> None:
    config = ExperimentConfig(
        train_scenes=500, val_scenes=150, epochs=30, properties=(), seed=0
    )
    system = build_verified_system(config)
    model = system.model
    images = system.train_data.images
    engine = system.engine

    cuts = [l for l in model.piecewise_linear_cut_points() if 0 < l < model.num_layers]
    cuts = cuts[-3:]  # the three latest piecewise-linear cut layers

    # ------------------------------------------------------------------
    # per-level frontiers (chained envelopes) and per-layer coverage
    # ------------------------------------------------------------------
    envelopes = {}
    print("cut layer   dim    coverage (on/off, 8-section)")
    for cut in cuts:
        features = extract_features(model, images, cut)
        kind = "box+diff" if features.shape[1] >= 2 else "box"
        envelopes[cut] = feature_set_from_data(features, kind=kind)
        cov = coverage_report(features)
        print(
            f"{cut:>9}   {features.shape[1]:>3}    "
            f"{cov.onoff:.0%} / {cov.k_section:.0%}"
        )

    def chained_max(active_cuts):
        risk = RiskCondition("any", (output_geq(2, 0, -1e9),))
        problem = encode_chained_problem(model, active_cuts, envelopes, risk)
        problem.model.set_objective({problem.output_vars[0]: -1.0})
        return -BranchAndBoundSolver().minimize(problem.model).objective

    print("\nrefinement level   active envelopes      reachable max y0")
    frontiers = []
    for level in range(len(cuts)):
        active = cuts[len(cuts) - 1 - level :]
        frontier = chained_max(active)
        frontiers.append(frontier)
        print(f"{level:>16}   {str(active):<20}  {frontier:>16.3f}")

    # ------------------------------------------------------------------
    # 1. layer-wise envelope refinement, as an engine query
    # ------------------------------------------------------------------
    if frontiers[-1] < frontiers[0] - 0.05:
        threshold = 0.5 * (frontiers[-1] + frontiers[0])
    else:
        threshold = frontiers[0] - 0.05  # fall back: show the SAT path
    risk = steer_far_left(float(threshold))
    print(f"\nrefining psi = {risk.description} (method='refine')")

    engine.set_refinement_data(images)
    result = engine.run_query(VerificationQuery(risk=risk, method="refine"))
    refinement = result.refinement
    print(refinement.summary())

    if refinement.proved:
        print(
            f"\nThe property needed the chained envelopes at layers "
            f"{list(refinement.final_cut_layers)}: the coarser levels' "
            f"counterexamples were spurious (excluded by earlier envelopes "
            f"plus the exact bridge layers), exactly the layer-wise "
            f"refinement the paper anticipates."
        )
    elif refinement.counterexample is not None:
        print(
            f"\ncounterexample output "
            f"{np.round(refinement.counterexample.predicted_output, 3)} "
            f"survives all refinement levels."
        )

    # ------------------------------------------------------------------
    # 2. anytime CEGAR over a sound input region, same engine
    # ------------------------------------------------------------------
    from repro.verification.counterexample import undecided_band_threshold

    engine.add_static_feature_set(0.0, 1.0, name="pixel-domain")
    enclosure = engine.output_enclosures(["pixel-domain"])[0]
    hi = float(enclosure.upper[0])

    # (a) a provable threshold: the round-0 batched prescreen decides the
    # whole region at once — the decide path of the anytime trace
    provable = round(hi + 0.25, 3)
    print(f"\nrefining psi = waypoint >= {provable} over [0,1] pixels (method='cegar')")
    proved = engine.run_query(
        VerificationQuery(
            risk=steer_far_left(provable), set_name="pixel-domain", method="cegar"
        )
    )
    print(proved.cegar.summary())
    print(f"verdict: {proved.verdict.verdict.value} (sound for every pixel input)")

    # (b) a threshold in the genuinely undecided band, just above the
    # adversarially-reachable frontier: neither bound propagation nor
    # concretization decides it, so the trace shows splitting, bound
    # gaps and the open frontier — the anytime path.  On pixel-space
    # regions interval refinement converges very slowly (this is exactly
    # why the paper cuts at close-to-output feature layers), so expect a
    # budgeted, resumable UNKNOWN here rather than a verdict.
    shape = model.input_shape
    tight = undecided_band_threshold(
        model,
        lambda t: RiskCondition("probe", (output_geq(2, 0, t),)),
        np.zeros((1, *shape)),
        np.ones((1, *shape)),
        float(enclosure.lower[0]),
        hi,
    )
    print(f"\nrefining psi = waypoint >= {tight} over [0,1] pixels (method='cegar')")
    cegar = engine.run_query(
        VerificationQuery(
            risk=steer_far_left(tight),
            set_name="pixel-domain",
            method="cegar",
            refine_budget=40,
        )
    )
    print(cegar.cegar.summary())
    print(f"verdict: {cegar.verdict.verdict.value}")
    if cegar.verdict.verdict.value == "unknown":
        print(
            "budget exhausted — re-running the same query resumes the loop "
            "from its surviving frontier (it is cached per (set, risk))."
        )


if __name__ == "__main__":
    main()
