"""Quickstart: the Figure 1 workflow on the declarative query API.

Builds a synthetic highway ODD, trains a direct-perception network and a
"road bends right" characterizer, then asks the two questions from the
paper's evaluation as one two-query :class:`repro.api.Campaign`:

1. Can the network suggest steering far left while the road bends right?
2. Can it suggest steering straight while the road bends right?

Run:  python examples/quickstart.py
"""

from repro.api import Campaign, VerificationQuery
from repro.core import ExperimentConfig, build_verified_system
from repro.properties.library import STEER_STRAIGHT, steer_far_left


def main() -> None:
    print("building the verified system (data -> perception -> characterizer)...")
    config = ExperimentConfig(
        train_scenes=400,
        val_scenes=120,
        epochs=25,
        properties=("bends_right",),
        seed=0,
    )
    system = build_verified_system(config)
    print(system.summary())
    print()

    # the declarative query engine, with the confusion estimates attached
    engine = system.engine
    engine.confusions.update(system.confusions)

    # exact reachable frontier of the waypoint output over S~ ∩ {h accepts}
    frontier = engine.run_query(
        VerificationQuery(method="range", property_name="bends_right")
    ).output_range
    print(
        f"reachable waypoint range when 'bends_right' accepted: "
        f"[{frontier.lower:.2f}, {frontier.upper:.2f}] m"
    )

    campaign = Campaign("quickstart").add(
        # question 1: steering far left (threshold just beyond the frontier)
        VerificationQuery(
            risk=steer_far_left(frontier.upper + 0.25), property_name="bends_right"
        ),
        # question 2: steering straight
        VerificationQuery(risk=STEER_STRAIGHT, property_name="bends_right"),
    )
    report = engine.run(campaign)
    for index, result in enumerate(report, 1):
        print(f"\n[{index}] {result.query.name}")
        print(result.verdict.summary())
        print(f"    decided by: {result.decided_by} in {result.elapsed:.3f}s")
    print(f"\n{report.summary()}")

    # the conditional proof needs its runtime monitor
    monitor = engine.make_monitor(keep_events=False)
    monitor_report = monitor.run(system.val_data.images)
    print(f"\nruntime monitor on held-out in-ODD stream: {monitor_report.summary()}")


if __name__ == "__main__":
    main()
