"""E6 (§V claim 4): boxed abstraction is too coarse; adjacent differences help.

"it is commonly not sufficient to only record the minimum and maximum
value for each neuron, as boxed abstraction can lead to huge
over-approximation. In certain circumstances, we also record the minimum
and maximum difference between two adjacent neurons."

Regenerates the frontier ladder — the exact reachable waypoint maximum
under box / box+diff / box+pairs, with and without the characterizer —
and benchmarks each output-range analysis.
"""

import pytest

from repro.verification.assume_guarantee import feature_set_from_data
from repro.verification.output_range import output_range

KINDS = ("box", "box+diff", "box+pairs")


@pytest.fixture(scope="module")
def frontier(system):
    """The full E6 table, computed once; benches re-time individual cells."""
    characterizer = system.characterizers["bends_right"].as_piecewise_linear()
    table = {}
    for kind in KINDS:
        fs = feature_set_from_data(system.train_features, kind=kind)
        table[(kind, "no-h")] = output_range(system.engine.suffix, fs, None).upper
        table[(kind, "h")] = output_range(
            system.engine.suffix, fs, characterizer
        ).upper
    return table


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.benchmark(group="e6-abstraction")
def test_e6_output_range_per_set(benchmark, system, kind):
    fs = feature_set_from_data(system.train_features, kind=kind)
    characterizer = system.characterizers["bends_right"].as_piecewise_linear()
    reach = benchmark(lambda: output_range(system.engine.suffix, fs, characterizer))
    assert reach.upper > reach.lower


@pytest.mark.benchmark(group="e6-abstraction")
def test_e6_ladder_shape(benchmark, system, frontier):
    """The monotone tightening ladder the paper's remark implies."""

    def read_table():
        return dict(frontier)

    table = benchmark(read_table)
    # relational records tighten the box
    assert table[("box+diff", "h")] <= table[("box", "h")] + 1e-6
    assert table[("box+pairs", "h")] <= table[("box+diff", "h")] + 1e-6
    # the characterizer conjunct tightens every row
    for kind in KINDS:
        assert table[(kind, "h")] <= table[(kind, "no-h")] + 1e-6
    # and the combined effect is substantial
    assert table[("box+pairs", "h")] < table[("box", "no-h")] - 0.5
