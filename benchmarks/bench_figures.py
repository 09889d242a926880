"""The paper's Table I, Figures 1-3 and Figures 4-9, each regenerated.

Figures 4-9 run on a reduced grid (fewer MPLs and repetitions and a
shorter measurement window than the paper's 5 x 60 s; the *shape*
checks are unaffected) and assert each figure's qualitative claims.
``pedantic(rounds=1)`` keeps pytest-benchmark from re-running
multi-second simulations; the recorded time is the cost of regenerating
the figure.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -q

For paper-fidelity numbers run ``python -m repro.bench <figure>
--paper-scale --reps 5 --measure 60 --ramp-up 30``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.figures import FIGURES, run_figure
from repro.bench.static import render_sdg_figures, render_table1
from repro.smallbank.strategies import get_strategy

#: Per figure: the MPLs kept from its grid (the endpoints and the knee),
#: the repetitions and the measurement window in seconds.
REDUCED = {
    "fig4": ((1, 10, 20, 30), 1, 1.5),
    "fig5": ((1, 10, 20, 30), 1, 1.5),
    "fig6": ((20,), 2, 2.0),
    "fig7": ((5, 15, 25, 30), 1, 1.5),
    "fig8": ((1, 10, 15, 20, 25, 30), 1, 1.5),
    "fig9": ((1, 10, 15, 20, 25, 30), 1, 1.5),
}


@pytest.mark.parametrize("key", sorted(FIGURES))
def test_figure(benchmark, key):
    mpls, repetitions, measure = REDUCED[key]
    spec = replace(FIGURES[key], mpls=mpls)
    result = benchmark.pedantic(
        lambda: run_figure(spec, repetitions=repetitions, measure=measure),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    assert result.all_claims_hold, result.render()


def test_table1(benchmark):
    """Table I: the tables each option updates, derived."""
    rendered = benchmark.pedantic(render_table1, rounds=1, iterations=1)
    print()
    print(rendered)
    # Spot-check the derivation against the paper's printed table.
    assert get_strategy("promote-all").table_one_row()["Balance"] == (
        "Checking",
        "Saving",
    )
    assert "MaterializeALL" in rendered
    assert rendered.count("Conf") >= 9  # 2 (WT) + 2 (BW) + 5 (ALL)


def test_sdg_figures(benchmark):
    """Figures 1-3: the SDG analysis."""
    rendered = benchmark.pedantic(render_sdg_figures, rounds=1, iterations=1)
    print()
    print(rendered)
    assert "Balance -(v)-> WriteCheck -(v)-> TransactSaving" in rendered
    # Every post-fix SDG must certify serializability.
    assert rendered.count("no dangerous structure") == 4
