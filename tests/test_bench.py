"""Tests for the experiment harness (specs, runner, renderers, CLI)."""

from __future__ import annotations

import json

import pytest

from repro.bench import FIGURES, Claim, FigureSpec, get_figure, run_figure
from repro.bench.static import (
    render_sdg_figures,
    render_strategy_summary,
    render_table1,
)
from repro.smallbank.strategies import STRATEGIES_BY_KEY


def tiny_spec(**overrides) -> FigureSpec:
    defaults = dict(
        key="tiny",
        title="tiny test figure",
        platform="postgres",
        strategies=("base-si", "promote-wt-upd"),
        mpls=(1, 4),
        customers=300,
        hotspot=60,
        show_relative=True,
        claims=(
            Claim("SI faster at MPL 4 than MPL 1",
                  lambda r: r.tps("base-si", 4) > r.tps("base-si", 1)),
        ),
    )
    defaults.update(overrides)
    return FigureSpec(**defaults)


class TestSpecs:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}

    def test_get_figure_unknown(self):
        with pytest.raises(KeyError):
            get_figure("fig99")

    def test_specs_reference_known_strategies(self):
        for spec in FIGURES.values():
            for strategy in spec.strategies:
                assert strategy in STRATEGIES_BY_KEY

    def test_sfu_strategies_only_on_commercial_figures(self):
        for spec in FIGURES.values():
            for strategy in spec.strategies:
                if STRATEGIES_BY_KEY[strategy].requires_cc_sfu:
                    assert spec.platform == "commercial", (spec.key, strategy)

    def test_config_applies_overrides(self):
        spec = get_figure("fig7")
        config = spec.config("base-si", 10, measure=1.0)
        assert config.hotspot == 10
        assert config.mix == "balance60"
        assert config.measure == 1.0


class TestRunFigure:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure(
            tiny_spec(), repetitions=1, measure=0.6, ramp_up=0.1
        )

    def test_grid_complete(self, result):
        assert set(result.grid) == {1, 4}
        for mpl in (1, 4):
            assert set(result.grid[mpl]) == {"base-si", "promote-wt-upd"}

    def test_series_accessors(self, result):
        assert result.tps("base-si", 4) > 0
        assert 0.5 < result.relative("promote-wt-upd", 4) < 1.5
        assert result.peak("base-si") == max(
            result.tps("base-si", 1), result.tps("base-si", 4)
        )
        assert result.peak_mpl("base-si") in (1, 4)

    def test_csv_export(self, result):
        csv = result.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("figure,mpl,strategy,tps")
        assert len(lines) == 1 + 2 * 2  # header + mpls x strategies
        assert any(line.startswith("tiny,4,base-si,") for line in lines)

    def test_render_contains_series_and_claims(self, result):
        text = result.render()
        assert "Throughput (TPS" in text
        assert "relative to SI" in text
        assert "PASS" in text or "FAIL" in text
        assert result.all_claims_hold

    def test_progress_callback(self):
        seen: list[str] = []
        run_figure(
            tiny_spec(mpls=(1,), strategies=("base-si",), claims=()),
            repetitions=1,
            measure=0.3,
            ramp_up=0.1,
            progress=seen.append,
        )
        assert seen == ["tiny: base-si @ MPL 1"]

    def test_failing_claim_reported(self):
        spec = tiny_spec(
            claims=(Claim("always false", lambda r: False),)
        )
        result = run_figure(spec, repetitions=1, measure=0.3, ramp_up=0.1)
        assert not result.all_claims_hold
        assert "[FAIL] always false" in result.render()


class TestStaticRenderers:
    def test_table1_layout(self):
        text = render_table1()
        assert "Option/TX" in text
        # The exact paper rows.
        for label in (
            "MaterializeWT",
            "PromoteWT-upd",
            "MaterializeBW",
            "PromoteBW-upd",
            "MaterializeALL",
            "PromoteALL",
        ):
            assert label in text
        # PromoteALL's Balance cell shows both tables.
        promote_all_row = next(
            line for line in text.splitlines() if "PromoteALL" in line
        )
        assert "Check+Sav" in promote_all_row

    def test_sdg_figures_show_before_and_after(self):
        text = render_sdg_figures()
        assert "Figure 1" in text and "Figure 3(b)" in text
        assert "Balance -(v)-> WriteCheck -(v)-> TransactSaving" in text
        assert text.count("no dangerous structure") == 4

    def test_strategy_summary_flags_sfu(self):
        text = render_strategy_summary()
        assert "postgres=NO" in text  # the sfu strategies
        assert "NOT serializable (baseline)" in text


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table1" in out

    def test_table1_command(self, capsys):
        from repro.bench.__main__ import main

        assert main(["table1"]) == 0
        assert "Option/TX" in capsys.readouterr().out

    def test_sdg_command(self, capsys):
        from repro.bench.__main__ import main

        assert main(["sdg"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_summary_command(self, capsys):
        from repro.bench.__main__ import main

        assert main(["summary"]) == 0
        assert "Strategy summary" in capsys.readouterr().out

    def test_unknown_figure_errors(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig77"])

    @pytest.mark.parametrize("suffix", [".json", ".prom"])
    def test_metrics_out_writes_the_exposition(self, tmp_path, suffix):
        from repro.bench.__main__ import main

        path = tmp_path / f"metrics{suffix}"
        # The claims may fail at this size: the exit code is not the point.
        main(["fig6", "--reps", "1", "--measure", "0.2", "--ramp-up", "0.05",
              "--quiet", "--metrics-out", str(path)])
        if suffix == ".json":
            assert "repro_wal_batch_size" in json.loads(path.read_text())
        else:
            assert "# TYPE " in path.read_text()
