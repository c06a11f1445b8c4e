from gscsim import ShockParams
from gscsim.charts import timeseries_chart
from gscsim.scenarios import ScenarioConfig, run_scenario

from conftest import symmetric_two_tier


def make_ts(realization="south", shock_period=5, horizon=8):
    cfg = ScenarioConfig(economy=symmetric_two_tier(),
                         shock=ShockParams(eta=0.2, lam=1.0, zeta=0.9),
                         decision_mode="planner", realization=realization,
                         shock_period=shock_period, horizon=horizon, grid_resolution=101)
    return run_scenario(cfg)


def test_chart_structure():
    svg = timeseries_chart(make_ts(), "planner_south_risk")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "planner_south_risk" in svg
    for label in ("East", "South", "Total"):
        assert label in svg
    assert "stroke-dasharray" in svg           # East is the dashed series
    assert svg.count("<polyline") >= 3


def test_single_period_chart_sits_on_the_left_edge():
    # One period spans no x range; its points go to the plot's left edge.
    svg = timeseries_chart(make_ts(shock_period=1, horizon=1), "one")
    points = [line.split('points="')[1] for line in svg.splitlines() if "<polyline" in line]
    assert len(points) == 3
    assert all(p.startswith("56.00,") and " " not in p for p in points)


def test_chart_is_deterministic():
    assert timeseries_chart(make_ts(), "t") == timeseries_chart(make_ts(), "t")


def test_chart_escapes_title():
    svg = timeseries_chart(make_ts(), "a<b&c")
    assert "a<b&c" not in svg
    assert "a&lt;b&amp;c" in svg
