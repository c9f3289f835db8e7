"""Tests for the heterogeneous-cost scenario library and its CLI surface."""

import pytest

from repro.analysis.scenarios import (
    SCENARIOS,
    Scenario,
    available_scenarios,
    build_scenario,
    default_t_grid,
    scenario_from_params,
)
from repro.analysis.weighted_store import WeightedStore
from repro.cli import main
from repro.costmodels import PerEdgeCost, PerPlayerCost


class TestScenarioFactories:

    def test_registry_names(self):
        assert available_scenarios() == sorted(SCENARIOS)
        assert {
            "two_tier_isp",
            "hub_discounted",
            "line_metric",
            "random_weights",
        } <= set(SCENARIOS)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            build_scenario("free_lunch", 5)

    def test_two_tier_structure(self):
        scenario = build_scenario(
            "two_tier_isp", 6, core=2, core_alpha=0.5, stub_alpha=2.0
        )
        model = scenario.model
        assert isinstance(model, PerPlayerCost)
        assert model.weight(0, 5) == 0.5
        assert model.weight(1, 0) == 0.5
        assert model.weight(2, 0) == 2.0
        with pytest.raises(ValueError):
            build_scenario("two_tier_isp", 4, core=5)

    def test_hub_discount_structure(self):
        scenario = build_scenario(
            "hub_discounted", 5, hub=1, alpha=2.0, discount=0.5
        )
        model = scenario.model
        assert isinstance(model, PerEdgeCost)
        assert model.weight(1, 3) == 1.0 == model.weight(3, 1)
        assert model.weight(0, 3) == 2.0

    def test_line_metric_structure(self):
        model = build_scenario("line_metric", 5, alpha=0.5).model
        assert model.weight(0, 4) == 2.0
        assert model.weight(2, 3) == 0.5
        assert model.weight(3, 2) == 0.5

    def test_random_weights_determinism(self):
        a = build_scenario("random_weights", 6, seed=4).model
        b = build_scenario("random_weights", 6, seed=4).model
        c = build_scenario("random_weights", 6, seed=5).model
        assert a.weights == b.weights
        assert a.weights != c.weights
        assert all(
            0.5 <= a.weight(i, j) <= 2.0 for i in range(6) for j in range(6) if i != j
        )

    def test_default_t_grid(self):
        grid = default_t_grid(6, 10)
        assert len(grid) == 10
        assert grid[0] == pytest.approx(0.2)
        assert grid[-1] == pytest.approx(36.0)


class TestParamsRoundTrip:
    """Scenario.params is the single source of truth for reproduction."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_registry_entry_roundtrips_bit_for_bit(self, name, seed):
        """Regression: ``seed`` used to live outside params, so a recipe
        round trip re-applied the factory default and rebuilt a different
        weight matrix."""
        scenario = build_scenario(name, 6, seed=seed)
        for key in ("name", "n", "seed"):
            assert key in scenario.params, key
        assert scenario.params["seed"] == seed
        rebuilt = scenario_from_params(scenario.params)
        assert rebuilt.name == scenario.name
        assert rebuilt.n == scenario.n
        assert rebuilt.params == scenario.params
        # Bit-for-bit: every coefficient of the weight matrix is identical.
        assert rebuilt.model.matrix(6) == scenario.model.matrix(6)

    def test_roundtrip_preserves_non_default_family_params(self):
        scenario = build_scenario(
            "random_weights", 5, seed=3, low=0.25, high=9.0
        )
        rebuilt = scenario_from_params(scenario.params)
        assert rebuilt.params["low"] == 0.25 and rebuilt.params["high"] == 9.0
        assert rebuilt.model.weights == scenario.model.weights

    def test_build_scenario_accepts_full_recipe(self):
        scenario = build_scenario("line_metric", 4, alpha=2.5)
        again = build_scenario(scenario.name, scenario.n, **scenario.params)
        assert again.params == scenario.params

    def test_conflicting_recipe_rejected(self):
        scenario = build_scenario("line_metric", 4)
        with pytest.raises(ValueError):
            build_scenario("line_metric", 5, **scenario.params)
        with pytest.raises(ValueError):
            build_scenario("two_tier_isp", 4, **scenario.params)

    def test_params_missing_identity_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_params({"seed": 0, "alpha": 1.0})

    def test_scenario_checks_param_mirrors(self):
        from repro.costmodels import UniformCost

        with pytest.raises(ValueError):
            Scenario(
                name="x", description="", n=4, model=UniformCost(1.0),
                params={"name": "y", "n": 4},
            )


class TestScenarioSweep:

    def test_sweep_shapes_and_monotone_links(self):
        store = WeightedStore.from_scenario(build_scenario("two_tier_isp", 5))
        result = store.aggregates(default_t_grid(5, 6))
        assert len(result["ts"]) == 6
        assert len(store) == 21  # connected classes on 5 vertices
        assert len(result["bcg_counts"]) == 6
        # Cheap links: the complete graph is the unique stable topology at
        # tiny scales; expensive links thin the stable networks out.
        assert result["average_links"][0] == 10.0
        finite = [x for x in result["average_links"] if x == x]
        assert finite[0] >= finite[-1]

    def test_sweep_accepts_explicit_grid(self):
        store = WeightedStore.from_scenario(build_scenario("line_metric", 4))
        result = store.aggregates([0.5, 2.0])
        assert result["ts"] == [0.5, 2.0]
        assert len(result["bcg_counts"]) == 2


class TestScenariosCLI:

    def test_list(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        output = capsys.readouterr().out
        assert "two_tier_isp" in output and "random_weights" in output

    def test_sweep_table(self, capsys):
        assert main(["scenarios", "--name", "two_tier_isp", "--n", "5", "--grid", "6"]) == 0
        output = capsys.readouterr().out
        assert "scenario two_tier_isp: n = 5" in output
        assert "per-player cost model" in output
        assert "#stable_bcg" in output

    def test_sweep_with_ucg_column(self, capsys):
        exit_code = main(
            [
                "scenarios",
                "--name",
                "random_weights",
                "--n",
                "4",
                "--grid",
                "4",
                "--seed",
                "1",
                "--ucg",
            ]
        )
        assert exit_code == 0
        assert "#nash_ucg" in capsys.readouterr().out

    def test_missing_name(self, capsys):
        assert main(["scenarios"]) == 2
        assert "one of --list, --name and --load" in capsys.readouterr().err

    def test_unknown_name(self, capsys):
        assert main(["scenarios", "--name", "free_lunch", "--n", "5"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_too_few_players(self, capsys):
        assert main(["scenarios", "--name", "line_metric", "--n", "1"]) == 2
        assert "at least two players" in capsys.readouterr().err

    def test_save_then_load_artifact(self, capsys, tmp_path):
        path = str(tmp_path / "w4.npz")
        assert main(
            ["scenarios", "--name", "random_weights", "--n", "4",
             "--seed", "3", "--grid", "4", "--save", path]
        ) == 0
        saved = capsys.readouterr().out
        assert f"saved to {path}" in saved and "#stable_bcg" in saved
        assert main(["scenarios", "--load", path, "--grid", "4"]) == 0
        loaded = capsys.readouterr().out
        assert "weighted store: n = 4" in loaded
        assert "scenario = random_weights (seed 3)" in loaded
        # Same grid, same columns: the table rows must be identical.
        assert saved.split("\n\n")[-1] == loaded.split("\n\n")[-1]

    def test_load_rejects_build_flags(self, capsys, tmp_path):
        """--load must not silently ignore --n/--seed/--jobs."""
        path = str(tmp_path / "w4.npz")
        assert main(
            ["scenarios", "--name", "line_metric", "--n", "4", "--save", path]
        ) == 0
        capsys.readouterr()
        for flags in (
            ["--n", "7"],
            ["--seed", "5"],
            ["--jobs", "2"],
            ["--format", "dir"],
        ):
            assert main(["scenarios", "--load", path] + flags) == 2
            err = capsys.readouterr().err
            assert "takes no" in err and flags[0] in err

    def test_load_rejects_garbage(self, capsys, tmp_path):
        path = tmp_path / "nonsense.npz"
        path.write_bytes(b"not an artifact")
        assert main(["scenarios", "--load", str(path)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_save_persists_ucg_columns(self, capsys, tmp_path):
        from repro.analysis.weighted_store import WeightedStore

        path = str(tmp_path / "x.npz")
        assert main(
            ["scenarios", "--name", "line_metric", "--n", "4",
             "--ucg", "--save", path, "--grid", "3"]
        ) == 0
        assert "#nash_ucg" in capsys.readouterr().out
        assert WeightedStore.load(path).include_ucg


class TestEnsembleCLI:

    def test_summary_table(self, capsys, tmp_path):
        save_dir = str(tmp_path / "draws")
        exit_code = main(
            ["ensemble", "--scenario", "random_weights", "--n", "4",
             "--draws", "3", "--seed", "2", "--grid", "4",
             "--save-dir", save_dir]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ensemble random_weights: n = 4, 3 draws (seeds 2..4)" in output
        assert "median" in output and "q75" in output
        assert "artifacts: 3" in output

    def test_unknown_scenario(self, capsys):
        assert main(["ensemble", "--scenario", "free_lunch"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_rejects_zero_draws(self, capsys):
        assert main(["ensemble", "--draws", "0"]) == 2
        assert "at least one draw" in capsys.readouterr().err
