"""Tests for the command-line interface."""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


def test_list_option(capsys):
    assert main(["--list"]) == 0
    output = capsys.readouterr().out
    assert "figure1" in output and "prop5" in output


def test_no_arguments_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_experiment(capsys):
    assert main(["nonexistent"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_single_experiment_summary_only(capsys):
    exit_code = main(["lemma4", "--summary-only"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "lemma4" in output
    assert "claims reproduced" in output


def test_run_single_experiment_full_render(capsys):
    exit_code = main(["prop1"])
    output = capsys.readouterr().out
    assert exit_code == 0
    assert "Proposition 1" in output
    assert "[PASS]" in output


def test_import_loads_no_experiment_module():
    """The subcommands (``serve`` among them) never load the experiments."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; "
            "print([m for m in sys.modules if m.startswith('repro.experiments')])",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert loaded.stdout == "[]\n"


def test_parser_has_expected_flags():
    parser = build_parser()
    args = parser.parse_args(["--all", "--summary-only"])
    assert args.all and args.summary_only and args.experiments == []


class TestCensusSubcommand:

    def test_build_save_load_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "census4.npz")
        assert main(["census", "--n", "4", "--save", path]) == 0
        output = capsys.readouterr().out
        assert "census store: n = 4" in output
        assert f"saved to {path}" in output

        assert main(["census", "--load", path, "--grid", "4"]) == 0
        output = capsys.readouterr().out
        assert "census store: n = 4" in output
        assert "average_poa" in output

    def test_streamed_build_without_ucg(self, capsys):
        assert main(["census", "--n", "4", "--streamed", "--no-ucg", "--grid", "3"]) == 0
        output = capsys.readouterr().out
        assert "ucg = no" in output
        assert "BCG only" in output

    def test_requires_exactly_one_source(self, capsys):
        assert main(["census"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_dir_format_with_mmap(self, capsys, tmp_path):
        path = str(tmp_path / "census4_dir")
        assert main(["census", "--n", "4", "--no-ucg", "--save", path, "--format", "dir"]) == 0
        capsys.readouterr()
        assert main(["census", "--load", path, "--mmap"]) == 0
        assert "census store: n = 4" in capsys.readouterr().out

    def test_shard_dir_requires_streamed(self, capsys):
        assert main(["census", "--n", "4", "--shard-dir", "/tmp/x"]) == 2
        assert "--shard-dir requires --streamed" in capsys.readouterr().err

    def test_shard_knobs_require_streamed(self, capsys):
        for extra in (
            ["--shard-timeout", "5"],
            ["--shard-retries", "1"],
            ["--progress"],
        ):
            assert main(["census", "--n", "4"] + extra) == 2
            assert "requires --streamed" in capsys.readouterr().err

    def test_verify_reports_ok_on_a_healthy_build(self, capsys):
        assert main(["census", "--n", "4", "--streamed", "--verify"]) == 0
        output = capsys.readouterr().out
        assert "verify built in-process (n = 4): ok" in output

    def test_verify_catches_a_corrupted_artifact(self, capsys, tmp_path):
        from repro.engine.faults import flip_byte

        path = tmp_path / "census4_dir"
        assert main(
            ["census", "--n", "4", "--no-ucg", "--save", str(path), "--format", "dir"]
        ) == 0
        capsys.readouterr()
        assert main(["census", "--load", str(path), "--verify"]) == 0
        assert "checksum ok" in capsys.readouterr().out

        # Flip inside the data payload (a tiny .npy is mostly header).
        import os

        column = path / "dist_total.npy"
        flip_byte(str(column), offset=os.path.getsize(column) - 5)
        assert main(["census", "--load", str(path), "--verify"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err

    def test_progress_flag_streams_manifest_lines(self, capsys):
        assert main(["census", "--n", "4", "--streamed", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[shard]" in captured.err
        assert "done" in captured.err and "rate" in captured.err

    def test_load_errors_exit_cleanly(self, capsys, tmp_path):
        assert main(["census", "--load", str(tmp_path / "missing.npz")]) == 2
        assert "cannot load" in capsys.readouterr().err
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(b"PK\x03\x04 not actually a zip")
        assert main(["census", "--load", str(truncated)]) == 2
        assert "cannot load" in capsys.readouterr().err
        import numpy

        foreign = tmp_path / "foreign.npz"
        numpy.savez(str(foreign), data=numpy.arange(3))
        assert main(["census", "--load", str(foreign)]) == 2
        assert "cannot load" in capsys.readouterr().err


def test_scenarios_parser_has_expected_flags():
    from repro.cli import build_scenarios_parser

    parser = build_scenarios_parser()
    args = parser.parse_args(
        ["--name", "two_tier_isp", "--n", "6", "--grid", "4", "--seed", "7", "--ucg"]
    )
    assert args.name == "two_tier_isp"
    assert args.n == 6 and args.grid == 4 and args.seed == 7 and args.ucg


def test_scenarios_dispatch_from_main(capsys):
    assert main(["scenarios", "--list"]) == 0
    assert "line_metric" in capsys.readouterr().out


def test_scenarios_verify_requires_an_artifact(capsys):
    assert main(["scenarios", "--name", "line_metric", "--verify"]) == 2
    assert "--verify audits an artifact" in capsys.readouterr().err


def test_scenarios_verify_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "line4.npz")
    assert main(
        ["scenarios", "--name", "line_metric", "--n", "4", "--save", path,
         "--verify", "--grid", "3"]
    ) == 0
    output = capsys.readouterr().out
    assert f"verify {path}: ok" in output

    assert main(["scenarios", "--load", path, "--verify", "--grid", "3"]) == 0
    assert "checksum ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["scenarios", "--name", "random_weights", "--n", "3", "--grid", "0"],
        ["scenarios", "--name", "random_weights", "--n", "3", "--grid", "-3"],
        ["ensemble", "--scenario", "random_weights", "--n", "3", "--draws", "2",
         "--grid", "0"],
        ["ensemble", "--scenario", "random_weights", "--n", "3", "--draws", "2",
         "--grid", "-1"],
        ["census", "--n", "3", "--grid", "-2"],
    ],
    ids=["scenarios-0", "scenarios-neg", "ensemble-0", "ensemble-neg", "census-neg"],
)
def test_non_positive_grid_is_refused_before_any_work(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no build summary, scenario line or draw
    assert captured.err.count("\n") == 1 and "grid" in captured.err


def test_census_grid_zero_prints_no_table(capsys):
    assert main(["census", "--n", "3", "--grid", "0"]) == 0
    assert "grid points" not in capsys.readouterr().out


def test_grid_helpers_refuse_non_positive_sizes():
    from repro.analysis.ensembles import run_ensemble
    from repro.analysis.scenarios import default_t_grid
    from repro.analysis.sweeps import figure_cost_grid

    for make in (figure_cost_grid, default_t_grid):
        assert len(make(3, 1)) == 2  # one point still gives a 2-point grid
        for points in (0, -5):
            with pytest.raises(ValueError, match="at least one point"):
                make(3, points)
    with pytest.raises(ValueError, match="at least one point"):
        run_ensemble(scenario="random_weights", n=3, draws=2, grid=-5)


#: The ``scenarios`` commands whose stdout is pinned in
#: ``tests/data/golden_cli/scenarios_<name>.txt``, run in this order (the
#: ``--load`` lines read what the ``--save`` lines before them wrote).
#: ``{tmp}`` stands for a scratch directory, in the arguments and the output.
SCENARIOS_GOLDEN = (
    ("list", "--list"),
    ("two_tier_isp_n5", "--name two_tier_isp --n 5 --grid 6"),
    ("random_weights_n5_ucg", "--name random_weights --n 5 --grid 5 --seed 2 --ucg"),
    (
        "save_weighted5",
        "--name random_weights --n 5 --seed 2 --grid 5 --save {tmp}/weighted5.npz",
    ),
    ("load_weighted5", "--load {tmp}/weighted5.npz --grid 5"),
    (
        "save_wucg5",
        "--name random_weights --n 5 --ucg --save {tmp}/wucg5.npz --verify --grid 5",
    ),
    ("load_wucg5", "--load {tmp}/wucg5.npz --ucg --verify --grid 5"),
    (
        "save_weighted5v",
        "--name random_weights --n 5 --seed 2 --grid 5 "
        "--save {tmp}/weighted5v.npz --verify",
    ),
    ("hub_discounted_n6_ucg", "--name hub_discounted --n 6 --grid 8 --ucg"),
    ("line_metric_n6", "--name line_metric --n 6 --grid 7"),
    ("random_weights_n7", "--name random_weights --n 7 --seed 4 --grid 12"),
    ("two_tier_isp_n6_ucg_jobs2", "--name two_tier_isp --n 6 --grid 8 --ucg --jobs 2"),
)

#: The ``census`` commands whose stdout is pinned in
#: ``tests/data/golden_cli/census_<name>.txt``, with the same ordering and
#: ``{tmp}`` conventions: the build, ``--save``/``--save-deltas`` and
#: BCG-only branches and the ``--load`` path that answers through the query
#: service.
CENSUS_GOLDEN = (
    ("n5", "--n 5 --grid 6"),
    ("n5_bcg", "--n 5 --no-ucg --save {tmp}/b5.npz --grid 5"),
    ("save5", "--n 5 --save {tmp}/c5.npz --save-deltas {tmp}/d5.npz --grid 6"),
    (
        "load5_links",
        "--load {tmp}/c5.npz --quantity average_links "
        "--save-deltas {tmp}/d5b.npz --grid 6",
    ),
    ("load_bcg5", "--load {tmp}/b5.npz --grid 5"),
    ("n6_streamed_jobs2", "--n 6 --streamed --jobs 2 --grid 5"),
)

#: The ``ensemble`` commands of the CI smoke steps, pinned in
#: ``tests/data/golden_cli/ensemble_<name>.txt``: a ``--save-dir`` run and
#: its resume, then a ``--delta-cache`` build and its reuse.
ENSEMBLE_GOLDEN = (
    (
        "save_dir5",
        "--scenario random_weights --n 5 --draws 4 --seed 1 --grid 5 "
        "--jobs 2 --save-dir {tmp}/ensemble5",
    ),
    (
        "save_dir5_resume",
        "--scenario random_weights --n 5 --draws 4 --seed 1 --grid 5 "
        "--save-dir {tmp}/ensemble5",
    ),
    (
        "delta_cache5",
        "--scenario random_weights --n 5 --draws 6 --seed 1 --grid 5 "
        "--delta-cache {tmp}/deltas5 --batch-draws 3",
    ),
    (
        "delta_cache5_reuse",
        "--scenario random_weights --n 5 --draws 6 --seed 1 --grid 5 "
        "--delta-cache {tmp}/deltas5",
    ),
)

#: The ``stats`` renderings pinned in ``tests/data/golden_cli/stats_<name>.txt``.
#: Here ``{tmp}`` is the golden directory itself, which holds the rendered
#: snapshot (a ``census --n 4 --streamed --no-ucg --metrics-out`` run).
STATS_GOLDEN = (
    ("table", "{tmp}/snapshot_census4_streamed.json"),
    ("prom", "{tmp}/snapshot_census4_streamed.json --format prom"),
)

GOLDEN_CLI_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_cli")


def _golden_outputs(subcommand, commands, tmp):
    """Exit code and ``{tmp}``-normalised stdout of each pinned command."""
    outputs = {}
    for name, command in commands:
        argv = [subcommand] + command.format(tmp=tmp).split()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        outputs[name] = (code, stdout.getvalue().replace(tmp, "{tmp}"))
    return outputs


def _golden(subcommand, name):
    path = os.path.join(GOLDEN_CLI_DIR, f"{subcommand}_{name}.txt")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def scenarios_outputs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("golden_scenarios"))
    return _golden_outputs("scenarios", SCENARIOS_GOLDEN, tmp)


@pytest.fixture(scope="module")
def census_outputs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("golden_census"))
    return _golden_outputs("census", CENSUS_GOLDEN, tmp)


@pytest.fixture(scope="module")
def ensemble_outputs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("golden_ensemble"))
    return _golden_outputs("ensemble", ENSEMBLE_GOLDEN, tmp)


@pytest.mark.parametrize("name", [name for name, _ in SCENARIOS_GOLDEN])
def test_scenarios_output_matches_golden(scenarios_outputs, name):
    """Every ``scenarios`` table, header and verify line prints as pinned."""
    assert scenarios_outputs[name] == (0, _golden("scenarios", name))


@pytest.mark.parametrize("name", [name for name, _ in CENSUS_GOLDEN])
def test_census_output_matches_golden(census_outputs, name):
    """Every ``census`` summary, save line and grid table prints as pinned."""
    assert census_outputs[name] == (0, _golden("census", name))


@pytest.mark.parametrize("name", [name for name, _ in ENSEMBLE_GOLDEN])
def test_ensemble_output_matches_golden(ensemble_outputs, name):
    """The ensemble header, resume tally and stats table print as pinned."""
    assert ensemble_outputs[name] == (0, _golden("ensemble", name))


@pytest.mark.parametrize("name", [name for name, _ in STATS_GOLDEN])
def test_stats_output_matches_golden(name):
    """A committed snapshot renders as the pinned table and exposition."""
    outputs = _golden_outputs("stats", STATS_GOLDEN, GOLDEN_CLI_DIR)
    assert outputs[name] == (0, _golden("stats", name))


class TestUcgFlags:

    def test_census_includes_ucg_by_default(self, capsys):
        assert main(["census", "--n", "4", "--grid", "3"]) == 0
        assert "ucg = yes" in capsys.readouterr().out

    def test_census_explicit_ucg_flag(self, capsys):
        assert main(["census", "--n", "4", "--ucg", "--grid", "3", "--verify"]) == 0
        output = capsys.readouterr().out
        assert "ucg = yes" in output
        assert ": ok" in output  # --verify audits the UCG CSR columns too

    def test_scenarios_ucg_save_load_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "ucg4.npz")
        assert main(
            ["scenarios", "--name", "random_weights", "--n", "4", "--ucg",
             "--save", path, "--verify", "--grid", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "#nash_ucg" in output
        assert f"verify {path}: ok" in output

        assert main(
            ["scenarios", "--load", path, "--ucg", "--verify", "--grid", "3"]
        ) == 0
        output = capsys.readouterr().out
        assert "#nash_ucg" in output
        assert "ucg_lo" in output  # the artifact carries the UCG columns
        assert "checksum ok" in output

    def test_scenarios_load_without_ucg_columns_errors(self, capsys, tmp_path):
        path = str(tmp_path / "bcg4.npz")
        assert main(
            ["scenarios", "--name", "random_weights", "--n", "4",
             "--save", path, "--grid", "3"]
        ) == 0
        capsys.readouterr()
        assert main(["scenarios", "--load", path, "--ucg", "--grid", "3"]) == 2
        assert "no UCG columns" in capsys.readouterr().err


class TestEnsembleSubcommand:

    def test_summary_reports_resume_tally(self, capsys):
        assert main(
            ["ensemble", "--n", "4", "--draws", "3", "--grid", "4"]
        ) == 0
        output = capsys.readouterr().out
        assert "3 draws" in output
        assert "resumed 0, computed 3" in output

    def test_delta_cache_flag_builds_then_reuses(self, capsys, tmp_path):
        cache = str(tmp_path / "deltas")
        argv = [
            "ensemble", "--n", "4", "--draws", "2", "--grid", "4",
            "--delta-cache", cache,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert f"delta cache: {cache}" in first
        import os

        assert os.path.isdir(cache)
        stamp = os.path.getmtime(os.path.join(cache, "meta.json"))
        assert main(argv) == 0
        capsys.readouterr()
        assert os.path.getmtime(os.path.join(cache, "meta.json")) == stamp

    def test_batch_draws_flag_changes_nothing(self, capsys):
        assert main(
            ["ensemble", "--n", "4", "--draws", "4", "--grid", "4",
             "--batch-draws", "1"]
        ) == 0
        small = capsys.readouterr().out
        assert main(
            ["ensemble", "--n", "4", "--draws", "4", "--grid", "4",
             "--batch-draws", "4"]
        ) == 0
        large = capsys.readouterr().out
        assert small == large

    def test_rejects_bad_batch_draws(self, capsys):
        assert main(
            ["ensemble", "--n", "4", "--draws", "2", "--batch-draws", "0"]
        ) == 2
        assert "--batch-draws" in capsys.readouterr().err

    def test_save_dir_resume_summary(self, capsys, tmp_path):
        save_dir = str(tmp_path / "draws")
        argv = [
            "ensemble", "--n", "4", "--draws", "2", "--grid", "4",
            "--save-dir", save_dir,
        ]
        assert main(argv) == 0
        assert "resumed 0, computed 2" in capsys.readouterr().out
        assert main(argv) == 0
        assert "resumed 2, computed 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--n", "4", "--save"],
            ["census", "--n", "4", "--no-ucg", "--save-deltas"],
            ["scenarios", "--name", "random_weights", "--n", "4", "--save"],
        ],
        ids=["census-save", "census-save-deltas", "scenarios-save"],
    )
    def test_unwritable_destination_fails_before_the_build(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        from repro.analysis.delta_store import DeltaStore
        from repro.analysis.store import CensusStore
        from repro.analysis.weighted_store import WeightedStore

        def no_build(*args, **kwargs):
            raise AssertionError("the build ran before the destination check")

        monkeypatch.setattr(CensusStore, "build", no_build)
        monkeypatch.setattr(DeltaStore, "build", no_build)
        monkeypatch.setattr(WeightedStore, "from_scenario", no_build)
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        path = str(blocker / "dir" / "x.npz")
        assert main(argv + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cannot save {path}: directory {blocker / 'dir'} is not writable\n"
        )

    def test_census_save_deltas(self, capsys, tmp_path):
        path = str(tmp_path / "deltas_n4.npz")
        assert main(
            ["census", "--n", "4", "--no-ucg", "--save-deltas", path]
        ) == 0
        output = capsys.readouterr().out
        assert "delta artifact" in output and f"saved to {path}" in output
        from repro.analysis.delta_store import DeltaStore

        assert len(DeltaStore.load(path)) == 6


class TestTelemetryCLI:
    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        from repro import obs

        previous = obs.set_metrics_enabled(True)
        obs.reset_telemetry()
        yield
        obs.reset_telemetry()
        obs.set_metrics_enabled(previous)

    def test_census_metrics_out_prometheus(self, capsys, tmp_path):
        path = str(tmp_path / "census.prom")
        assert main(
            ["census", "--n", "4", "--no-ucg", "--metrics-out", path]
        ) == 0
        capsys.readouterr()
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert "# TYPE repro_kernel_seconds histogram" in text
        assert 'repro_kernel_seconds_count{kernel="batch_stability_deltas"}' in text
        assert 'repro_kernel_graphs_total{kernel="batch_stability_deltas"} 6' in text

    def test_census_trace_prints_span_tree(self, capsys):
        assert main(["census", "--n", "4", "--no-ucg", "--trace"]) == 0
        err = capsys.readouterr().err
        assert "cli:census" in err
        assert "wall" in err and "count" in err

    def test_stats_renders_json_snapshot(self, capsys, tmp_path):
        path = str(tmp_path / "census.json")
        assert main(
            ["census", "--n", "4", "--no-ucg", "--metrics-out", path]
        ) == 0
        capsys.readouterr()
        assert main(["stats", path]) == 0
        table = capsys.readouterr().out
        assert "repro_kernel_graphs_total" in table
        assert "cli:census" in table  # span tree rides along in the snapshot
        assert main(["stats", path, "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_kernel_graphs_total counter" in prom

    def test_stats_rejects_non_snapshot_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        assert main(["stats", str(path)]) == 2
        assert "not a repro telemetry snapshot" in capsys.readouterr().err

    def test_stats_requires_its_file(self, capsys):
        # A fresh process's own registry holds nothing a user ran.
        with pytest.raises(SystemExit) as exit_info:
            main(["stats"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage" in captured.err and "FILE" in captured.err

    def test_scenarios_progress_requires_streamed(self, capsys):
        assert main(
            ["scenarios", "--name", "random_weights", "--progress"]
        ) == 2
        assert "--progress requires --streamed" in capsys.readouterr().err

    def test_scenarios_streamed_save_with_progress(self, capsys, tmp_path):
        path = str(tmp_path / "ws.npz")
        assert main(
            [
                "scenarios", "--name", "random_weights", "--n", "4",
                "--save", path, "--streamed", "--progress",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "saved to" in captured.out
        assert "[dshard]" in captured.err

    def test_shard_counters_match_manifest(self, capsys, tmp_path):
        import json as jsonlib

        shard_dir = str(tmp_path / "shards")
        path = str(tmp_path / "census.json")
        argv = [
            "census", "--n", "5", "--streamed", "--no-ucg",
            "--shard-dir", shard_dir, "--metrics-out", path,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        with open(f"{shard_dir}/manifest.json", encoding="utf-8") as handle:
            manifest = jsonlib.load(handle)
        with open(path, encoding="utf-8") as handle:
            snapshot = jsonlib.load(handle)
        series = {
            (entry["name"], entry["labels"].get("prefix")): entry.get("value")
            for entry in snapshot["metrics"]
        }
        assert series[("repro_shards_computed_total", "shard")] == manifest["computed"]
        assert series[("repro_shards_resumed_total", "shard")] == manifest["resumed"]
        assert series[("repro_shard_retries_total", "shard")] == manifest["retries"]


class TestZeroPlayerArtifacts:
    """An n = 0 artifact has no cost grid (its upper end is 0): the table
    request is refused with one stderr line and exit 2, not a traceback."""

    def test_census_build_grid(self, capsys):
        assert main(["census", "--n", "0", "--grid", "3"]) == 2
        assert capsys.readouterr().err == (
            "cannot tabulate --grid: an n = 0 census has no link-cost grid\n"
        )

    def test_census_load_grid(self, capsys, tmp_path):
        path = str(tmp_path / "c0.npz")
        assert main(["census", "--n", "0", "--save", path]) == 0
        capsys.readouterr()
        assert main(["census", "--load", path, "--grid", "3"]) == 2
        assert capsys.readouterr().err == (
            "cannot tabulate --grid: an n = 0 census has no link-cost grid\n"
        )

    def test_scenarios_load_grid(self, capsys, tmp_path):
        from repro.analysis.weighted_store import WeightedStore
        from repro.costmodels import UniformCost

        path = str(tmp_path / "w0.npz")
        WeightedStore.build(0, UniformCost(1.0)).save(path)
        assert main(["scenarios", "--load", path, "--grid", "3"]) == 2
        assert capsys.readouterr().err == (
            "cannot tabulate --grid: an n = 0 scenario has no scale grid\n"
        )


class TestVersionFlag:
    def test_version_flag_prints_the_library_version(self, capsys):
        from repro import __version__

        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


class TestServeAndQuery:
    """The 'query' client renders byte-identical tables to local commands."""

    @pytest.fixture()
    def served(self, tmp_path):
        from repro.analysis.store import CensusStore, clear_store_cache
        from repro.service import ArtifactCatalog, GridBatcher, QueryAPI
        from repro.service.http import start_in_thread

        from repro.analysis.scenarios import build_scenario
        from repro.analysis.weighted_store import WeightedStore

        clear_store_cache()
        CensusStore.build(4, include_ucg=True).save(str(tmp_path / "c4.npz"))
        WeightedStore.from_scenario(
            build_scenario("random_weights", 4, seed=2), include_ucg=True
        ).save(str(tmp_path / "w4.npz"))
        api = QueryAPI(
            ArtifactCatalog(root=str(tmp_path)),
            batcher=GridBatcher(),
        )
        server, thread = start_in_thread(api=api)
        yield f"http://127.0.0.1:{server.port}", str(tmp_path / "c4.npz")
        server.shutdown()
        thread.join(timeout=10)
        clear_store_cache()

    def test_query_grid_equals_census_load_grid(self, served, capsys):
        url, artifact = served
        assert main(["census", "--load", artifact, "--grid", "10"]) == 0
        local = capsys.readouterr().out
        assert (
            main([
                "query", "grid", "--url", url,
                "--artifact", "c4.npz", "--points", "10",
            ])
            == 0
        )
        remote = capsys.readouterr().out
        # census prints summary + blank line + figure; query prints the figure.
        assert remote == local.split("\n\n", 1)[1]

    #: The ``query`` commands pinned in
    #: ``tests/data/golden_cli/query_<name>.txt``, run against :meth:`served`
    #: with ``{url}`` and ``{tmp}`` normalised.  ``health`` prints the uptime,
    #: so only :meth:`test_query_health_and_artifacts` checks it.
    QUERY_GOLDEN = (
        ("artifacts", "artifacts"),
        ("summary_census", "summary --artifact c4.npz"),
        ("summary_weighted", "summary --artifact w4.npz"),
        ("grid", "grid --artifact c4.npz --quantity worst_poa --points 6"),
        ("windows_census", "windows --artifact c4.npz"),
        ("windows_weighted_ucg", "windows --artifact w4.npz --game ucg"),
        ("ensemble", "ensemble --n 4 --draws 3 --seed 1 --grid 4"),
    )

    @pytest.mark.parametrize("name,command", QUERY_GOLDEN)
    def test_query_output_matches_golden(self, served, name, command):
        url, artifact = served
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["query", *command.split(), "--url", url])
        output = stdout.getvalue()
        output = output.replace(os.path.dirname(artifact), "{tmp}")
        assert (code, output.replace(url, "{url}")) == (0, _golden("query", name))

    def test_query_health_and_artifacts(self, served, capsys):
        from repro import __version__

        url, _artifact = served
        assert main(["query", "health", "--url", url]) == 0
        assert __version__ in capsys.readouterr().out
        assert main(["query", "artifacts", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "c4.npz" in out and "census" in out

    def test_query_requires_artifact_for_grid(self, capsys):
        assert main(["query", "grid"]) == 2
        assert "--artifact" in capsys.readouterr().err

    def test_query_unreachable_server(self, capsys):
        assert (
            main(["query", "health", "--url", "http://127.0.0.1:9"]) == 2
        )
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_rejects_missing_directory(self, capsys, tmp_path):
        assert main(["serve", "--dir", str(tmp_path / "missing")]) == 2
        assert "does not exist" in capsys.readouterr().err
