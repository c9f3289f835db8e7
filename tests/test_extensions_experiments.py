"""Integration tests for the extension experiments (prop2, transfers, stability)."""

from repro.experiments import available_experiments, run_experiment
from repro.experiments import extensions


def test_extension_experiments_are_registered():
    ids = available_experiments()
    for expected in ("prop2", "ext_transfers", "ext_stability"):
        assert expected in ids


def test_proposition2_experiment_reproduces():
    for n in (5, 7):
        result = extensions.run_proposition2(census_n=n)
        assert result.all_passed, n
        assert result.tables


def test_transfers_experiment_reproduces():
    for n in (5, 7):
        result = extensions.run_transfers(n=n, alphas=(1.5, 3.0, 8.0))
        assert result.all_passed, n
        assert "transfers" in result.title


def test_price_of_stability_experiment_reproduces():
    for n in (5, 7):
        result = extensions.run_price_of_stability(n=n, alphas=(0.5, 2.0, 8.0))
        assert result.all_passed, n


def test_extension_experiments_run_via_registry():
    result = run_experiment("prop2")
    assert result.experiment_id == "prop2"


def test_dynamics_extension_experiment_reproduces():
    from repro.experiments import dynamics_extension

    result = dynamics_extension.run(n=4, alphas=(0.6, 2.0), epsilon=0.05)
    assert result.all_passed
    assert result.tables


def test_dynamics_extension_registered():
    assert "ext_dynamics" in available_experiments()
