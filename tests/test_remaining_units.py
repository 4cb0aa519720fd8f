"""Direct tests for remaining public units: the exception hierarchy,
the CLI parser, and small extension smokes."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.exceptions import (
    CalibrationError,
    ConfigurationError,
    GeometryError,
    IntegrationError,
    ReproError,
    SignalError,
    SimulationError,
    TrainingError,
)
from repro.types import CycleClassification, GaitType


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            SignalError,
            IntegrationError,
            CalibrationError,
            GeometryError,
            SimulationError,
            TrainingError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_integration_error_is_signal_error(self):
        assert issubclass(IntegrationError, SignalError)


class TestCliParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands |= set(action.choices)
        assert {"demo", "figures", "navigate", "dataset", "track"} <= subcommands

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDataclassSurfaces:
    def test_cycle_classification_fields(self):
        c = CycleClassification(
            cycle_id=0,
            start_index=0,
            end_index=100,
            gait_type=GaitType.WALKING,
            offset=0.05,
            half_cycle_correlation=None,
            phase_difference_ok=None,
            steps_added=2,
        )
        assert c.gait_type is GaitType.WALKING
        assert c.steps_added == 2

    def test_navigation_report_surface(self, user):
        from repro.apps.deadreckoning import navigate_route
        from repro.core.pipeline import PTrack
        from repro.simulation.routes import paper_route, walk_route

        route = paper_route()
        rng = np.random.default_rng(3)
        trace, truth = walk_route(user, route, rng=rng)
        report = navigate_route(
            PTrack(profile=user.profile), trace, truth, route, rng=rng
        )
        assert report.true_distance_m > 100
        assert report.step_times.size == report.positions_m.shape[0]

    def test_fitness_report_surface(self, user, walk_trace):
        from repro.apps.fitness import FitnessTracker
        from repro.core.pipeline import PTrack

        tracker = FitnessTracker(PTrack(profile=user.profile))
        tracker.add_session(walk_trace[0])
        report = tracker.report()
        assert report.total_steps > 0
        assert report.active_time_s == pytest.approx(walk_trace[0].duration_s)


class TestExtensionSmokes:
    def test_attitude_pipeline_short(self):
        from repro.experiments.extensions import run_attitude_pipeline

        results, table = run_attitude_pipeline(duration_s=25.0)
        assert results["oracle_accuracy"] > 0.9
        assert "attitude" in table.render()

    def test_energy_tradeoff_short(self):
        from repro.experiments.extensions import run_energy_tradeoff

        results, table = run_energy_tradeoff(fix_intervals_s=(10.0, 40.0))
        assert results[("dead-reckon", 40.0)]["mean_error_m"] < results[
            ("hold", 40.0)
        ]["mean_error_m"]
        assert "strategy" in table.render()
