"""Tests for the study protocol, extension experiments and stride
imputation."""

import numpy as np
import pytest

from repro.experiments import extensions, study


class TestStrideImputation:
    def test_distance_covers_all_counted_steps(self, user):
        """Every counted step carries a stride (solved or imputed)."""
        from repro.core.pipeline import PTrack
        from repro.simulation.routes import paper_route, walk_route

        rng = np.random.default_rng(59)
        trace, _ = walk_route(user, paper_route(), rng=rng)
        result = PTrack(profile=user.profile).track(trace)
        assert len(result.strides) >= 0.95 * result.step_count

    def test_imputed_strides_flagged(self, user):
        from repro.core.pipeline import PTrack
        from repro.simulation.routes import paper_route, walk_route

        rng = np.random.default_rng(59)
        trace, _ = walk_route(user, paper_route(), rng=rng)
        result = PTrack(profile=user.profile).track(trace)
        imputed = [s for s in result.strides if s.bounce_m is None]
        solved = [s for s in result.strides if s.bounce_m is not None]
        assert solved  # the bulk is genuinely solved
        if imputed:
            median = float(np.median([s.length_m for s in solved]))
            for s in imputed:
                assert s.length_m == pytest.approx(median)


class TestStudy:
    def test_daily_session_structure(self, user, rng):
        session = study.daily_session(user, rng, scale=0.4)
        kinds = {s.kind for s in session.segments}
        assert len(session.segments) >= 8
        assert session.true_step_count > 50
        from repro.types import ActivityKind

        assert ActivityKind.WALKING in kinds
        assert ActivityKind.STEPPING in kinds
        assert ActivityKind.EATING in kinds

    def test_run_study_small(self):
        results, table = study.run_study(n_users=1, n_days=1, scale=0.4)
        by_name = {r.counter: r for r in results}
        assert set(by_name) == {"gfit", "mtage", "autocorr", "scar", "ptrack"}
        assert by_name["ptrack"].error_rate < 0.08
        assert by_name["gfit"].error_rate > by_name["ptrack"].error_rate
        assert "error rate" in table.render()


class TestExtensions:
    def test_counter_design_space_small(self):
        counts, _ = extensions.run_counter_design_space(duration_s=45.0)
        assert counts[("ptrack", "walking")] > 60
        assert counts[("ptrack", "gait-band spoofer")] <= 3
        assert counts[("periodicity", "gait-band spoofer")] > 30

    def test_adaptive_delta_helps(self):
        summary, _ = extensions.run_adaptive_delta(n_sessions=4)
        fixed_err = abs(summary["fixed"] - summary["true"]) / summary["true"]
        adaptive_err = abs(summary["adaptive"] - summary["true"]) / summary["true"]
        assert adaptive_err <= fixed_err

    def test_inertial_navigation_small(self):
        results, _ = extensions.run_inertial_navigation(seed=30)
        assert results["inertial_final_m"] < 15.0
