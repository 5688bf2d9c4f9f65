import dataclasses

import pytest

from relaylab.model import ScenarioParams, SimConfig, Strategy, validate_params


class TestScenarioParams:
    def test_minimal_construction_uses_defaults(self):
        p = ScenarioParams(lam=1.0, t_m=1.0)
        assert (p.t_h, p.p_s, p.t_s) == (0.0, 0.0, 0.0)
        assert not p.stopping

    def test_full_construction(self):
        p = ScenarioParams(lam=0.5, t_m=2.0, t_h=0.05, p_s=0.3, t_s=1.5)
        assert p.stopping

    def test_frozen(self):
        p = ScenarioParams(lam=1.0, t_m=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.lam = 2.0

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"lam": -1.0, "t_m": 1.0}, "lam"),
            ({"lam": 1.0, "t_m": 0.0}, "t_m"),
            ({"lam": 1.0, "t_m": -2.0}, "t_m"),
            ({"lam": 1.0, "t_m": 1.0, "t_h": -0.1}, "t_h"),
            ({"lam": 1.0, "t_m": 1.0, "p_s": -0.2}, "p_s"),
            ({"lam": 1.0, "t_m": 1.0, "p_s": 1.2}, "p_s"),
            ({"lam": 1.0, "t_m": 1.0, "t_s": -1.0}, "t_s"),
            ({"lam": float("nan"), "t_m": 1.0}, "lam"),
            ({"lam": float("inf"), "t_m": 1.0}, "lam"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ScenarioParams(**kwargs)

    def test_zero_rate_gets_dedicated_message(self):
        with pytest.raises(ValueError, match="zero-rate"):
            ScenarioParams(lam=0.0, t_m=1.0)

    def test_bool_fields_rejected(self):
        with pytest.raises(ValueError):
            ScenarioParams(lam=True, t_m=1.0)

    def test_boundary_values_accepted(self):
        ScenarioParams(lam=1e-9, t_m=1e-9)
        ScenarioParams(lam=1.0, t_m=1.0, p_s=1.0, t_s=0.0)

    @pytest.mark.parametrize(
        "p_s,t_s,expected",
        [(0.0, 0.0, False), (0.5, 0.0, False), (0.0, 2.0, False), (0.5, 2.0, True)],
    )
    def test_stopping_needs_both_knobs(self, p_s, t_s, expected):
        assert ScenarioParams(lam=1.0, t_m=1.0, p_s=p_s, t_s=t_s).stopping is expected

    def test_validate_params_function(self):
        validate_params(ScenarioParams(lam=2.0, t_m=0.5))


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(rounds=10, seed=1)
        assert cfg.worker_hint == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0, "seed": 1},
            {"rounds": -5, "seed": 1},
            {"rounds": 2.5, "seed": 1},
            {"rounds": True, "seed": 1},
            {"rounds": 10, "seed": -1},
            {"rounds": 10, "seed": 2**64},
            {"rounds": 10, "seed": 1, "worker_hint": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_seed_bounds(self):
        SimConfig(rounds=1, seed=0)
        SimConfig(rounds=1, seed=2**64 - 1)


class TestStrategy:
    def test_wire_values(self):
        assert Strategy("sm") is Strategy.SM_SERVE_ALL
        assert Strategy("sc") is Strategy.SC_LATEST_AT_EXPIRY

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            Strategy("sx")
