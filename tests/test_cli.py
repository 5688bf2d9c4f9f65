import json
import math

import pytest

from relaylab import cli
from relaylab.cli import (
    CompareRow,
    UsageError,
    emit,
    hard_violations,
    main,
    parse_run_spec,
    row_to_dict,
    run_analytic,
    run_compare,
    run_sweep,
)
from relaylab.model import ScenarioParams, Strategy
from relaylab.numerics import QuadratureError


def make_row(**overrides):
    base = dict(
        lam=1.0, tm=1.0, th=0.0, ps=0.0, ts=0.0, strategy="sm",
        rounds=1000, seed=0, quantity="m_handoffs", analytic=1.5,
        method="closed_form", sim_mean=1.5, sim_ci95=0.01,
        abs_err=0.0, rel_err=0.0, tier="hard",
    )
    base.update(overrides)
    return CompareRow(**base)


class TestParsing:
    def test_full_flag_set(self):
        spec = parse_run_spec(
            [
                "compare", "--lambda", "2", "--tm", "0.5", "--th", "0.1",
                "--ps", "0.2", "--ts", "1.5", "--strategy", "sm",
                "--rounds", "500", "--seed", "42", "--format", "json",
                "--out", "/tmp/x.json",
            ]
        )
        assert spec.command == "compare"
        assert spec.params == ScenarioParams(lam=2.0, t_m=0.5, t_h=0.1, p_s=0.2, t_s=1.5)
        assert spec.strategy is Strategy.SM_SERVE_ALL
        assert (spec.rounds, spec.seed) == (500, 42)
        assert (spec.fmt, spec.out) == ("json", "/tmp/x.json")
        assert spec.grid is None

    def test_defaults(self):
        spec = parse_run_spec(["simulate", "--lambda", "1", "--tm", "1"])
        assert spec.params == ScenarioParams(lam=1.0, t_m=1.0)
        assert spec.strategy is Strategy.SM_SERVE_ALL
        assert spec.rounds == 100_000
        assert spec.seed == 0
        assert spec.fmt == "csv"
        assert spec.out is None
        assert spec.traces == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--tm", "1"],
            ["compare", "--lambda", "1"],
            ["simulate", "--lambda", "1", "--tm", "1", "--traces", "-2"],
            ["compare", "--lambda", "0", "--tm", "1"],
            ["compare", "--lambda", "1", "--tm", "-1"],
            ["compare", "--lambda", "1", "--tm", "1", "--ps", "1.5"],
            ["frobnicate", "--lambda", "1", "--tm", "1"],
        ],
    )
    def test_usage_errors(self, argv):
        with pytest.raises(UsageError):
            parse_run_spec(argv)

    def test_unknown_config_key(self):
        with pytest.raises(UsageError, match="unknown config keys"):
            parse_run_spec(["analytic"], config={"lambda": 1, "tm": 1, "mu": 3})

    def test_bad_strategy_and_format_from_config(self):
        with pytest.raises(UsageError, match="unknown strategy"):
            parse_run_spec(
                ["analytic"], config={"lambda": 1, "tm": 1, "strategy": "xx"}
            )
        with pytest.raises(UsageError, match="unknown format"):
            parse_run_spec(
                ["analytic"], config={"lambda": 1, "tm": 1, "format": "yaml"}
            )

    def test_array_outside_sweep_rejected(self):
        with pytest.raises(UsageError, match="sweep"):
            parse_run_spec(["compare"], config={"lambda": [1, 2], "tm": 1})

    def test_empty_axis_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            parse_run_spec(["sweep"], config={"lambda": [], "tm": 1})

    def test_non_numeric_axis_rejected(self):
        with pytest.raises(UsageError, match="non-numeric"):
            parse_run_spec(["sweep"], config={"lambda": ["fast"], "tm": 1})

    def test_precedence_config_then_file_then_flags(self, tmp_path):
        doc = tmp_path / "job.json"
        doc.write_text(json.dumps({"tm": 3.0, "seed": 7}))
        spec = parse_run_spec(
            ["simulate", "--config", str(doc), "--tm", "4"],
            config={"lambda": 1.0, "tm": 2.0, "seed": 5, "rounds": 50},
        )
        # lambda only in the config argument; tm overridden twice over;
        # seed comes from the file, rounds from the config argument
        assert spec.params.lam == 1.0
        assert spec.params.t_m == 4.0
        assert spec.seed == 7
        assert spec.rounds == 50

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            parse_run_spec(["analytic", "--config", str(tmp_path / "nope.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(UsageError, match="not valid JSON"):
            parse_run_spec(["analytic", "--config", str(bad)])
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(UsageError, match="JSON object"):
            parse_run_spec(["analytic", "--config", str(arr)])

    def test_sweep_grid_shape(self):
        spec = parse_run_spec(
            ["sweep"], config={"lambda": [2, 0.5, 1], "tm": [1], "ps": [0, 0.3]}
        )
        grid = dict(spec.grid)
        assert grid["lambda"] == (0.5, 1.0, 2.0)  # sorted ascending
        assert grid["tm"] == (1.0,)
        assert grid["ps"] == (0.0, 0.3)
        assert grid["th"] == (0.0,)
        n_points = 1
        for values in grid.values():
            n_points *= len(values)
        assert n_points == 6

    def test_sweep_validates_every_point_eagerly(self):
        with pytest.raises(UsageError, match="lam"):
            parse_run_spec(["sweep"], config={"lambda": [1, 0], "tm": 1})

    def test_sweep_rejects_latest_at_expiry_with_stopping(self):
        with pytest.raises(UsageError, match="no closed forms"):
            parse_run_spec(
                ["sweep", "--strategy", "sc"],
                config={"lambda": 1, "tm": 1, "ps": [0, 0.3], "ts": 2},
            )
        # stopping never active when every ts is zero
        spec = parse_run_spec(
            ["sweep", "--strategy", "sc"],
            config={"lambda": 1, "tm": 1, "ps": [0, 0.3], "ts": 0},
        )
        assert spec.command == "sweep"

    def test_compare_rejects_latest_at_expiry_with_stopping(self):
        argv = [
            "compare", "--lambda", "1", "--tm", "1",
            "--ps", "0.3", "--ts", "2", "--strategy", "sc",
        ]
        with pytest.raises(UsageError, match="no closed forms"):
            parse_run_spec(argv)
        # the simulator may still run it
        sim_argv = ["simulate"] + argv[1:]
        assert parse_run_spec(sim_argv).command == "simulate"


class TestCostBound:
    """Simulations whose expected arrival stock is too large are refused at
    parse time; nothing here simulates."""

    @pytest.mark.parametrize("argv", [
        # e^(3 * (1 + 5)) ~ 6.6e7 arrivals in a single round
        ["simulate", "--lambda", "3", "--tm", "1", "--ps", "0.5", "--ts", "5"],
        ["compare", "--lambda", "3", "--tm", "1", "--ps", "0.5", "--ts", "5",
         "--rounds", "1"],
        # e^8 ~ 3e3 per round is fine, 1e5 rounds of it is not
        ["compare", "--lambda", "4", "--tm", "2", "--rounds", "100000"],
    ])
    def test_refused(self, argv, capsys):
        with pytest.raises(UsageError, match="arrivals per round"):
            parse_run_spec(argv)
        assert main(argv) == 1
        assert "arrivals per round" in capsys.readouterr().err

    def test_sweep_refuses_on_any_grid_point(self):
        with pytest.raises(UsageError, match="arrivals per round"):
            parse_run_spec(["sweep", "--rounds", "1000"],
                           config={"lambda": [1.0, 20.0], "tm": 1.0})

    def test_stock_bound_counts_the_dwell_only_with_stopping_relays(self):
        # t_s alone does not lengthen the horizon when p_s = 0
        parse_run_spec(["simulate", "--lambda", "3", "--tm", "1", "--ts", "5",
                        "--rounds", "1000"])
        parse_run_spec(["simulate", "--lambda", "1", "--tm", "1", "--ps", "0.3",
                        "--ts", "4", "--rounds", "20000"])

    def test_analytic_is_never_refused(self):
        parse_run_spec(["analytic", "--lambda", "3", "--tm", "1", "--ps", "0.5",
                        "--ts", "5"])


class TestEmission:
    def test_csv_layout_and_rendering(self, capsys):
        emit([make_row(analytic=0.6321205588, sim_mean=None, sim_ci95=None,
                       abs_err=None, rel_err=None)], "csv", None)
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(cli._COLUMNS)
        cells = lines[1].split(",")
        assert cells[cli._COLUMNS.index("analytic")] == "0.632120559"
        assert cells[cli._COLUMNS.index("sim_mean")] == ""
        assert cells[cli._COLUMNS.index("rounds")] == "1000"

    def test_json_round_trips_full_precision(self, capsys):
        rows = [make_row(analytic=0.123456789012345678)]
        emit(rows, "json", None)
        loaded = json.loads(capsys.readouterr().out)
        assert loaded == [row_to_dict(r) for r in rows]
        assert loaded[0]["analytic"] == 0.123456789012345678

    def test_emit_to_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit([make_row()], "csv", str(path))
        assert path.read_text().startswith("lambda,tm,th")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit([], "csv", None)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit([make_row()], "tsv", None)


class TestAnalyticCommand:
    def test_report_rows(self):
        spec = parse_run_spec(["analytic", "--lambda", "1", "--tm", "1"])
        rows = run_analytic(spec)
        names = [r.quantity for r in rows]
        assert "p_v" in names and "e_m_sc" in names and "r2_sm_stop" in names
        by_name = {r.quantity: r for r in rows}
        assert by_name["p_v"].analytic == pytest.approx(0.36787944117144233)
        assert by_name["t1_closed_deviation"].analytic < 1e-9
        assert by_name["e_m_sm_stop_sum"].method == "series_sum"
        assert all(r.sim_mean is None and r.rel_err is None for r in rows)

    def test_overflowing_quantities_are_empty_and_noted(self, capsys):
        assert main(["analytic", "--lambda", "800", "--tm", "1", "--format", "json"]) == 0
        captured = capsys.readouterr()
        rows = {r["quantity"]: r["analytic"] for r in json.loads(captured.out)}
        assert rows["p_v"] == 0.0
        assert rows["e_tau1_sc"] == pytest.approx(1.0 - 1.0 / 800.0)
        empty = [q for q, v in rows.items() if v is None]
        assert {"e_m_sm", "e_m_sc", "e_t1_sc_closed", "e_m_sm_stop_sum"} <= set(empty)
        notes = captured.err.splitlines()
        assert len(notes) == len(empty)
        for q, note in zip(empty, notes):
            assert note.startswith(f"relaylab: note: {q} left empty: ")

    def test_stopping_series_answers_where_it_once_hit_a_cap(self, capsys):
        assert main(["analytic", "--lambda", "13", "--tm", "1", "--ps", "0.3",
                     "--ts", "2", "--format", "json"]) == 0
        captured = capsys.readouterr()
        rows = {r["quantity"]: r["analytic"] for r in json.loads(captured.out)}
        assert rows["e_m_sm_stop_sum"] == pytest.approx(3.2423426326336e8, rel=1e-12)
        assert rows["truncation_terms"] < 200
        assert captured.err == ""


class TestTimeUnit:
    """A scenario in another time unit, (lam c, t_m / c), has the same answers."""

    def test_compare_in_a_long_time_unit(self, capsys):
        # lam = t_m = 1 with the time unit shrunk by 1e9
        argv = ["--strategy", "sc", "--rounds", "2000", "--seed", "1", "--format", "json"]
        assert main(["compare", "--lambda", "1e-9", "--tm", "1e9", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        long_unit = json.loads(captured.out)
        assert main(["compare", "--lambda", "1", "--tm", "1", *argv]) == 0
        unit = json.loads(capsys.readouterr().out)
        times = {"first_service_offset", "first_gap_offset", "t2_duration", "t1_duration"}
        for row, want in zip(long_unit, unit):
            scale = 1e9 if row["quantity"] in times else 1.0
            assert row["analytic"] == pytest.approx(want["analytic"] * scale, rel=1e-12)

    def test_first_gap_quadrature_converges_over_a_long_window(self, capsys):
        assert main(["analytic", "--lambda", "5", "--tm", "1e5", "--format", "json"]) == 0
        captured = capsys.readouterr()
        rows = {r["quantity"]: r["analytic"] for r in json.loads(captured.out)}
        # E[t1] = t_m - 2 / lam once e^(-lam t_m) is negligible
        assert rows["e_t1_sc"] == pytest.approx(1e5 - 2.0 / 5.0, rel=1e-9)
        assert rows["e_unserved_per_handoff"] is not None
        assert "e_t1_sc left empty" not in captured.err
        assert "e_unserved_per_handoff left empty" not in captured.err


class TestCompareCommand:
    def test_plain_latest_at_expiry_tiers(self):
        spec = parse_run_spec(
            ["compare", "--lambda", "1", "--tm", "1", "--strategy", "sc",
             "--rounds", "20000", "--seed", "9"]
        )
        rows = run_compare(spec)
        tiers = {r.quantity: r.tier for r in rows}
        assert tiers["p_vertical"] == "hard"
        assert tiers["first_service_offset"] == "hard"
        assert tiers["t2_duration"] == "hard"
        assert tiers["t1_duration"] == "hard"
        assert tiers["r2"] == "hard"  # zero handoff cost
        assert tiers["first_gap_offset"] == "soft"
        assert tiers["m_handoffs"] == "soft"
        assert tiers["u_unserved"] == "soft"
        methods = {r.quantity: r.method for r in rows}
        assert methods["first_gap_offset"] == "quadrature"
        assert all(r.rel_err is not None for r in rows)
        assert not hard_violations(rows)

    def test_costed_ratio_is_soft(self):
        spec = parse_run_spec(
            ["compare", "--lambda", "0.5", "--tm", "2", "--th", "0.1",
             "--strategy", "sc", "--rounds", "5000", "--seed", "12"]
        )
        rows = run_compare(spec)
        r2 = next(r for r in rows if r.quantity == "r2")
        assert r2.tier == "soft"

    def test_stopping_serve_all_rows(self):
        spec = parse_run_spec(
            ["compare", "--lambda", "1", "--tm", "1", "--ps", "0.3",
             "--ts", "2", "--strategy", "sm", "--rounds", "20000", "--seed", "9"]
        )
        rows = run_compare(spec)
        m_rows = [r for r in rows if r.quantity == "m_handoffs"]
        assert sorted(r.method for r in m_rows) == ["geometric", "series_sum"]
        assert all(r.tier == "soft" for r in m_rows)
        # the unserved count has no closed form here, so no row at all
        assert not [r for r in rows if r.quantity == "u_unserved"]
        assert all(r.rel_err is not None for r in rows)
        hard = {r.quantity for r in rows if r.tier == "hard"}
        assert hard == {"p_vertical", "t1_duration"}


class TestGate:
    def test_within_three_se_passes(self):
        row = make_row(analytic=1.0, sim_mean=1.01, sim_ci95=0.0098,
                       abs_err=0.01, rel_err=0.01, tier="hard")
        assert hard_violations([row]) == []

    def test_beyond_three_se_flagged(self):
        row = make_row(analytic=1.0, sim_mean=1.1, sim_ci95=0.0098,
                       abs_err=0.1, rel_err=0.1, tier="hard")
        assert hard_violations([row]) == [row]

    def test_soft_rows_never_gate(self):
        row = make_row(analytic=1.0, sim_mean=5.0, sim_ci95=0.0001,
                       abs_err=4.0, rel_err=4.0, tier="soft")
        assert hard_violations([row]) == []

    def test_incomplete_rows_skipped(self):
        row = make_row(sim_mean=None, sim_ci95=None, abs_err=None, rel_err=None)
        assert hard_violations([row]) == []

    def test_empty_analytic_cell_flagged(self):
        row = make_row(analytic=None, sim_mean=1.0, abs_err=None, rel_err=None)
        assert hard_violations([row]) == [row]

    def test_exact_zero_error_rows_pass_despite_zero_width(self):
        row = make_row(analytic=0.0, sim_mean=0.0, sim_ci95=0.0,
                       abs_err=0.0, rel_err=0.0, tier="hard")
        assert hard_violations([row]) == []


def _sweep(argv, config, out):
    """Run a sweep through main with its grid in a config document."""
    doc = out.with_name(out.name + ".grid.json")
    doc.write_text(json.dumps(config))
    assert main([*argv, "--config", str(doc), "--out", str(out)]) == 0


class TestSweep:
    def test_points_in_order_with_stepped_seeds(self, tmp_path):
        out = tmp_path / "sweep.json"
        _sweep(
            ["sweep", "--strategy", "sc", "--rounds", "2000", "--seed", "5",
             "--format", "json"],
            {"lambda": [0.5, 1.0], "tm": 1, "th": [0.0, 0.05]}, out,
        )
        rows = json.loads(out.read_text())
        points = []
        for r in rows:
            key = (r["lambda"], r["th"], r["seed"])
            if key not in points:
                points.append(key)
        assert points == [
            (0.5, 0.0, 5), (0.5, 0.05, 6), (1.0, 0.0, 7), (1.0, 0.05, 8),
        ]
        assert all(r["rel_err"] is not None for r in rows)
        assert out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "sweep", "--strategy", "sm", "--rounds", "3000", "--seed", "21",
            "--format", "json",
        ]
        config = {"lambda": [1.0, 2.0], "tm": 1}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _sweep(argv, config, a)
        _sweep(argv, config, b)
        assert a.read_bytes() == b.read_bytes()

    def test_returns_rows_without_writing(self, tmp_path):
        out = tmp_path / "never.csv"
        spec = parse_run_spec(
            ["sweep", "--rounds", "500", "--out", str(out)],
            config={"lambda": [1.0, 2.0], "tm": 1},
        )
        assert {r.lam for r in run_sweep(spec)} == {1.0, 2.0}
        assert not out.exists()


class TestMain:
    def test_success_exit(self, capsys):
        code = main(
            ["compare", "--lambda", "1", "--tm", "1", "--strategy", "sm",
             "--rounds", "20000", "--seed", "9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda,tm,th")

    def test_usage_exit(self, capsys):
        assert main(["compare", "--tm", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parser_is_built_once(self, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "_build_parser", rebuilt)
        assert main(["analytic", "--lambda", "1", "--tm", "1"]) == 0
        assert main(["analytic", "--lambda", "2", "--tm", "1"]) == 0

    @pytest.mark.parametrize("strategy, closed_form", [
        ("sm", "p_vertical_hat"),
        ("sc", "p_vertical"),
    ])
    def test_gate_exit(self, capsys, monkeypatch, strategy, closed_form):
        # forcing the no-relay closed form to 0.9 (true value e^-1) must trip
        # the gate; the patch lands after import, so the table must look it
        # up at call time
        monkeypatch.setattr(cli.analytic, closed_form, lambda params, *j: 0.9)
        code = main(
            ["compare", "--lambda", "1", "--tm", "1", "--strategy", strategy,
             "--rounds", "5000", "--seed", "9"]
        )
        assert code == 2
        assert "hard-tier violation" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, closed_form, field", [
        ("sm", "p_vertical_hat", "p_v_hat_1"),
        ("sc", "p_vertical", "p_v"),
    ])
    def test_gate_exit_on_empty_hard_cell(self, capsys, monkeypatch, strategy,
                                          closed_form, field):
        # a hard row the report cannot evaluate has nothing to confirm: it
        # is left empty with its note, and it fails the gate
        monkeypatch.setattr(cli.analytic, closed_form, lambda params, *j: math.nan)
        code = main(
            ["compare", "--lambda", "1", "--tm", "1", "--strategy", strategy,
             "--rounds", "5000", "--seed", "9"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"relaylab: note: {field} left empty: not finite (nan)" in err
        assert "hard-tier violation: p_vertical" in err

    def test_compare_and_sweep_note_each_failed_field_once(self, capsys, monkeypatch):
        def stuck(*args):
            raise QuadratureError("stuck", 0.0)

        monkeypatch.setattr(cli.analytic, "integrate", stuck)
        argv = ["--lambda", "1", "--tm", "1", "--strategy", "sc", "--rounds", "500",
                "--format", "json"]
        assert main(["compare", *argv]) == 0
        captured = capsys.readouterr()
        rows = {r["quantity"]: r["analytic"] for r in json.loads(captured.out)}
        # the unserved count reads e_m_sc too, which is noted once
        assert [q for q, v in rows.items() if v is None] == [
            "first_gap_offset", "m_handoffs", "u_unserved"]
        assert captured.err.splitlines() == [
            "relaylab: note: e_t1_sc left empty: stuck",
            "relaylab: note: e_m_sc left empty: stuck",
        ]
        assert main(["sweep", *argv, "--th", "0.1"]) == 0
        notes = capsys.readouterr().err.splitlines()
        assert [n.split(":")[2] for n in notes] == [
            " e_t1_sc left empty", " e_m_sc left empty", " r2_sc left empty"]

    def test_unwritable_out_exit(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(
            ["analytic", "--lambda", "1", "--tm", "1", "--out", str(target)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_simulate_with_trace_sidecar(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--lambda", "1", "--tm", "1", "--strategy", "sc",
             "--rounds", "1000", "--seed", "3", "--traces", "4",
             "--out", str(out)]
        )
        assert code == 0
        sidecar = tmp_path / "sim.csv.traces.jsonl"
        lines = sidecar.read_text().splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["round"] == i
            assert rec["m_handoffs"] == len(rec["service_durations"])
            assert rec["steps"][-1]["arrival_count"] == 0

    def test_simulate_emits_sim_only_rows(self, capsys):
        code = main(
            ["simulate", "--lambda", "1", "--tm", "1", "--ps", "0.3",
             "--ts", "2", "--rounds", "2000", "--seed", "6",
             "--format", "json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        names = {r["quantity"] for r in rows}
        # simulation output keeps quantities with no analytic counterpart
        assert "u_unserved" in names
        assert all(r["analytic"] is None for r in rows)

    def test_experimental_combination_flagged_in_output(self, capsys):
        code = main(
            ["simulate", "--lambda", "1", "--tm", "1", "--ps", "0.3",
             "--ts", "2", "--strategy", "sc", "--rounds", "1000",
             "--seed", "2", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        flags = [r for r in rows if r["quantity"] == "experimental_flag"]
        assert len(flags) == 1 and flags[0]["sim_mean"] == 1.0
