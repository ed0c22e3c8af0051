import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockprop.benchmarks
import fockprop.cli
import fockprop.propagate
from fockprop import PolySymbol
from fockprop.benchmarks import coupled_quartic, quartic_oscillator, standard_configs
from fockprop.cli import (
    ARTIFACTS,
    KINDS,
    REPORT_FILES,
    BudgetError,
    ConfigError,
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    JSON_MAX_DEPTH,
    _write_artifact,
    _write_json,
    main,
    run_config,
    validate_config,
)
from fockprop.fock import FockBasis, coherent_vector
from fockprop.galerkin import ERROR_FLOOR, Flag, galerkin_sweeps, schrodinger_evolve
from fockprop.propagate import chernoff_slices, feynman_convergence_table
from fockprop.quantize import (
    antiwick_quantize_function,
    antiwick_quantize_poly,
    gauss_hermite_rule,
)
from fockprop.symbols import (
    PhaseGrid,
    conj_variable,
    from_term_list,
    infimum_estimate,
    to_term_list,
    variable,
)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def chernoff_config(**overrides):
    cfg = {
        "schema": 1,
        "kind": "chernoff-sweep",
        "d": 1,
        "M": 6,
        "Q": 8,
        "t": 0.5,
        "Ns": [8, 16],
        "symbol": to_term_list(quartic_oscillator()),
        "probes": [{"alpha": [[0.3, 0.0]], "beta": [[0.2, 0.1]]}],
        "halving_window": [1.6, 2.4],
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def multimode_chernoff_config(d, **overrides):
    """A chernoff sweep of the d-mode coupled quartic, probed near the vacuum."""
    point = [[0.1, 0.0]] + [[0.0, 0.0]] * (d - 1)
    return chernoff_config(
        d=d, symbol=to_term_list(coupled_quartic(modes=d)),
        probes=[{"alpha": point, "beta": point}], **overrides,
    )


class TestValidate:
    def test_reports_basis_size(self):
        info = validate_config({"schema": 1, "kind": "ccr-check", "d": 2, "M": 10})
        assert info["basis_size"] == 66

    def test_missing_kind_field_path(self):
        with pytest.raises(ConfigError, match="kind"):
            validate_config({"schema": 1, "d": 1, "M": 2})

    def test_budget_exceeded(self):
        with pytest.raises(BudgetError, match="135751"):
            validate_config({"schema": 1, "kind": "ccr-check", "d": 4, "M": 40})

    def test_wrong_type_diagnostic(self):
        with pytest.raises(ConfigError, match="t: expected"):
            validate_config(chernoff_config(t="soon"))

    def test_bad_probe_diagnostic(self):
        with pytest.raises(ConfigError, match=r"probes\[0\].alpha"):
            validate_config(chernoff_config(probes=[{"alpha": [[1.0]], "beta": [[0.0, 0.0]]}]))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            validate_config({"schema": 1, "kind": "frobnicate", "d": 1, "M": 2})

    def test_probe_tail_checked_up_front(self):
        cfg = chernoff_config(
            probes=[{"alpha": [[2.5, 0.0]], "beta": [[0.1, 0.0]]}]
        )
        with pytest.raises(ConfigError, match="raise M"):
            validate_config(cfg)

    def test_probe_tail_names_field_and_cutoff(self):
        cfg = chernoff_config(
            probes=[{"alpha": [[0.1, 0.0]], "beta": [[2.5, 0.0]]}]
        )
        with pytest.raises(ConfigError, match=r"^probes\[0\]\.beta: .*max_quanta >= \d+"):
            validate_config(cfg)


GALERKIN = standard_configs()["galerkin_sweep"]

# json reads NaN and Infinity; validate and run must both refuse them (exit 2)
NON_FINITE = {
    "t": lambda: chernoff_config(t=float("nan")),
    "probes[0].alpha[0]": lambda: chernoff_config(
        probes=[{"alpha": [[float("nan"), 0.0]], "beta": [[0.2, 0.1]]}]
    ),
    "t_grid": lambda: dict(standard_configs()["evolve"], t_grid=[0.0, float("inf")]),
    "symbol": lambda: dict(
        standard_configs()["evolve"],
        symbol=[{"kstar": [1], "k": [1], "re": float("nan"), "im": 0.0}],
    ),
    # keys no kind reads are echoed in report.json, so they must be finite too
    "note": lambda: dict(standard_configs()["ccr_check"], note=float("nan")),
    "notes.limits[1]": lambda: dict(
        standard_configs()["ccr_check"], notes={"limits": [0.0, float("-inf")]}
    ),
}

# the report's encoder refuses integers outside [-2**63, 2**64)
WIDE_INTEGERS = {
    "seed": lambda: dict(standard_configs()["ccr_check"], seed=10**23),
    "note": lambda: dict(standard_configs()["ccr_check"], note=10**30),
    "notes[0]": lambda: dict(standard_configs()["ccr_check"], notes=[-2**63 - 1]),
}


def assert_exit_config_error(tmp_path, capsys, command, cfg, field):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--out-dir", str(out)] if command == "run" else [])
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_exit_config_error(self, tmp_path, capsys, command, field):
        assert_exit_config_error(tmp_path, capsys, command, NON_FINITE[field](), field)

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field", sorted(WIDE_INTEGERS))
    def test_integer_past_64_bits(self, tmp_path, capsys, command, field):
        cfg = WIDE_INTEGERS[field]()
        assert_exit_config_error(tmp_path, capsys, command, cfg, field)

    @pytest.mark.parametrize("note", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["5000-digits", "nested-100000-deep"])
    def test_unreadable_number_or_nesting(self, tmp_path, capsys, note):
        path = tmp_path / "config.json"
        path.write_text('{"schema": 1, "kind": "ccr-check", "d": 1, "M": 4, '
                        f'"note": {note}}}')
        assert main(["validate", str(path)]) == EXIT_CONFIG
        assert "config error: : config is not valid JSON" in capsys.readouterr().err

    def test_nesting_the_report_can_echo(self, tmp_path, capsys):
        # the report holds the config one level down; orjson writes at most
        # JSON_MAX_DEPTH levels, so a config may nest one level fewer
        note = 0
        for _ in range(JSON_MAX_DEPTH - 2):
            note = [note]
        cfg = dict(standard_configs()["ccr_check"], note=note)
        report = run_config(cfg, tmp_path / "ok")
        assert json.loads((tmp_path / "ok" / "report.json").read_text()) == report
        cfg["note"] = [note]
        assert_exit_config_error(
            tmp_path, capsys, "run", cfg, "note" + "[0]" * (JSON_MAX_DEPTH - 2)
        )

    def test_library_run_refuses_before_it_writes(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^note: expected a finite number"):
            run_config(NON_FINITE["note"](), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_64_bit_extremes_run(self, tmp_path):
        cfg = dict(standard_configs()["ccr_check"], seed=2**64 - 1, note=[-2**63])
        report = run_config(cfg, tmp_path)
        assert strict_json((tmp_path / "report.json").read_text()) == report

    @pytest.mark.parametrize("field,cfg", [
        ("t", chernoff_config(t=10**400)),
        ("halving_window", chernoff_config(halving_window=[1.6, float("inf")])),
        ("symbol", dict(GALERKIN, symbol=[{"kstar": [1, 0, 0, 0], "k": [1, 0, 0, 0],
                                          "re": 10**400, "im": 0.0}])),
        ("radius", {"schema": 1, "kind": "lower-bound", "d": 1, "M": 6, "Q": 8,
                    "radius": float("-inf")}),
        ("slope_threshold", dict(GALERKIN, slope_threshold=float("nan"))),
        ("t_scaling.factor", dict(GALERKIN, t_scaling=dict(
            GALERKIN["t_scaling"], factor=float("nan")))),
        ("t_scaling.window", dict(GALERKIN, t_scaling=dict(
            GALERKIN["t_scaling"], window=[2.5, float("nan")]))),
        ("t_scaling.base_t", dict(GALERKIN, t_scaling=dict(
            GALERKIN["t_scaling"], base_t=float("inf")))),
        # json true and false are not numbers, though Python counts them as ints
        ("t_grid", dict(standard_configs()["evolve"], t_grid=[0.0, True])),
        ("probes[0].alpha[0]", chernoff_config(
            probes=[{"alpha": [[True, 0.0]], "beta": [[0.2, 0.1]]}])),
        ("halving_window", chernoff_config(halving_window=[True, 3])),
        ("initial.alpha[0]", dict(standard_configs()["evolve"], initial={
            "type": "coherent", "alpha": [[0.5, False]]})),
        ("t_scaling.window", dict(GALERKIN, t_scaling=dict(
            GALERKIN["t_scaling"], window=[True, 6.0]))),
        ("t_scaling.base_t", dict(GALERKIN, t_scaling=dict(
            GALERKIN["t_scaling"], base_t=True))),
    ])
    def test_number_fields(self, field, cfg):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
            validate_config(cfg)


class TestValidateD3Config:
    def test_d3_q12_under_grid_limit_is_valid(self, tmp_path, capsys):
        cfg = multimode_chernoff_config(3, M=5, Q=12)
        assert validate_config(cfg)["node_count"] == 2985984
        assert main(["validate", str(write_config(tmp_path, cfg))]) == EXIT_OK
        out = capsys.readouterr().out
        assert "quadrature nodes: 12^(2*3) = 2985984" in out
        assert "warning" not in out


class TestQuadratureAtFourModes:
    def test_smallest_d4_sweep_runs_to_a_report(self, tmp_path):
        # M = 4 is the least cutoff the probes' tails allow, Q = M + 1 the
        # least slice order: 5^8 = 390,625 nodes
        cfg = multimode_chernoff_config(4, M=4, Q=5, t=0.3, Ns=[4, 8])
        assert validate_config(cfg)["node_count"] == 390625
        report = run_config(cfg, tmp_path)
        assert report["passed"]
        assert json.loads((tmp_path / "report.json").read_text()) == report
        assert (tmp_path / "chernoff_table.csv").exists()

    def test_q7_sweep_validates(self):
        # 7^8 = 5,764,801 nodes, the largest d = 4 grid under the limit
        cfg = multimode_chernoff_config(4, M=6, Q=7)
        assert validate_config(cfg)["node_count"] == 5764801


class TestGridEvaluation:
    """Slices and lower bounds evaluate symbols on the product grid only."""

    @pytest.fixture
    def evaluate_calls(self, monkeypatch):
        calls = []
        original = PolySymbol.evaluate

        def counting(self, points):
            calls.append(1)
            return original(self, points)

        monkeypatch.setattr(PolySymbol, "evaluate", counting)
        return calls

    def test_chernoff_step(self, evaluate_calls):
        list(chernoff_slices(quartic_oscillator(), [0.05], FockBasis(1, 6),
                             gauss_hermite_rule(1, 8)))
        assert evaluate_calls == []

    def test_lower_bound_run(self, evaluate_calls, tmp_path):
        report = run_config(
            {"schema": 1, "kind": "lower-bound", "d": 2, "M": 3, "Q": 4,
             "count": 3, "seed": 3},
            tmp_path,
        )
        assert report["passed"]
        assert evaluate_calls == []


class TestRunKinds:
    def test_ccr_check_passes(self, tmp_path):
        report = run_config(
            {"schema": 1, "kind": "ccr-check", "d": 1, "M": 6}, tmp_path
        )
        assert report["passed"]
        check = report["checks"][0]
        assert check["name"] == "ccr-protected-defect"
        assert check["value"] <= 1e-12

    def test_symbol_roundtrip_seed7(self, tmp_path):
        report = run_config(
            {"schema": 1, "kind": "symbol-roundtrip", "d": 3, "degree": 6,
             "count": 50, "seed": 7},
            tmp_path,
        )
        assert report["passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["roundtrip-max-deviation"]["value"] <= 1e-12
        assert by_name["degree-law"]["passed"]

    def test_symbol_roundtrip_past_double_range_fails_its_check(self, tmp_path):
        # below the weight bound one conversion fits, but the round trip's
        # products can leave the doubles: a failed check, not a traceback
        cfg = {"schema": 1, "kind": "symbol-roundtrip", "d": 1, "degree": 333,
               "count": 10}
        assert validate_config(cfg)["degree"] == 333
        report = run_config(cfg, tmp_path)
        assert not report["passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        # past the doubles the deviation has no value; strict JSON holds null
        assert by_name["roundtrip-max-deviation"]["value"] is None
        assert strict_json((tmp_path / "report.json").read_text()) == report

    def test_lower_bound_past_double_range_runs_to_a_report(self, tmp_path):
        # sample 29 of seed 222 has a coefficient whose degree-333
        # conversion leaves the doubles; the run leaves it out of the
        # exact-route minimum instead of ending in a traceback
        cfg = {"schema": 1, "kind": "lower-bound", "d": 1, "M": 2, "Q": 3,
               "degree": 333, "count": 30, "seed": 222}
        validate_config(cfg)
        assert run_config(cfg, tmp_path)["passed"]

    @pytest.mark.parametrize("overrides", [
        {"radius": 1000.0},  # the phase-grid scan overflows
        {"Q": 100, "radius": 1.0},  # the node values overflow
    ], ids=["grid", "nodes"])
    def test_lower_bound_values_past_double_range_fail_the_check(
        self, tmp_path, capsys, overrides
    ):
        cfg = {"schema": 1, "kind": "lower-bound", "d": 1, "M": 6, "Q": 8,
               "degree": 300, "count": 3, "seed": 1, **overrides}
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == EXIT_CHECK_FAILED
        assert "FAILED: antiwick-min-eigenvalue" in capsys.readouterr().err
        report = strict_json((out / "report.json").read_text())
        assert report["checks"][0]["value"] is None
        # no sample reached the exact route
        assert report["metrics"]["poly_route_min_eigenvalue"] is None

    def test_lower_bound(self, tmp_path):
        report = run_config(
            {"schema": 1, "kind": "lower-bound", "d": 1, "M": 6, "Q": 8,
             "count": 5, "seed": 3},
            tmp_path,
        )
        assert report["passed"]

    def test_chernoff_sweep_writes_artifacts(self, tmp_path):
        report = run_config(chernoff_config(), tmp_path)
        assert report["passed"]
        table = (tmp_path / "chernoff_table.csv").read_text().splitlines()
        assert table[0] == "N,re,im,abs_error"
        assert len(table) == 3
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "timings.json").exists()

    def test_galerkin_sweep(self, tmp_path):
        cfg = standard_configs()["galerkin_sweep"].copy()
        cfg["M"] = 6  # keep the test quick; acceptance runs the full size
        report = run_config(cfg, tmp_path)
        assert report["passed"]
        assert (tmp_path / "galerkin_sweep.csv").exists()
        fit = json.loads((tmp_path / "galerkin_fit.json").read_text())
        assert fit["pass"]

    def test_galerkin_timings_hold_the_reference(self, tmp_path):
        cfg = dict(standard_configs()["galerkin_sweep"], M=6)
        run_config(cfg, tmp_path)
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert timings["reference"] > 0
        assert {f"n={n}" for n in cfg["flag"]} < set(timings)

    def test_galerkin_sweep_antiwick_route(self, tmp_path):
        cfg = standard_configs()["galerkin_sweep"].copy()
        cfg["M"] = 6
        cfg["route"] = "antiwick"
        del cfg["t_scaling"]
        report = run_config(cfg, tmp_path)
        assert report["passed"]

    def test_evolve(self, tmp_path):
        report = run_config(standard_configs()["evolve"], tmp_path)
        assert report["passed"]
        states = json.loads((tmp_path / "states.json").read_text())
        assert states["times"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert max(states["norm_defects"]) <= 1e-8


class TestRateSlopeCheck:
    """The CLI judges the sweep's log-log fit against `slope_threshold`."""

    @staticmethod
    def sweep(tmp_path, cfg):
        out = tmp_path / "out"
        cfg = {key: value for key, value in cfg.items() if key != "t_scaling"}
        code = main(["run", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
        report = json.loads((out / "report.json").read_text())
        fit = json.loads((out / "galerkin_fit.json").read_text())
        assert report["metrics"]["fit"] == fit
        return code, {c["name"]: c["passed"] for c in report["checks"]}, fit

    def test_two_entry_flag_fails(self, tmp_path, capsys):
        # two errors give no fit: no slope, so no pass
        code, passed, fit = self.sweep(
            tmp_path, dict(GALERKIN, M=6, flag=[1, 2], slope_threshold=-0.5)
        )
        assert code == EXIT_CHECK_FAILED
        assert "FAILED: rate-slope" in capsys.readouterr().err
        assert not passed["rate-slope"]
        assert fit["pass"] is False and fit["slope"] is None
        assert fit["threshold"] == -0.5

    def test_mode_one_symbol_is_exact(self, tmp_path, capsys):
        # every reduced evolution equals the reference: all errors are zero,
        # so the fit is exact and passes, while the decrease check fails
        zz = conj_variable(3, 1) * variable(3, 1)
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        code, passed, fit = self.sweep(tmp_path, dict(
            GALERKIN, d=3, M=6, flag=[1, 2], symbol=to_term_list(zz + 0.1 * zz**2),
            probes=[{"alpha": [[0.3, 0.0]] + zeros, "beta": [[0.2, 0.1]] + zeros}],
        ))
        assert code == EXIT_CHECK_FAILED
        assert fit["samples"] == [[1, 0.0], [2, 0.0]]
        assert passed == {"errors-strictly-decreasing": False, "rate-slope": True}
        assert fit["exact"] and fit["pass"] is True

    def test_mode_one_symbol_at_equal_probes(self, tmp_path):
        # alpha = beta: the errors are at most round-off, and fail the
        # decrease check as exact zeros do
        zz = conj_variable(3, 1) * variable(3, 1)
        probe = [[0.3, 0.0], [0.0, 0.0], [0.0, 0.0]]
        code, passed, fit = self.sweep(tmp_path, dict(
            GALERKIN, d=3, M=6, flag=[1, 2], symbol=to_term_list(zz + 0.1 * zz**2),
            probes=[{"alpha": probe, "beta": probe}],
        ))
        assert code == EXIT_CHECK_FAILED
        assert all(e <= ERROR_FLOOR for _, e in fit["samples"])
        assert passed == {"errors-strictly-decreasing": False, "rate-slope": True}

    def test_errors_below_floor_are_no_decrease(self, tmp_path, monkeypatch):
        # strictly decreasing round-off, as a sweep may return it, counts as
        # zeros: the decrease check fails
        def round_off(*args, **kwargs):
            sweeps = galerkin_sweeps(*args, **kwargs)
            records, fit = sweeps[0]
            sweeps[0] = ([replace(r, abs_error=e)
                          for r, e in zip(records, [2.2e-16, 3.5e-18])], fit)
            return sweeps

        monkeypatch.setattr(fockprop.cli, "galerkin_sweeps", round_off)
        code, passed, _ = self.sweep(tmp_path, dict(GALERKIN, M=6, flag=[1, 2]))
        assert code == EXIT_CHECK_FAILED
        assert not passed["errors-strictly-decreasing"]


class TestChernoffTable:
    def test_rows_match_library_table(self, tmp_path):
        cfg = chernoff_config(Ns=[4, 8, 16])
        run_config(cfg, tmp_path)
        rows = json.loads((tmp_path / "chernoff_table.json").read_text())["records"]
        records = feynman_convergence_table(
            from_term_list(cfg["symbol"], modes=1), cfg["t"], cfg["Ns"],
            [0.3], [0.2 + 0.1j], FockBasis(1, cfg["M"]), gauss_hermite_rule(1, cfg["Q"]),
        )
        assert [(r["parameter"], r["re"], r["im"], r["abs_error"]) for r in rows] == [
            (r.parameter, r.value.real, r.value.imag, r.abs_error) for r in records
        ]


class TestArtifactFormats:
    """The CLI formats every file a run writes."""

    def test_chernoff_table_files(self, tmp_path):
        cfg = chernoff_config(Ns=[4, 8, 16])
        run_config(cfg, tmp_path)
        lines = (tmp_path / "chernoff_table.csv").read_text().splitlines()
        assert lines[0] == "N,re,im,abs_error"
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "8", "16"]
        table = strict_json((tmp_path / "chernoff_table.json").read_text())
        assert set(table["metadata"]) == {"d", "M", "Q", "t", "symbol_digest"}
        assert (table["metadata"]["Q"], table["metadata"]["t"]) == (8, 0.5)
        # wall time is left to timings.json
        assert set(table["records"][0]) == {
            "parameter", "observable", "re", "im", "abs_error"
        }

    def test_galerkin_sweep_csvs(self, tmp_path):
        cfg = dict(GALERKIN, M=6)
        run_config(cfg, tmp_path)
        for name in ("galerkin_sweep.csv", "galerkin_sweep_scaled.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "n,re,im,abs_error,slope_running"
            assert [int(line.split(",")[0]) for line in lines[1:]] == cfg["flag"]

    def test_galerkin_fit_json_keys(self, tmp_path):
        report = run_config(dict(GALERKIN, M=6), tmp_path)
        fit = strict_json((tmp_path / "galerkin_fit.json").read_text())
        assert set(fit) == {
            "samples", "slope", "intercept", "residual", "exact", "threshold", "pass"
        }
        assert fit == report["metrics"]["fit"]


class TestStrictReports:
    @pytest.mark.parametrize("name", sorted(standard_configs()))
    def test_report_is_its_file(self, tmp_path, name):
        report = run_config(standard_configs()[name], tmp_path)
        assert strict_json((tmp_path / "report.json").read_text()) == report


class TestWriteJson:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap,where", [
        pytest.param(lambda v: {"a": {"b": v}}, "a.b", id="dict"),
        pytest.param(lambda v: {"a": [0.0, (1.0, v)]}, "a[1][1]", id="list"),
        pytest.param(lambda v: {"a": np.array([[0.0, v]])}, "a", id="ndarray"),
    ])
    def test_refuses_non_finite(self, tmp_path, bad, wrap, where):
        message = rf"^{re.escape(where)}: expected (a )?finite"
        with pytest.raises(ValueError, match=message):
            _write_json(tmp_path / "x.json", wrap(bad))
        assert not (tmp_path / "x.json").exists()

    def test_refused_artifact_leaves_no_file(self, tmp_path):
        payload = {"states": np.array([1.0, math.nan])}
        with pytest.raises(ValueError):
            _write_artifact(tmp_path, "states.json",
                            lambda path: _write_json(path, payload))
        assert not list(tmp_path.iterdir())

    def test_evolve_states_round_trip_bit_for_bit(self, tmp_path, monkeypatch):
        results = []

        def evolve(*args, **kwargs):
            results.append(schrodinger_evolve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(fockprop.cli, "schrodinger_evolve", evolve)
        run_config(standard_configs()["evolve"], tmp_path)
        [result] = results
        states = np.array(strict_json((tmp_path / "states.json").read_text())["states"])
        expected = np.stack(result.states).view(float)
        assert states.shape == (len(result.times), expected.shape[1] // 2, 2)
        assert np.array_equal(states.reshape(expected.shape), expected)


class TestChernoffSliceCount:
    def test_one_quadrature_per_slice_count(self, tmp_path, monkeypatch):
        # the contractivity check reuses the last N's slice
        calls = []
        original = fockprop.propagate.antiwick_quantize_function

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fockprop.propagate, "antiwick_quantize_function", counting)
        cfg = chernoff_config(Ns=[4, 8, 16])
        report = run_config(cfg, tmp_path)
        assert report["passed"]
        assert len(calls) == len(cfg["Ns"])


def evolve_vector_config(components):
    return dict(
        standard_configs()["evolve"], M=3,
        initial={"type": "vector", "components": components},
    )


def with_imaginary_term(cfg):
    """cfg with a z*_1 term of coefficient 0.5i, which makes its symbol not real."""
    d = cfg["d"]
    term = {"kstar": [1] + [0] * (d - 1), "k": [0] * d, "re": 0.0, "im": 0.5}
    return dict(cfg, symbol=cfg["symbol"] + [term])


OVERFLOWING_SYMBOL = [
    {"kstar": [1], "k": [1], "re": 1.0, "im": 0.0},
    {"kstar": [200], "k": [200], "re": 1e-300, "im": 0.0},
]

# |z|^300 at the Q = 40 rule's largest node, 11.45, is 10^317.7; the
# coefficient 1e-30 would scale it back, but evaluation forms it first
SLICE_OVERFLOWING_SYMBOL = [
    {"kstar": [1], "k": [1], "re": 1.0, "im": 0.0},
    {"kstar": [150], "k": [150], "re": 1e-30, "im": 0.0},
]

# configs that `run` cannot finish, so `validate` must refuse them:
# (id, field the message names, config, message)
RUN_PRECONDITIONS = [
    ("galerkin-not-real", "symbol", with_imaginary_term(GALERKIN),
     "galerkin-sweep requires a real symbol"),
    ("evolve-not-real", "symbol", with_imaginary_term(standard_configs()["evolve"]),
     "evolve requires a real symbol"),
    ("chernoff-sweep-Q", "Q", chernoff_config(M=8, Q=8), r"rule order 8 < M \+ 1 = 9"),
    ("evolve-chernoff-Q", "Q",
     dict(standard_configs()["evolve"], M=8, method="chernoff", Q=6),
     r"rule order 6 < M \+ 1 = 9"),
    ("vector-length", "initial.components",
     evolve_vector_config([[1.0, 0.0], [0.0, 0.0]]), "expected a list of 4"),
    ("vector-non-finite", "initial.components[2]",
     evolve_vector_config([[1.0, 0.0], [0.0, 0.0], [float("nan"), 0.0], [0.0, 0.0]]),
     "finite"),
    ("vector-unnormalized", "initial.components",
     evolve_vector_config([[0.6, 0.0], [0.0, 0.6], [0.0, 0.0], [0.0, 0.0]]),
     "norm .* is not 1 within 1e-8"),
    # the default phase grid has 385 points per mode: 385^3 is over the limit
    ("lower-bound-d3", "d",
     {"schema": 1, "kind": "lower-bound", "d": 3, "M": 2, "Q": 3, "count": 1},
     "phase grid of 57066625 points"),
    ("outputs-out-dir", "outputs.report.json",
     chernoff_config(outputs={"report.json": "./"}), "names the out dir itself"),
    ("outputs-inside-report", "outputs",
     chernoff_config(outputs={"chernoff_table.csv": "report.json/x"}),
     "lies inside the other"),
    ("outputs-nested", "outputs",
     chernoff_config(outputs={"report.json": "a", "timings.json": "a/b"}),
     "lies inside the other"),
    ("outputs-same-file", "outputs",
     chernoff_config(outputs={"chernoff_table.csv": "report.json"}), "are one file"),
    ("float-exponents", "symbol",
     chernoff_config(symbol=[{"kstar": [1.7], "k": [1.2], "re": 1.0, "im": 0.0}]),
     "integer list 'kstar'"),
    ("bool-exponent", "symbol",
     chernoff_config(symbol=[{"kstar": [1], "k": [True], "re": 1.0, "im": 0.0}]),
     "integer list 'k'"),
    ("negative-exponent", "symbol",
     chernoff_config(symbol=[{"kstar": [1], "k": [-1], "re": 1.0, "im": 0.0}]),
     "exponents must be non-negative"),
    ("exponent-length", "symbol",
     chernoff_config(symbol=[{"kstar": [1, 0], "k": [1, 0], "re": 1.0, "im": 0.0}]),
     "exponent tuples must have length 1"),
    ("bool-Ns", "Ns", chernoff_config(Ns=[True, 2]), "positive integers"),
    ("bool-flag", "flag", dict(GALERKIN, flag=[True, 2]), "positive integers"),
    ("string-coefficient", "symbol",
     chernoff_config(symbol=[{"kstar": [1], "k": [1], "re": "0.5", "im": 0.0}]),
     "'re' must be a number"),
    ("bool-coefficient", "symbol",
     chernoff_config(symbol=[{"kstar": [1], "k": [1], "re": 0.5, "im": False}]),
     "'im' must be a number"),
    # without the check the misspelt coefficient left H = 0, and the run passed
    ("misspelt-term-key", "symbol",
     dict(standard_configs()["evolve"], symbol=[{"kstar": [1], "k": [1], "Re": 1.0}]),
     r"unknown key\(s\) \['Re'\]"),
    ("outputs-nul", "outputs.report.json",
     chernoff_config(outputs={"report.json": "a\u0000b"}), "NUL character"),
    ("outputs-unknown-file", "outputs.report.jsn",
     chernoff_config(outputs={"report.jsn": "r.json"}), "writes no such file"),
    # 14^6 = 7,529,536 nodes, over the one limit on every product grid
    ("chernoff-sweep-grid", "Q", multimode_chernoff_config(3, M=8, Q=14),
     "quadrature grid of 7529536 points"),
    # no Q: the default order M + 2 = 16 gives 16^6 = 16,777,216 nodes
    ("evolve-chernoff-default-Q-grid", "Q",
     dict(standard_configs()["evolve"], d=3, M=14, method="chernoff",
          symbol=to_term_list(coupled_quartic(modes=3)),
          initial={"type": "vacuum"}),
     "rule order 16 gives a quadrature grid of 16777216 points"),
    # Q < M + 1: the quadrature's last contraction forms 61^4 = 13,845,841
    # basis pairs from a 16-node grid
    ("lower-bound-pair-array", "Q",
     {"schema": 1, "kind": "lower-bound", "d": 2, "M": 60, "Q": 2, "count": 1},
     "quadrature array of 13845841 points"),
    # an inverted window fails its check whatever the run computes
    ("halving-window-inverted", "halving_window",
     chernoff_config(halving_window=[2.4, 1.6]), "low 2.4 > high 1.6"),
    # halving ratios pair only adjacent N, 2N: without such a pair the
    # halving-ratio check had no ratio and failed after every row was built
    ("Ns-single", "Ns", chernoff_config(Ns=[8]), "adjacent pair N, 2N"),
    ("Ns-no-doubling", "Ns", chernoff_config(Ns=[8, 12, 20]), "adjacent pair N, 2N"),
    ("t-scaling-window-inverted", "t_scaling.window",
     dict(GALERKIN, t_scaling=dict(GALERKIN["t_scaling"], window=[6.0, 2.5])),
     "low 6.0 > high 2.5"),
    # at M = 16 the norm overflows (17 components up to 1.3e308 in the top
    # shell) or the components do (1e100), so the start cannot be normalized
    ("coherent-norm-overflow", "initial.alpha",
     dict(standard_configs()["evolve"], d=2,
          symbol=to_term_list(coupled_quartic(modes=2)),
          initial={"type": "coherent", "alpha": [[3.5e19, 0.0], [3.5e19, 0.0]]}),
     "coherent norm inf is not finite"),
    # 1e39^8 / sqrt(8!) is past the doubles; 1e20 at M = 8 runs
    ("coherent-components-overflow-m8", "initial.alpha",
     dict(standard_configs()["evolve"], M=8,
          initial={"type": "coherent", "alpha": [[1e39, 0.0]]}),
     "coherent norm inf is not finite"),
    ("coherent-components-overflow", "initial.alpha",
     dict(standard_configs()["evolve"],
          initial={"type": "coherent", "alpha": [[1e100, 0.0]]}),
     "coherent norm (inf|nan) is not finite"),
    # the closed-form weights of z*^200 z^200 pass the double range; the
    # runs used to end in OverflowError
    ("chernoff-conversion-overflow", "symbol",
     chernoff_config(M=10, Q=12, symbol=OVERFLOWING_SYMBOL),
     r"term z\*1\^200·z1\^200 has a conversion weight"),
    ("galerkin-antiwick-conversion-overflow", "symbol",
     dict(GALERKIN, route="antiwick", symbol=GALERKIN["symbol"] + [
         {"kstar": [200, 0, 0, 0], "k": [200, 0, 0, 0], "re": 1e-300, "im": 0.0}
     ]),
     r"term z\*1\^200·z1\^200 has a conversion weight"),
    # the slice symbol's values leave the doubles on the rule's nodes; the
    # runs used to end in "values are non-finite at a quadrature node"
    ("chernoff-slice-overflow", "symbol",
     chernoff_config(M=10, Q=40, symbol=SLICE_OVERFLOWING_SYMBOL),
     r"t \* symbol may reach 10\^317.7 at modulus 11.45, past the double range"),
    ("evolve-chernoff-slice-overflow", "symbol",
     dict(standard_configs()["evolve"], M=10, Q=40, method="chernoff",
          symbol=SLICE_OVERFLOWING_SYMBOL),
     r"t \* symbol may reach 10\^317.7 at modulus 11.45"),
    # the symbol's values fit, but a slice of length 1.25e304 scales them
    # past; the oracle's phase, at modulus sqrt(M) = 2.449, still fits
    ("chernoff-slice-phase-overflow", "symbol", chernoff_config(t=1e305, Q=40),
     r"10\^309.0 at modulus 11.45"),
    # the spectral oracle's exp(-i lambda t) overflows to NaN, which the
    # strict report writer refuses: its bound at modulus sqrt(M)
    ("chernoff-reference-phase-overflow", "symbol",
     chernoff_config(t=1e307, Ns=[100000, 200000]), r"10\^309.3 at modulus 2.449"),
    ("galerkin-phase-overflow", "symbol",
     dict(GALERKIN, t_scaling=dict(GALERKIN["t_scaling"], base_t=1e306, factor=100.0)),
     r"10\^312.3 at modulus 2.828"),
    ("evolve-oracle-phase-overflow", "symbol",
     dict(standard_configs()["evolve"], t_grid=[0.0, 1e308]), r"10\^309.2 at modulus 4,"),
    ("roundtrip-degree", "degree",
     {"schema": 1, "kind": "symbol-roundtrip", "d": 1, "degree": 400},
     "degree 400 gives conversion weights past the double range"),
    ("lower-bound-degree", "degree",
     {"schema": 1, "kind": "lower-bound", "d": 1, "M": 2, "Q": 3, "degree": 334},
     "below total degree 334"),
]


class TestRunPreconditions:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "field,cfg,message", [case[1:] for case in RUN_PRECONDITIONS],
        ids=[case[0] for case in RUN_PRECONDITIONS],
    )
    def test_exit_config_error(self, tmp_path, capsys, command, field, cfg, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out-dir", str(out)] if command == "run" else [])
        assert main(argv) == EXIT_CONFIG
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_ns_with_one_doubling_is_valid(self, tmp_path):
        cfg = chernoff_config(Ns=[8, 16, 24])
        assert validate_config(cfg)["Ns"] == [8, 16, 24]
        assert run_config(cfg, tmp_path)["metrics"]["ratios"].keys() == {"8"}

    def test_slice_order_m_plus_one_is_valid(self):
        assert validate_config(chernoff_config(M=7, Q=8))["Q"] == 8

    def test_evolve_chernoff_resolves_default_order(self):
        cfg = dict(standard_configs()["evolve"], M=8, method="chernoff")
        info = validate_config(cfg)
        assert (info["Q"], info["node_count"]) == (10, 100)

    @pytest.mark.parametrize("name,Q", [
        ("galerkin_sweep", 12), ("evolve", 40), ("galerkin_sweep", 0),
    ])
    def test_ruleless_kinds_ignore_q(self, tmp_path, capsys, name, Q):
        # a galerkin sweep and an oracle evolution never build a rule
        cfg = dict(standard_configs()[name], Q=Q)
        assert cfg.get("method", "oracle") == "oracle"
        info = validate_config(cfg)
        assert "Q" not in info and "node_count" not in info
        assert main(["validate", str(write_config(tmp_path, cfg))]) == EXIT_OK
        assert "quadrature nodes" not in capsys.readouterr().out

    def test_coherent_start_with_squares_past_the_doubles_runs(self, tmp_path):
        # the top component of the M = 8 start at 1e20 is 5.0e157: its
        # square overflows, but the scaled norm normalizes it
        cfg = dict(standard_configs()["evolve"], M=8,
                   initial={"type": "coherent", "alpha": [[1e20, 0.0]]})
        assert abs(np.linalg.norm(validate_config(cfg)["initial"]) - 1) <= 1e-8
        assert run_config(cfg, tmp_path)["passed"]

    def test_normalized_vector_runs(self, tmp_path):
        cfg = evolve_vector_config([[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0]])
        validate_config(cfg)
        assert run_config(cfg, tmp_path)["passed"]


def chernoff_slice_of(cfg):
    """The slice a chernoff sweep builds for `cfg`, at its first N."""
    d, M = cfg["d"], cfg["M"]
    [step] = chernoff_slices(from_term_list(cfg["symbol"]), [cfg["t"] / cfg["Ns"][0]],
                             FockBasis(d, M), gauss_hermite_rule(d, cfg["Q"]))
    return step


def evolve_vacuum_of(cfg):
    """The sliced evolution of the vacuum that an evolve config asks for."""
    d, M = cfg["d"], cfg["M"]
    vacuum = coherent_vector(FockBasis(d, M), [0.0] * d).components
    return schrodinger_evolve(from_term_list(cfg["symbol"]), d, vacuum, cfg["t_grid"],
                              M, order=cfg.get("Q"), method="chernoff")


def evolve_oracle_of(cfg):
    """The oracle evolution of the vacuum that an evolve config asks for."""
    d, M = cfg["d"], cfg["M"]
    vacuum = coherent_vector(FockBasis(d, M), [0.0] * d).components
    return schrodinger_evolve(from_term_list(cfg["symbol"]), d, vacuum, cfg["t_grid"], M)


def chernoff_table_of(cfg):
    """The table a chernoff sweep builds for `cfg`."""
    d, M = cfg["d"], cfg["M"]
    [probe] = cfg["probes"]
    alpha, beta = ([complex(*p) for p in probe[side]] for side in ("alpha", "beta"))
    return feynman_convergence_table(
        from_term_list(cfg["symbol"]), cfg["t"], cfg["Ns"], alpha, beta,
        FockBasis(d, M), gauss_hermite_rule(d, cfg["Q"]),
    )


def galerkin_sweep_of(cfg):
    """The sweeps a galerkin config runs, at its time and its scaling's two."""
    d, scaling = cfg["d"], cfg["t_scaling"]
    [probe] = cfg["probes"]
    alpha, beta = ([complex(*p) for p in probe[side]] for side in ("alpha", "beta"))
    times = [cfg["t"], scaling["base_t"], scaling["factor"] * scaling["base_t"]]
    return galerkin_sweeps(from_term_list(cfg["symbol"]), Flag(d, tuple(cfg["flag"])),
                           times, alpha, beta, cfg["M"])


def coherent_start_of(cfg):
    """The coherent vector an evolve config starts from, before normalizing."""
    alpha = [complex(*pair) for pair in cfg["initial"]["alpha"]]
    return coherent_vector(FockBasis(cfg["d"], cfg["M"]), alpha)


# the library call a run makes for each size, rule or overflow refusal of
# RUN_PRECONDITIONS: validate refuses with the library's own message
LIBRARY_REFUSALS = {
    "chernoff-sweep-Q": chernoff_slice_of,
    "evolve-chernoff-Q": evolve_vacuum_of,
    "lower-bound-d3": lambda cfg: infimum_estimate(
        coupled_quartic(modes=cfg["d"]), PhaseGrid(radius=6.0)
    ),
    "chernoff-sweep-grid": chernoff_slice_of,
    "evolve-chernoff-default-Q-grid": evolve_vacuum_of,
    "lower-bound-pair-array": lambda cfg: antiwick_quantize_function(
        FockBasis(cfg["d"], cfg["M"]), np.zeros(cfg["Q"] ** (2 * cfg["d"])),
        gauss_hermite_rule(cfg["d"], cfg["Q"]),
    ),
    "coherent-norm-overflow": coherent_start_of,
    "coherent-components-overflow": coherent_start_of,
    "coherent-components-overflow-m8": coherent_start_of,
    "chernoff-slice-overflow": chernoff_slice_of,
    "evolve-chernoff-slice-overflow": evolve_vacuum_of,
    "chernoff-slice-phase-overflow": chernoff_slice_of,
    "chernoff-reference-phase-overflow": chernoff_table_of,
    "galerkin-phase-overflow": galerkin_sweep_of,
    "evolve-oracle-phase-overflow": evolve_oracle_of,
    "chernoff-conversion-overflow": lambda cfg: antiwick_quantize_poly(
        FockBasis(cfg["d"], cfg["M"]), from_term_list(cfg["symbol"])
    ),
}


class TestValidateAsksTheLibrary:
    @pytest.mark.parametrize("name", sorted(LIBRARY_REFUSALS))
    def test_same_message(self, name):
        [(field, cfg, _)] = [case[1:] for case in RUN_PRECONDITIONS if case[0] == name]
        with pytest.raises(ValueError) as library:
            LIBRARY_REFUSALS[name](cfg)
        with pytest.raises(ConfigError) as validate:
            validate_config(cfg)
        assert str(validate.value) == f"{field}: {library.value}"


OUTPUT_PATHS = [".", "./", "a", "a/b", "report.json", "report.json/x", "x.json"]


@st.composite
def small_configs(draw):
    """Small configs of every kind, valid or not, as a user might write them."""
    kind = draw(st.sampled_from(KINDS))
    d, M = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    cfg = {"schema": 1, "kind": kind, "d": d, "M": M, "seed": draw(st.integers(0, 3))}

    def point():
        re_1 = draw(st.sampled_from([0.0, 0.0, 0.01, 0.05]))
        return [[re_1, 0.0]] + [[0.0, 0.0]] * (d - 1)

    # the one-mode quartic oscillator has the wrong mode count for d > 1
    symbol = to_term_list(draw(st.sampled_from([
        coupled_quartic(modes=d), coupled_quartic(modes=d, coupling=0.0),
        coupled_quartic(modes=d), quartic_oscillator(),
    ])))
    if kind in ("chernoff-sweep", "galerkin-sweep", "evolve"):
        cfg["symbol"] = symbol
    if kind in ("chernoff-sweep", "galerkin-sweep"):
        cfg.update(t=0.3, probes=[{"alpha": point(), "beta": point()}])
    if kind in ("lower-bound", "chernoff-sweep") or draw(st.booleans()):
        cfg["Q"] = draw(st.integers(max(M, 1), M + 2))
    if kind == "symbol-roundtrip":
        cfg.update(degree=draw(st.integers(0, 4)), count=draw(st.integers(1, 3)))
    elif kind == "lower-bound":
        cfg.update(degree=draw(st.sampled_from([2, 4])), count=1)
    elif kind == "chernoff-sweep":
        cfg["Ns"] = draw(st.sampled_from([[1, 2], [2, 4], [4, 8]]))
    elif kind == "galerkin-sweep":
        cfg["flag"] = sorted(draw(st.sets(st.integers(1, d + 1), min_size=1)))
        cfg["route"] = draw(st.sampled_from(["wick", "antiwick"]))
        if draw(st.booleans()):
            cfg["t_scaling"] = {"base_t": 0.05, "factor": 2.0, "window": [2.5, 6.0]}
    elif kind == "evolve":
        cfg["t_grid"] = [0.0, 0.3]
        cfg["initial"] = draw(st.sampled_from([
            {"type": "vacuum"},
            {"type": "coherent", "alpha": point()},
            {"type": "vector",
             "components": [[1.0, 0.0]] + [[0.0, 0.0]] * (math.comb(M + d, d) - 1)},
        ]))
        cfg["route"] = draw(st.sampled_from(["wick", "antiwick"]))
        if draw(st.booleans()):
            cfg.update(method="chernoff", slices=4)
    if draw(st.booleans()):
        cfg["outputs"] = draw(st.dictionaries(
            # a name the kind does not write is refused; the preconditions cover it
            st.sampled_from(REPORT_FILES + ARTIFACTS.get(kind, ())),
            st.sampled_from(OUTPUT_PATHS),
            min_size=1, max_size=2,
        ))
    return cfg


class TestValidateRunContract:
    @given(small_configs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_validated_config_runs_to_a_report(self, cfg):
        try:
            validate_config(cfg)
        except (ConfigError, BudgetError):
            return
        with tempfile.TemporaryDirectory() as root:
            out = Path(root) / "out"
            report = run_config(cfg, out)
            assert report["kind"] == cfg["kind"]
            # nothing lands beside the out dir, not even a temp file
            assert list(Path(root).iterdir()) == [out]


class TestValidatedExtremesRun:
    """Cutoffs past the float factorial (171!) and more modes than Python's
    default recursion limit validate and run to a passing report."""

    @staticmethod
    def check(tmp_path, cfg):
        path = write_config(tmp_path, cfg)
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_OK

    def test_evolve_at_cutoff_200(self, tmp_path):
        self.check(tmp_path, dict(standard_configs()["evolve"], M=200))

    def test_chernoff_at_cutoff_180(self, tmp_path):
        cfg = dict(standard_configs()["chernoff_sweep"], M=180, Q=181, Ns=[8, 16])
        self.check(tmp_path, cfg)

    def test_evolve_with_1100_modes(self, tmp_path):
        d = 1100
        z1, z2 = variable(d, 1), variable(d, 2)
        c1, c2 = conj_variable(d, 1), conj_variable(d, 2)
        cfg = dict(
            standard_configs()["evolve"], d=d, M=1, t_grid=[0.0, 0.5],
            initial={"type": "vacuum"},
            symbol=to_term_list(c1 * z1 + 0.5 * (c1 * z2 + c2 * z1)),
        )
        self.check(tmp_path, cfg)

    def test_chernoff_with_1500_modes(self, tmp_path):
        # a one-point rule on the one-state basis (Q = 1, M = 0): the
        # Chernoff error cannot halve, so the window admits ratio 1
        d = 1500
        point = [[0.0, 0.0]] * d
        cfg = chernoff_config(
            d=d, M=0, Q=1, halving_window=[0.5, 2.4],
            symbol=to_term_list(conj_variable(d, 1) * variable(d, 1)),
            probes=[{"alpha": point, "beta": point}],
        )
        self.check(tmp_path, cfg)


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chernoff_config())
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK

    def test_check_failure_lists_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chernoff_config(halving_window=[9.0, 9.5]))
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert "FAILED: halving-ratio-window" in err

    def test_schema_violation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "d": 1, "M": 4})
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "kind" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_budget_exceeded(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"schema": 1, "kind": "ccr-check", "d": 4, "M": 40}
        )
        assert main(["run", str(cfg)]) == EXIT_BUDGET

    def test_removed_run_options_are_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chernoff_config())
        for option in (["--threads", "2"], ["--cache-dir", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(["run", str(cfg)] + option)
            assert exc.value.code == EXIT_CONFIG
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_validate_prints_estimates(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"schema": 1, "kind": "ccr-check", "d": 2, "M": 10}
        )
        assert main(["validate", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "= 66" in out
        assert "valid" in out

    def test_validate_prints_dense_matrix_bytes(self, tmp_path, capsys, monkeypatch):
        # 19,900 states pass the state budget; one dense matrix is 6.3 GB
        def refuse(*args):
            raise AssertionError("validate ran the config")

        monkeypatch.setattr("fockprop.cli.run_config", refuse)
        cfg = write_config(
            tmp_path, {"schema": 1, "kind": "ccr-check", "d": 2, "M": 198}
        )
        assert main(["validate", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        megabytes = float(re.search(r"dense matrix: ([\d.]+) MB", out).group(1))
        assert 6.3e3 <= megabytes < 6.4e3

    def test_validate_prints_largest_quadrature_array(self, tmp_path, capsys):
        # Q < M + 1: 16 nodes, but the last contraction forms 41^4 basis pairs
        cfg = write_config(tmp_path, {"schema": 1, "kind": "lower-bound", "d": 2,
                                      "M": 40, "Q": 2, "count": 1})
        assert main(["validate", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "quadrature nodes: 2^(2*2) = 16" in out
        assert "largest quadrature array: 2825761 entries (45.2 MB)" in out


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = chernoff_config()
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_config(cfg, out1)
        run_config(cfg, out2)
        for name in ("report.json", "chernoff_table.csv", "chernoff_table.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seeded_randomized_suite_deterministic(self, tmp_path):
        cfg = {"schema": 1, "kind": "lower-bound", "d": 1, "M": 6, "Q": 8,
               "count": 3, "seed": 9}
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_config(cfg, out1)
        run_config(cfg, out2)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


@pytest.fixture(scope="module")
def generated_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("configs")
    assert fockprop.benchmarks.main([str(out)]) == 0
    return out


class TestShippedConfigs:
    """`python -m fockprop.benchmarks DIR` writes the standard configs."""

    def test_writes_one_file_per_config(self, generated_configs):
        names = sorted(path.name for path in generated_configs.iterdir())
        assert len(names) == 6
        assert names == sorted(f"{name}.json" for name in standard_configs())

    @pytest.mark.parametrize("name", sorted(standard_configs()))
    def test_matches_generator(self, generated_configs, name):
        text = (generated_configs / f"{name}.json").read_text()
        cfg = standard_configs()[name]
        assert text == json.dumps(cfg, indent=2, sort_keys=True) + "\n"
        validate_config(json.loads(text))


class TestEvolveChernoffMethod:
    def test_sliced_evolution_via_cli(self, tmp_path):
        cfg = {
            "schema": 1,
            "kind": "evolve",
            "d": 1,
            "M": 8,
            "t_grid": [0.0, 0.25],
            "symbol": to_term_list(quartic_oscillator(coupling=0.0)),
            "initial": {"type": "coherent", "alpha": [[0.3, 0.0]]},
            "method": "chernoff",
            "slices": 256,
            "seed": 0,
        }
        report = run_config(cfg, tmp_path)
        assert report["passed"]
        check = report["checks"][0]
        assert check["name"] == "norm-conservation"
        assert check["tolerance"] == 1e-3


class TestOutputPaths:
    def test_outputs_remap_artifacts(self, tmp_path):
        cfg = chernoff_config(
            outputs={
                "chernoff_table.csv": "tables/errors.csv",
                "report.json": "summary.json",
            }
        )
        run_config(cfg, tmp_path)
        assert (tmp_path / "tables" / "errors.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert not (tmp_path / "report.json").exists()

    def test_outputs_must_stay_inside_out_dir(self):
        with pytest.raises(ConfigError, match="inside the out dir"):
            validate_config(chernoff_config(outputs={"report.json": "../esc.json"}))


class TestAtomicity:
    def test_failed_writer_leaves_no_target(self, tmp_path):
        def exploding_writer(path):
            Path(path).write_text("partial")
            raise RuntimeError("disk gremlin")

        with pytest.raises(RuntimeError):
            _write_artifact(tmp_path, "out.csv", exploding_writer)
        assert not (tmp_path / "out.csv").exists()
        assert not list(tmp_path.glob("*.tmp*"))
