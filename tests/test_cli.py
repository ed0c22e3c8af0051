import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockprop.benchmarks
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
    _write_artifact,
    main,
    run_config,
    validate_config,
)
from fockprop.fock import FockBasis
from fockprop.propagate import chernoff_step, feynman_convergence_table
from fockprop.quantize import gauss_hermite_rule
from fockprop.symbols import conj_variable, from_term_list, to_term_list, variable


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
}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_exit_config_error(self, tmp_path, capsys, command, field):
        path = write_config(tmp_path, NON_FINITE[field]())
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out-dir", str(out)] if command == "run" else [])
        assert main(argv) == EXIT_CONFIG
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

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
        chernoff_step(quartic_oscillator(), 0.05, FockBasis(1, 6), gauss_hermite_rule(1, 8))
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

    def test_normalized_vector_runs(self, tmp_path):
        cfg = evolve_vector_config([[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0]])
        validate_config(cfg)
        assert run_config(cfg, tmp_path)["passed"]


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
        cfg["Ns"] = draw(st.sampled_from([[1], [2, 4], [4, 8]]))
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
