import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from randblock import cli, model, spectral
from randblock.errors import ConfigError, NumericalFailure
from randblock.lyapunov import DEFAULT_REORTH, DEFAULT_STEPS
from randblock.model import assemble_block_jacobi, params_from_config, sample_disorder
from randblock.spectral import eigensolve

FIXTURE_CFG = {
    "n": 2,
    "gamma": 0.5,
    "rho": {"kind": "discrete", "points": [1.0, 2.0], "weights": [0.5, 0.5]},
    "seed": 1,
}
WEGNER = {"E": 1.0, "L_list": [4], "beta": 0.5, "sigma": 0.5, "samples": 2}


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    """Split an output CSV into (embedded config, header, float rows)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    cfg = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    return cfg, header, rows


def run_spectrum(tmp_path, cfg, subdir="out", extra=()):
    cfg_path = write_cfg(tmp_path / f"{subdir}.json", cfg)
    out = tmp_path / subdir
    code = cli.main(["spectrum", "--config", cfg_path, "--out", str(out), *extra])
    assert code == 0
    return out / "eigenvalues.csv"


class TestSpectrumCommand:
    def test_matches_direct_eigensolve(self, tmp_path):
        csv = run_spectrum(tmp_path, FIXTURE_CFG)
        _, header, rows = read_csv(csv)
        assert header == ["realization", "index", "lambda"]
        got = np.array([r[2] for r in rows])
        params = params_from_config(FIXTURE_CFG)
        matrix = assemble_block_jacobi(params, sample_disorder(params, 1))
        expected = eigensolve(matrix, want_vectors=False).eigenvalues
        np.testing.assert_array_equal(got, expected)

    def test_determinism(self, tmp_path):
        a = run_spectrum(tmp_path, FIXTURE_CFG, "a")
        b = run_spectrum(tmp_path, FIXTURE_CFG, "b")
        assert a.read_bytes() == b.read_bytes()

    def test_provenance_roundtrip(self, tmp_path):
        # the embedded config line alone must reproduce the file, including
        # a seed supplied only on the command line
        first = run_spectrum(tmp_path, FIXTURE_CFG, "orig", extra=["--seed", "2"])
        embedded, _, _ = read_csv(first)
        assert embedded["seed"] == 2
        second = run_spectrum(tmp_path, embedded, "replay")
        assert first.read_bytes() == second.read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        base = run_spectrum(tmp_path, FIXTURE_CFG, "base")
        over = run_spectrum(tmp_path, FIXTURE_CFG, "over", extra=["--seed", "7"])
        _, _, rows_base = read_csv(base)
        _, _, rows_over = read_csv(over)
        assert rows_base != rows_over

    def test_dump_matrix(self, tmp_path):
        cfg = {**FIXTURE_CFG, "dump_matrix": True}
        csv = run_spectrum(tmp_path, cfg, "dump")
        matrix = csv.parent / "matrix.csv"
        assert matrix.exists()
        assert matrix.read_text().splitlines()[0] == "# randblock matrix n=2 ell=2"

    def test_verbose_progress_on_stderr(self, tmp_path, capsys):
        run_spectrum(tmp_path, FIXTURE_CFG, "v", extra=["--verbose"])
        assert "diagonalized" in capsys.readouterr().err


class TestPeriodicCommand:
    def test_band_endpoints(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "p.json", {"potential": [1.0], "gamma": 0.5})
        out = tmp_path / "p"
        assert cli.main(["periodic", "--config", cfg_path, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "intervals.csv")
        assert header == ["lo", "hi"]
        inner = math.sqrt(2.0 / 3.0)
        expected = [(-3.0, -inner), (inner, 3.0)]
        assert len(rows) == 2
        for (lo, hi), (elo, ehi) in zip(rows, expected):
            assert lo == pytest.approx(elo, abs=1e-6)
            assert hi == pytest.approx(ehi, abs=1e-6)


class TestXYVerifyCommand:
    @pytest.mark.parametrize("n_verify, car_modes", [(4, 4), (9, 8)])
    def test_artifact_records_the_car_modes_checked(self, tmp_path, n_verify, car_modes):
        cfg_path = write_cfg(tmp_path / "x.json", {**FIXTURE_CFG, "n": 10, "n_verify": n_verify})
        assert cli.main(["xy-verify", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 0
        payload = json.loads((tmp_path / "x" / "xy_verify.json").read_text())
        assert (payload["n"], payload["car_modes"], payload["car_defect"]) == (n_verify, car_modes, 0.0)


class TestErrorPaths:
    def test_missing_model_field_exits_2(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path / "bad.json", {"gamma": 0.5, "seed": 1})
        code = cli.main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config"
        assert "n" in err["error"]

    @pytest.mark.parametrize("command, cfg, error", [
        ("spectrum", {"gamma": 0.5, "rho": {"kind": "uniform", "a": -1.0, "b": 1.0}, "seed": 1},
         "config missing required field 'n'"),
        ("asspec", {"gamma": 0.5, "rho": {"kind": "uniform", "a": -1.0}}, "rho missing required field 'b'"),
        ("zariski", {"gamma": 0.5, "E_grid": [0.5], "certificate_samples": 3}, "config missing required field 'seed'"),
    ])
    def test_missing_field_is_named(self, tmp_path, capsys, command, cfg, error):
        code = cli.main([command, "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {"error": error, "kind": "config"}

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        code = cli.main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def blow_up(values, cfg, out, args):
            raise NumericalFailure("synthetic instability")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", (blow_up, cli._COMMANDS["spectrum"][1]))
        cfg_path = write_cfg(tmp_path / "c.json", FIXTURE_CFG)
        code = cli.main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "synthetic instability", "kind": "numerical"}

    @pytest.mark.parametrize(
        "field, value",
        [("a", math.nan), ("b", math.inf), ("a", -math.inf), ("gamma", math.nan), ("mu", math.inf)],
    )
    def test_nonfinite_model_field_exits_2(self, tmp_path, capsys, field, value):
        rho = {"kind": "uniform", "a": -1.0, "b": 1.0}
        cfg = {**FIXTURE_CFG, "rho": rho}
        if field in rho:
            rho[field] = value
        else:
            cfg[field] = value
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        code = cli.main(["dos", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize("window", [["a", "b"], [0.5, -0.5], [0.0, math.nan], [1.0]])
    def test_malformed_correlator_window_exits_2(self, tmp_path, capsys, window):
        cfg = {**FIXTURE_CFG, "n": 10, "window": window, "num_realizations": 2}
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        code = cli.main(["correlator", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize(
        "command, change",
        [
            ("dos", {"rho": {"kind": "uniform", "a": "x", "b": 1}}),
            ("asspec", {"rho": {"kind": "uniform", "b": 1}}),
            ("asspec", {"rho": {"kind": "two_point", "a": "x", "b": 1}}),
            ("alpha-scan", {"alpha_lo": 0.1, "alpha_hi": 1.0, "rho": {"kind": "uniform", "a": [0.0], "b": 1}}),
            ("alpha-scan", {"alpha_lo": 0.1, "alpha_hi": 1.0, "rho": {"kind": "two_point", "b": 1}}),
            ("dos", {"num_realizations": "many"}),
            ("lyapunov", {"E": [1.0, 0.5], "steps": "lots"}),
            ("spectrum", {"n": 4, "gamma": ["a", "b", "c"]}),
            ("charpoly-check", {"ell_values": 3}),
            ("green-check", {"ell_values": 3}),
            ("wegner-probe", {**WEGNER, "L_list": 5}),
            ("lr-stats", {"observables": ["q", "x"]}),
            ("zariski", {"E_grid": 0.5}),
            ("thouless", {"energies": 1.0}),
            ("spectrum", {"dump_matrix": "yes"}),
        ]
        # one mu and one gamma per chain: bools, per-bond lists and "const:" strings are config errors
        + [
            (command, {**extra, field: bad})
            for command, extra in (("spectrum", {"n": 4}), ("lyapunov", {"E": 0.5, "steps": 1000}),
                                   ("wegner-probe", WEGNER))
            for field in ("gamma", "mu")
            for bad in (False, True, [0.5, 0.5, 0.5], "const:1.0")
        ],
    )
    def test_non_numeric_field_exits_2(self, tmp_path, capsys, command, change):
        cfg_path = write_cfg(tmp_path / "c.json", {**FIXTURE_CFG, **change})
        code = cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize(
        "command, change",
        [
            ("asspec", {"max_period": 0}),
            ("asspec", {"max_period": -1}),
            ("asspec", {"samples_per_period": 0}),
            ("asspec", {"gamma": "NaN"}),
            ("periodic", {"potential": []}),
            ("periodic", {"potential": "abc"}),
            ("periodic", {"potential": [1.0, math.nan]}),
            ("periodic", {"potential": [[1.0, 2.0]]}),
            ("periodic", {"potential": 3.0}),
            ("periodic", {"potential": [1.0], "gamma": "NaN"}),
            ("charpoly-check", {"instances": 0}),
            ("charpoly-check", {"L_max": 1}),
            ("green-check", {"ell_values": [0, 2]}),
            ("green-check", {"ell_values": []}),
            ("green-check", {"z": [math.nan, 0.3]}),
            ("green-check", {"z": math.inf}),
            ("charpoly-check", {"E": [math.nan, 0.3]}),
            ("lyapunov", {"E": [1.0, math.inf]}),
            ("zariski", {"E_grid": [0.5], "certificate_samples": -5}),
            ("dos", {"num_realizations": 0}),
            ("dos", {"bins": 0}),
            ("thouless", {"energies": [[1.0, 0.5]], "dos": {"num_realizations": 0}}),
            ("lr-stats", {"t_points": 0}),
            ("lr-stats", {"num_realizations": 0}),
            ("wegner-probe", {"E": 1.0, "L_list": [4], "beta": 0.5, "sigma": 0.5, "samples": 0}),
            ("correlator", {"n": 20, "window": [0.5, 1.5], "num_realizations": 0}),
            ("correlator", {"n": 20, "window": [0.5, 1.5], "boundary": -3}),
            ("alpha-scan", {"alpha_lo": 0.1, "alpha_hi": 1.0, "grid_points": -1}),
            ("correlator", {"n": 20, "window": [0.5, 1.5], "num_realizations": 2, "boundary": 100}),
            ("wegner-probe", {**WEGNER, "E": math.nan}),
            ("correlator", {"n": 20, "window": [0.5, 1.5], "num_realizations": 2, "zeta": math.nan}),
            ("lr-stats", {"t_max": math.inf}),
            ("zariski", {"E_grid": [0.5], "gamma": math.nan}),
            ("asspec", {"max_period": 1.5}),
            ("correlator", {"n": 20, "window": [0.5, 1.5], "num_realizations": 2, "zeta": 0}),
            ("correlator", {"n": 20, "window": [0.5, 1.5], "num_realizations": 2, "zeta": -0.5}),
            ("wegner-probe", {**WEGNER, "sigma": -100}),
            ("wegner-probe", {**WEGNER, "sigma": 0}),
            ("wegner-probe", {**WEGNER, "beta": 0}),
            ("wegner-probe", {**WEGNER, "beta": -1}),
        ]
        # every field that sizes an array is bounded by cli._MAX_SIZE, checked before anything is allocated
        + [
            ("dos", {"n": 10**12}),
            ("dos", {"bins": 10**12}),
            ("spectrum", {"n": 10**12}),
            ("wegner-probe", {**WEGNER, "L_list": [4, 10**12]}),
            ("thouless", {"energies": [0.5], "dos": {"n": 10**12}}),
            ("lr-stats", {"t_points": 10**12}),
            ("asspec", {"samples_per_period": 10**12}),
            ("alpha-scan", {"alpha_lo": 0.1, "alpha_hi": 1.0, "grid_points": 10**12}),
            ("zariski", {"E_grid": [0.5], "certificate_samples": 10**12}),
        ],
    )
    def test_out_of_range_field_exits_2(self, tmp_path, capsys, command, change):
        cfg_path = write_cfg(tmp_path / "c.json", {**FIXTURE_CFG, **change})
        code = cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize(
        "command, change",
        [
            # steps is bounded by cli._MAX_STEPS
            ("lyapunov", {"E": 0.5, "steps": 10**12}),
            ("thouless", {"energies": [0.5], "steps": 10**12}),
            ("zero-energy", {"steps": 10**12}),
            ("alpha-scan", {"alpha_lo": 0.1, "alpha_hi": 1.0, "steps": 10**12}),
            # the counts of realizations, instances and samples by cli._MAX_SIZE
            ("wegner-probe", {**WEGNER, "samples": 10**12}),
            ("green-check", {"instances": 10**12}),
            ("charpoly-check", {"instances": 10**12}),
            ("spectrum", {"num_realizations": 10**12}),
            ("dos", {"num_realizations": 10**12}),
            ("correlator", {"n": 20, "window": [0.5, 1.5], "num_realizations": 10**12}),
            ("lr-stats", {"num_realizations": 10**12}),
            ("thouless", {"energies": [0.5], "dos": {"num_realizations": 10**12}}),
        ],
    )
    def test_field_that_sets_only_the_work_is_bounded(self, tmp_path, capsys, command, change):
        cfg = {**FIXTURE_CFG, **change}
        # the parse is checked first, because an unbounded field would make cli.main run until killed
        with pytest.raises(ConfigError, match="must be <="):
            cli._parse_config(command, copy.deepcopy(cfg))
        code = cli.main([command, "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_wide_dos_sweep_exits_2(self, tmp_path, capsys):
        # every field is in range, but the count sweep would span 1000 chains x 1001 bin edges
        cfg = {**FIXTURE_CFG, "n": 2, "num_realizations": 1000, "bins": 1000}
        code = cli.main(["dos", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and "num_realizations x (bins + 1) = 1001000" in err["error"]
        assert not (tmp_path / "o" / "dos.csv").exists()

    @pytest.mark.parametrize("gamma", [-0.5, 0.0])
    @pytest.mark.parametrize(
        "command, change, error",
        [
            ("zero-energy", {"steps": 2000}, "closed forms need gamma in (0, 1) or (1, inf)"),
            ("zariski", {"E_grid": [0.5], "certificate_samples": 3},
             "certificate applies to gamma in (0, 1) or (1, inf)"),
        ],
    )
    def test_zero_energy_gamma_domain_exits_2(self, tmp_path, capsys, command, change, error, gamma):
        cfg = {**FIXTURE_CFG, **change, "gamma": gamma}
        code = cli.main([command, "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {"error": error, "kind": "config"}

    @pytest.mark.parametrize(
        "command, change, product",
        [
            ("spectrum", {"n": 1000, "num_realizations": 1001}, "num_realizations x n = 1001000"),
            ("dos", {"n": 1000, "num_realizations": 1001, "bins": 1}, "num_realizations x n = 1001000"),
            ("thouless", {"energies": [0.5], "dos": {"n": 1000, "num_realizations": 1001}},
             "dos.num_realizations x dos.n = 1001000"),
            ("wegner-probe", {**WEGNER, "samples": 10**6, "L_list": [4, 10**6]},
             "samples x max(L_list) = 1000000000000"),
        ],
    )
    def test_too_many_chain_sites_exit_2_before_a_draw(self, tmp_path, capsys, monkeypatch, command, change,
                                                      product):
        # every field is in range, but the chains held at once would have more than cli._MAX_SIZE sites
        def refuse(*args, **kwargs):
            raise AssertionError("a chain was drawn")

        monkeypatch.setattr(model.SingleSiteDistribution, "sample", refuse)
        cfg = {**FIXTURE_CFG, **change}
        code = cli.main([command, "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and f"{product} exceeds {cli._MAX_SIZE}" in err["error"]

    def test_overflowing_decay_regressor_exits_3(self, tmp_path, capsys):
        # d^400 overflows for every distance d >= 6 of the fit
        cfg = {**FIXTURE_CFG, "n": 40, "window": [0.5, 1.5], "num_realizations": 2, "zeta": 400}
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        assert cli.main(["correlator", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical" and "d^zeta" in err["error"]

    @pytest.mark.parametrize("zeta", [1e-12, 1e-8, 1e-4])
    def test_degenerate_decay_fit_exits_3(self, tmp_path, capsys, zeta):
        # d^zeta is nearly constant over the bins: a rank-deficient design or an overflowing C
        cfg = {**FIXTURE_CFG, "n": 40, "window": [0.5, 1.5], "num_realizations": 2, "zeta": zeta}
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        assert cli.main(["correlator", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical" and f"zeta = {zeta}" in err["error"]

    def test_small_zeta_fit_is_finite(self, tmp_path, capsys):
        cfg = {**FIXTURE_CFG, "n": 40, "window": [0.5, 1.5], "num_realizations": 2, "zeta": 1e-3}
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.main(["correlator", "--config", cfg_path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        fit = json.loads((out / "fit.json").read_text())
        numbers = [fit["eta"], *fit["eta_ci"], fit["C"], fit["eta_se"]]
        assert all(math.isfinite(x) for x in numbers) and fit["eta"] > 0.0

    def test_wegner_scale_beyond_the_float_range_gives_zero_eps(self, tmp_path):
        # 400^1000 overflows a double, so eps = exp(-sigma 400^1000) is 0
        cfg_path = write_cfg(tmp_path / "c.json", {**FIXTURE_CFG, **WEGNER, "beta": 1000, "L_list": [400]})
        out = tmp_path / "o"
        assert cli.main(["wegner-probe", "--config", cfg_path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "wegner.csv")
        assert len(rows) == 1 and rows[0][:2] == [400.0, 0.0] and 0.0 <= rows[0][2] <= 1.0

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_non_object_config_exits_2(self, tmp_path, capsys, command):
        for i, cfg in enumerate(([1, 2], "text")):
            cfg_path = write_cfg(tmp_path / f"c{i}.json", cfg)
            code = cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")])
            assert code == 2
            assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_approximant_enumeration_guard_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_APPROXIMANT_SITES", 100)
        cfg = {"rho": {"kind": "uniform", "a": -1.0, "b": 1.0}, "gamma": 0.5, "max_period": 3,
               "samples_per_period": 5}
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        code = cli.main(["asspec", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "100 sites" in json.loads(capsys.readouterr().err)["error"]

    _HUGE_GAMMA_CFGS = {
        "periodic": {"potential": [1.0]},
        "asspec": {"rho": {"kind": "uniform", "a": -1.0, "b": 1.0}, "max_period": 2, "samples_per_period": 3},
    }

    @pytest.mark.parametrize("command", list(_HUGE_GAMMA_CFGS))
    @pytest.mark.parametrize("gamma", [1e308, 1.5e308])
    def test_band_edges_that_overflow_exit_3(self, tmp_path, capsys, command, gamma):
        cfg_path = write_cfg(tmp_path / "c.json", {**self._HUGE_GAMMA_CFGS[command], "gamma": gamma})
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical" and "not finite" in err["error"]
        assert not (out / "intervals.csv").exists()

    @pytest.mark.parametrize("command", list(_HUGE_GAMMA_CFGS))
    def test_band_edges_at_gamma_1e300_are_finite(self, tmp_path, command):
        # |1 + gamma| = 1e300 still fits the SVD; the row is the one written before the finiteness check
        cfg_path = write_cfg(tmp_path / "c.json", {**self._HUGE_GAMMA_CFGS[command], "gamma": 1e300})
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "intervals.csv")
        assert rows == [[-2e300, 2e300]]

    _CHAINS_CFG = {"seed": 1, "ell_values": [1, 2], "L_max": 6}

    @pytest.mark.parametrize("command, cfg", [
        pytest.param("green-check", _CHAINS_CFG, id="green-check"),
        pytest.param("charpoly-check", _CHAINS_CFG, id="charpoly-check"),
        pytest.param("correlator", {**FIXTURE_CFG, "n": 6, "window": [0.5, 1.5], "boundary": 0}, id="correlator"),
        pytest.param("spectrum", {**FIXTURE_CFG, "n": 6, "dump_matrix": True}, id="spectrum"),
        # hat matrix of size 2 n_verify = 12
        pytest.param("lr-stats", {**FIXTURE_CFG, "n": 6, "num_realizations": 2}, id="lr-stats"),
        # the dense route: 2 n_verify = 8 passes, 2^n_verify = 16 does not
        pytest.param("lr-stats", {**FIXTURE_CFG, "n": 4, "observables": ["z", "z"], "num_realizations": 2},
                     id="lr-stats-dense"),
        pytest.param("xy-verify", {**FIXTURE_CFG, "n": 4}, id="xy-verify"),  # 2^n_verify = 16
    ])
    def test_dense_reference_size_guard_exits_2(self, tmp_path, capsys, monkeypatch, command, cfg):
        monkeypatch.setattr(cli, "_MAX_DENSE_DIM", 10)

        def no_draws(*args, **kwargs):
            raise AssertionError("a random draw happened before the size guard")

        monkeypatch.setattr(cli, "realization_rng", no_draws)
        monkeypatch.setattr(model, "realization_rng", no_draws)
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        code = cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "exceeds 10" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("command", ["xy-verify", "lr-stats"])
    def test_n_verify_above_n_exits_2(self, tmp_path, capsys, command):
        cfg_path = write_cfg(tmp_path / "c.json", {**FIXTURE_CFG, "n": 4, "n_verify": 7})
        code = cli.main([command, "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "n_verify" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.filterwarnings("error")
    def test_cocycle_overflow_stderr_is_one_json_object(self, tmp_path, capsys):
        # |E| = 50 over 500 unnormalized steps overflows the block product;
        # any floating-point warning would be raised here as an error
        cfg = {"n": 2, "gamma": 0.5, "rho": {"kind": "two_point", "a": 0.0, "b": 1.0},
               "seed": 0, "E": 50.0, "steps": 25_000, "reorth_every": 500}
        cfg_path = write_cfg(tmp_path / "c.json", cfg)
        assert cli.main(["lyapunov", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert json.loads(err) == {"error": "cocycle frame overflowed; reduce reorth_every",
                                   "kind": "numerical"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("change", [{"mu": 1e160}, {"gamma": 1e155}, {"gamma": 1e300}])
    @pytest.mark.parametrize("command", ["lyapunov", "thouless", "zero-energy"])
    def test_couplings_beyond_1e154_do_not_overflow_the_hopping_term(self, tmp_path, capsys, command,
                                                                     change):
        # mu^2 and gamma^2 overflow a Python float; the mean log |det S| must not raise
        cfg = {"n": 2, "gamma": 0.5, "rho": {"kind": "uniform", "a": -1.0, "b": 1.0}, "seed": 1,
               "steps": 1000, "E": 0.5, "energies": [0.5], "dos": {"n": 10, "num_realizations": 2},
               **change}
        code = cli.main([command, "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
        assert code in (0, 3)
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert all(r["kind"] == "numerical" for r in records) and len(records) == (code == 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("E", [1e40, 1e100, 1e300])
    def test_zariski_energy_beyond_the_closure_range_exits_3(self, tmp_path, capsys, E):
        cfg_path = write_cfg(tmp_path / "c.json", {"gamma": 0.5, "E_grid": [E]})
        assert cli.main(["zariski", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
        (err,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert err["kind"] == "numerical" and "sp(2)" in err["error"]

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 2.0])
    def test_zariski_has_full_rank_up_to_a_million(self, tmp_path, gamma):
        grid = [3.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e5, 1e6]
        cfg_path = write_cfg(tmp_path / "c.json", {"gamma": gamma, "E_grid": grid})
        assert cli.main(["zariski", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
        _, header, rows = read_csv(tmp_path / "o" / "zariski.csv")
        assert header == ["E", "rank", "marginal_flag", "smallest_pivot", "largest_rejected"]
        assert [row[0] for row in rows] == grid
        assert all(row[1] == 10 for row in rows)
        # from E = 1e4 on the smallest pivot may come near RANK_TOL
        assert not any(row[2] for row in rows if row[0] <= 1e3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, mu, expected",
        [(command, mu, 0) for command in ("dos", "spectrum", "wegner-probe") for mu in (1e-160, 1e160)]
        + [("thouless", 1e-160, 3), ("thouless", 1e160, 3)],
    )
    def test_hopping_scale_does_not_decide_invertibility(self, tmp_path, capsys, command, mu, expected):
        # mu S(gamma) is as well conditioned at mu = 1e-160 or 1e160 as at mu = 1, although its
        # determinant under- or overflows; the cocycle and Schur sweep of thouless overflow
        cfg = {**FIXTURE_CFG, **WEGNER, "n": 8, "mu": mu, "steps": 1000, "energies": [0.5],
               "dos": {"n": 10, "num_realizations": 2}}
        code = cli.main([command, "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")])
        assert code == expected
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert all(r["kind"] == "numerical" for r in records) and len(records) == (code == 3)

    def test_missing_required_arg_is_usage_error(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "c.json", FIXTURE_CFG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--config", cfg_path])
        assert exc.value.code == 2

    def test_threads_flag_is_usage_error(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "c.json", FIXTURE_CFG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fourier", "--config", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; after usage errors it parses
        # and reports as a freshly built one does
        assert cli.build_parser() is cli.build_parser()
        fresh = cli.build_parser.__wrapped__()
        for argv in (["spectrum", "--config", "c.json"], ["fourier"], ["dos", "--help"]):
            messages = []
            for parser in (cli.build_parser(), fresh):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                messages.append((exc.value.code, capsys.readouterr()))
            assert messages[0] == messages[1]
        argv = ["dos", "--config", "c.json", "--out", "o", "--seed", "4", "--verbose"]
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


class TestGreenCheck:
    @pytest.mark.filterwarnings("error")
    def test_real_z_as_pair_emits_no_warning(self, tmp_path, capsys):
        cfg = {"seed": 3, "instances": 4, "ell_values": [2], "L_max": 12, "z": [0.1, 0.0]}
        out = tmp_path / "g"
        code = cli.main(["green-check", "--config", write_cfg(tmp_path / "g.json", cfg),
                         "--out", str(out), "--verbose"])
        assert code == 0
        _, header, rows = read_csv(out / "green_check.csv")
        assert header == ["instance", "ell", "L", "z_re", "z_im", "green_err", "wronskian_dev"]
        assert len(rows) == 4
        assert max(r[5] for r in rows) <= 1e-10
        assert max(r[6] for r in rows) <= 1e-10
        assert "worst pivot cond" in capsys.readouterr().err


class TestChainPasses:
    """green-check and charpoly-check run their chains as lanes of passes, one ell each."""

    CSV = {"green-check": "green_check.csv", "charpoly-check": "charpoly.csv"}

    def run(self, tmp_path, command, cfg, name="o"):
        out = tmp_path / name
        assert cli.main([command, "--config", write_cfg(tmp_path / f"{name}.json", cfg), "--out", str(out)]) == 0
        return (out / self.CSV[command]).read_bytes()

    @pytest.mark.parametrize("command, kernel", [("green-check", "fundamental_solutions"),
                                                 ("charpoly-check", "charpoly_identity_check")])
    def test_one_chain_per_pass_writes_the_same_bytes(self, tmp_path, monkeypatch, command, kernel):
        cfg = {"seed": 7, "instances": 30, "ell_values": [1, 2, 3], "L_max": 25, "z": [0.4, 0.2], "E": [0.4, 0.2]}
        cfg = {key: value for key, value in cfg.items() if key in cli._COMMANDS[command][1]}
        passes = []
        run_pass = getattr(cli.transfer, kernel)
        monkeypatch.setattr(cli.transfer, kernel, lambda chains, z: passes.append(len(chains)) or run_pass(chains, z))
        default = self.run(tmp_path, command, cfg, "default")
        assert len(passes) == 3 and sum(passes) == 30  # one pass per ell
        passes.clear()
        monkeypatch.setattr(cli, "_PASS_ENTRIES", 1)
        assert self.run(tmp_path, command, cfg, "single") == default
        assert passes == [1] * 30

    @pytest.mark.parametrize("command, ell, L_max, entries", [
        ("green-check", 3, 30, 10 * 30 * 30 * 3**2),
        ("charpoly-check", 3, 30, 10 * 30 * 30 * 3**2),
        ("green-check", 26, 2, None),
        ("charpoly-check", 13, 2, None),
    ])
    def test_peak_memory_does_not_grow_with_instances(self, tmp_path, monkeypatch, command, ell, L_max, entries):
        # ell = 3: passes of about ten chains of L <= 30 under a patched budget.  Wide ell: two-site chains under
        # the default budget, a few dozen to a pass, where a budget of 2**16 ell x ell blocks would run every
        # chain in one pass.  The 300 more rows take a few hundred bytes each, while running every chain of
        # the larger run in one pass would take over 10 MB more
        if entries is not None:
            monkeypatch.setattr(cli, "_PASS_ENTRIES", entries)
        peaks = []
        for instances in (100, 400):
            cfg = {"seed": 2, "instances": instances, "ell_values": [ell], "L_max": L_max}
            tracemalloc.start()
            try:
                self.run(tmp_path, command, cfg, f"n{instances}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 300 * 1000

    def test_failing_chain_names_its_instance(self, tmp_path, capsys, monkeypatch):
        # instance 1 becomes the two-site chain V = (0.5, -0.3), S = 1, whose first pivot at z = 0.5 is exactly 0
        drawn = []

        def singular_second(rng, ell, L):
            drawn.append(model.random_instance(rng, ell, L))  # the stream draws as before
            if len(drawn) == 2:
                return model.BlockJacobiMatrix(np.array([0.5, -0.3]).reshape(2, 1, 1), np.ones((1, 1, 1)))
            return drawn[-1]

        monkeypatch.setattr(cli, "random_instance", singular_second)
        cfg = {"seed": 3, "instances": 4, "ell_values": [1], "L_max": 12, "z": 0.5}
        out = tmp_path / "g"
        code = cli.main(["green-check", "--config", write_cfg(tmp_path / "g.json", cfg), "--out", str(out)])
        assert code == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "numerical"
        assert error["error"].startswith("instance 1: exactly singular Schur pivot")
        assert not (out / "green_check.csv").exists()


class TestThoulessCommand:
    CFG = {"n": 2, "gamma": 0.5, "rho": {"kind": "uniform", "a": -1.0, "b": 1.0}, "seed": 11,
           "steps": 2000, "dos": {"n": 40, "num_realizations": 5}}

    def test_dos_term_is_the_eigenvalue_mean(self, tmp_path):
        energies = [[1.0, 0.5], [-0.4, 0.05], 0.37, [2.6, 0.0]]
        cfg = {**self.CFG, "energies": energies}
        out = tmp_path / "t"
        assert cli.main(["thouless", "--config", write_cfg(tmp_path / "t.json", cfg), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "thouless.csv")
        dos_params = params_from_config({**cfg, "n": 40})
        lam = np.concatenate([
            scipy.linalg.eig_banded(
                assemble_block_jacobi(dos_params, sample_disorder(dos_params, 12, r)).band(),
                lower=True, eigvals_only=True,
            )
            for r in range(5)
        ])
        assert lam.size == 5 * 80
        for E, row in zip(energies, rows):
            got = dict(zip(header, row))
            E = complex(*E) if isinstance(E, list) else complex(E)
            assert (got["E_re"], got["E_im"]) == (E.real, E.imag)
            assert abs(got["dos_term"] - np.mean(np.log(np.abs(E - lam)))) <= 1e-10
            assert got["predicted"] == got["hopping_term"] + got["dos_term"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("E, message", [(0.0, "singular Schur pivot"), (1e-310, "not finite")])
    def test_singular_pivot_at_real_energy_exits_3(self, tmp_path, capsys, E, message):
        # with nu = 0 every V_k vanishes, so at E = 0 the first pivot V_1 - E is the zero
        # block; at a subnormal E its inverse overflows
        cfg = {**self.CFG, "rho": {"kind": "uniform", "a": 0.0, "b": 0.0}, "energies": [[1.0, 0.5], E]}
        out = tmp_path / "t"
        code = cli.main(["thouless", "--config", write_cfg(tmp_path / "t.json", cfg), "--out", str(out)])
        assert code == 3
        # stderr is pure JSON: the constant-field warning, then the error
        warning, err = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert warning == {"warning": "disorder distribution is almost surely constant",
                           "kind": "TrivialDisorderWarning"}
        assert err["kind"] == "numerical" and message in err["error"]
        assert not (out / "thouless.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "change, E, cause, other",
        [({"mu": 1e160}, 0.5, "overflowed", "sub-chain"),
         ({"rho": {"kind": "uniform", "a": 0.0, "b": 0.0}}, 1e-310, "sub-chain eigenvalue", "overflow")],
    )
    def test_log_determinant_failure_names_its_cause(self, tmp_path, capsys, change, E, cause, other):
        # at mu = 1e160 the Schur update B^t P^-1 B overflows; with nu = 0 the first pivot
        # -E I at a subnormal E has a determinant that underflows before the update divides by it
        cfg = {**self.CFG, **change, "energies": [E]}
        out = tmp_path / "t"
        code = cli.main(["thouless", "--config", write_cfg(tmp_path / "t.json", cfg), "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["kind"] == "numerical" and cause in err["error"] and other not in err["error"]


class TestJsonCommands:
    def test_zero_energy_payload(self, tmp_path):
        cfg = {
            "n": 40,
            "gamma": 0.5,
            "rho": {"kind": "uniform", "a": -1.0, "b": 1.0},
            "seed": 4,
            "steps": 2000,
        }
        cfg_path = write_cfg(tmp_path / "z.json", cfg)
        out = tmp_path / "z"
        assert cli.main(["zero-energy", "--config", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "zero_energy.json").read_text())
        assert payload["config"]["seed"] == 4
        assert payload["branch"] == "unit_determinant"
        assert len(payload["predicted"]) == 4
        assert len(payload["direct"]) == 4
        assert payload["max_deviation_in_se"] >= 0.0


UNIFORM = {"kind": "uniform", "a": -1.0, "b": 1.0}
MODEL = {"n": 4, "gamma": 0.5, "rho": UNIFORM, "seed": 5}
# the required fields of each subcommand, and nothing else
MINIMAL = {
    "spectrum": MODEL,
    "dos": MODEL,
    "periodic": {"potential": [1.0], "gamma": 0.5},
    "asspec": {"rho": UNIFORM, "gamma": 0.5},
    "green-check": {"seed": 5},
    "charpoly-check": {"seed": 5},
    "lyapunov": {**MODEL, "E": [1.0, 0.5]},
    "thouless": {**MODEL, "energies": [[1.0, 0.5]]},
    "zero-energy": MODEL,
    "alpha-scan": {"seed": 5, "gamma": 0.5, "rho": UNIFORM, "alpha_lo": 0.1, "alpha_hi": 1.0},
    "zariski": {"gamma": 0.5, "E_grid": [0.5]},
    "correlator": {**MODEL, "n": 30, "window": [0.5, 1.5]},
    "wegner-probe": {**MODEL, "E": 1.0, "L_list": [4], "beta": 0.5, "sigma": 0.5},
    "xy-verify": MODEL,
    "lr-stats": MODEL,
}


SRC = Path(__file__).resolve().parents[1] / "src"
# runs [command, config path, output directory] triples through cli.main in a fresh
# interpreter and prints the scipy modules loaded after the import and after each run
FRESH_RUNS = """
import json, sys
import randblock, randblock.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

report = {"import": scipy_modules(), "runs": []}
for command, cfg_path, out in json.loads(sys.argv[1]):
    code = randblock.cli.main([command, "--config", cfg_path, "--out", out])
    report["runs"].append({"command": command, "code": code, "scipy": scipy_modules()})
print(json.dumps(report))
"""


def run_fresh(tmp_path, runs: dict) -> dict:
    """Run each (command, config) of runs in one fresh interpreter on this checkout's src/.

    The artifacts of run `name` go to tmp_path / "fresh" / name; returns the report of FRESH_RUNS.
    """
    triples = [(command, write_cfg(tmp_path / f"fresh-{name}.json", cfg), str(tmp_path / "fresh" / name))
               for name, (command, cfg) in runs.items()]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps(triples)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyIsLoadedOnlyWhereUsed:
    """scipy is imported by the routes that call it, not by `import randblock.cli`."""

    # small configs of commands none of whose routes call scipy
    WITHOUT_SCIPY = {
        "dos": {**MODEL, "num_realizations": 2},
        "correlator": {**MODEL, "n": 30, "window": [0.5, 1.5], "num_realizations": 2},
        "wegner-probe": {**MODEL, "E": 1.0, "L_list": [4, 8], "beta": 0.5, "sigma": 0.5, "samples": 4},
        "lyapunov": {**MODEL, "E": [1.0, 0.5], "steps": 2000},
        "zero-energy": {**MODEL, "steps": 2000},
        "alpha-scan": {"seed": 5, "gamma": 0.5, "rho": UNIFORM, "alpha_lo": 0.1, "alpha_hi": 1.0, "steps": 2000,
                       "grid_points": 3},
        "thouless": {**MODEL, "energies": [[1.0, 0.5], 0.3], "steps": 2000,
                     "dos": {"n": 10, "num_realizations": 2}},
        "green-check": {"seed": 5, "instances": 3, "L_max": 8},
        "charpoly-check": {"seed": 5, "instances": 3, "L_max": 8},
        "periodic": {"potential": [1.0, -1.0], "gamma": 0.5},
        "asspec": {"rho": UNIFORM, "gamma": 0.5, "max_period": 2, "samples_per_period": 5},
        "lr-stats": {**MODEL, "t_points": 20, "num_realizations": 2},
        "xy-verify": MODEL,
        "zariski": {"gamma": 0.5, "E_grid": [0.0, 0.5], "certificate_samples": 10, "seed": 5},
    }
    # configs whose routes call scipy: the banded eigensolve;
    # the 8 bins of this dos split [-4, 4], so the edges 0 and 1 lie on the atoms of
    # two_point(0, 1), some counts are unresolved and take the banded eigensolve
    WITH_SCIPY = {
        "spectrum": ("spectrum", {**MODEL, "num_realizations": 2}),
        "dos-fallback": ("dos", {"n": 50, "gamma": 0.5, "rho": {"kind": "two_point", "a": 0.0, "b": 1.0},
                                 "seed": 5, "num_realizations": 4, "bins": 8}),
    }

    def test_commands_without_scipy_routes_never_load_it(self, tmp_path):
        report = run_fresh(tmp_path, {command: (command, cfg) for command, cfg in self.WITHOUT_SCIPY.items()})
        assert report["import"] == []
        assert report["runs"] == [{"command": command, "code": 0, "scipy": []} for command in self.WITHOUT_SCIPY]

    @pytest.mark.parametrize("name", list(WITH_SCIPY))
    def test_deferred_route_matches_a_process_with_scipy(self, tmp_path, name):
        command, cfg = self.WITH_SCIPY[name]
        (run,) = run_fresh(tmp_path, {name: (command, cfg)})["runs"]
        assert run["code"] == 0 and run["scipy"], "the route ran without loading scipy"
        # this process imported scipy before the program
        here = tmp_path / "here"
        assert cli.main([command, "--config", write_cfg(tmp_path / "here.json", cfg), "--out", str(here)]) == 0
        fresh = tmp_path / "fresh" / name
        names = sorted(p.name for p in here.iterdir())
        assert sorted(p.name for p in fresh.iterdir()) == names
        for artifact in names:
            assert (fresh / artifact).read_bytes() == (here / artifact).read_bytes(), artifact

    def test_bands_oracles_workload_never_loads_scipy(self, tmp_path, monkeypatch):
        workloads = load_bench_workloads(monkeypatch)
        jobs = workloads.warmup_jobs("bands-oracles") + workloads.jobs_for("bands-oracles", 1)
        report = run_fresh(tmp_path, {job.name: (job.command, job.cfg) for job in jobs})
        assert report["runs"] == [{"command": job.command, "code": 0, "scipy": []} for job in jobs]


# runs asspec on atoms through cli.main in a fresh interpreter and prints its exit
# code and whether numpy.ma was loaded before and after
FRESH_ASSPEC = """
import sys
import randblock.cli
before = "numpy.ma" in sys.modules
code = randblock.cli.main(["asspec", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, before, "numpy.ma" in sys.modules)
"""


def test_asspec_on_atoms_never_loads_numpy_ma(tmp_path):
    # np.unique, which a discrete law's support lattice once called, imports numpy.ma on its first call
    cfg = {"rho": {"kind": "two_point", "a": 0.0, "b": 1.0}, "gamma": 0.5, "max_period": 2}
    argv = [sys.executable, "-c", FRESH_ASSPEC, write_cfg(tmp_path / "a.json", cfg), str(tmp_path / "o")]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False"]


def load_bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestEffectiveConfig:
    """Artifacts embed the defaults they ran with and replay bit for bit."""

    BASE = {"n": 2, "gamma": 0.5, "rho": UNIFORM, "seed": 5}

    def run(self, tmp_path, command, cfg, name):
        out = tmp_path / name
        code = cli.main([command, "--config", write_cfg(tmp_path / f"{name}.json", cfg), "--out", str(out)])
        assert code == 0
        return out

    def replay(self, tmp_path, command, cfg, artifact, read_config):
        first = self.run(tmp_path, command, cfg, "first") / artifact
        embedded = read_config(first)
        second = self.run(tmp_path, command, embedded, "second") / artifact
        assert first.read_bytes() == second.read_bytes()
        return embedded

    def test_lyapunov_embeds_steps_and_reorth_every(self, tmp_path):
        cfg = {**self.BASE, "E": [1.0, 0.5]}
        embedded = self.replay(tmp_path, "lyapunov", cfg, "lyapunov.csv", lambda p: read_csv(p)[0])
        assert embedded["steps"] == DEFAULT_STEPS
        assert embedded["reorth_every"] == DEFAULT_REORTH

    TWO_POINT = {"kind": "two_point", "a": 0.0, "b": 1.0}

    @pytest.mark.parametrize("command, cfg, artifact", [
        ("dos", {"n": 4, "gamma": 0.5, "seed": 5, "num_realizations": 2, "bins": 5}, "dos.csv"),
        ("asspec", {"gamma": 0.5, "max_period": 2}, "intervals.csv"),
        ("alpha-scan", {"seed": 5, "gamma": 0.5, "alpha_lo": 0.1, "alpha_hi": 1.0, "steps": 2000,
                        "grid_points": 3}, "scan.csv"),
    ])
    def test_two_point_rho_embeds_its_default_p(self, tmp_path, command, cfg, artifact):
        cfg = {**cfg, "rho": dict(self.TWO_POINT)}
        embedded = self.replay(tmp_path, command, cfg, artifact, lambda p: read_csv(p)[0])
        assert embedded["rho"] == {**self.TWO_POINT, "p": 0.5}
        # the run with p given writes the same bytes
        given = self.run(tmp_path, command, {**cfg, "rho": {**self.TWO_POINT, "p": 0.5}}, "given") / artifact
        assert given.read_bytes() == (tmp_path / "first" / artifact).read_bytes()

    def test_zero_energy_embeds_steps(self, tmp_path):
        embedded = self.replay(
            tmp_path, "zero-energy", self.BASE, "zero_energy.json",
            lambda p: json.loads(p.read_text())["config"],
        )
        assert embedded["steps"] == DEFAULT_STEPS
        assert "reorth_every" not in embedded

    def test_given_fields_are_kept(self, tmp_path):
        cfg = {**self.BASE, "n": 20, "energies": [[1.0, 0.5]], "steps": 2000.0,
               "dos": {"num_realizations": 2}}
        embedded, _, _ = read_csv(self.run(tmp_path, "thouless", cfg, "t") / "thouless.csv")
        assert embedded["steps"] == 2000.0
        assert embedded["dos"] == {"n": 20, "num_realizations": 2}
        # a field the table does not declare is echoed as given
        cfg["dos"]["bins"] = 50
        embedded, _, _ = read_csv(self.run(tmp_path, "thouless", cfg, "b") / "thouless.csv")
        assert embedded["dos"] == {"n": 20, "num_realizations": 2, "bins": 50}

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_minimal_config_embeds_every_field(self, tmp_path, command):
        first = self.run(tmp_path, command, MINIMAL[command], "first")
        names = sorted(p.name for p in first.iterdir())
        for name in names:
            path = first / name
            embedded = read_csv(path)[0] if path.suffix == ".csv" else json.loads(path.read_text())["config"]
            for key, field in cli._COMMANDS[command][1].items():
                assert key in embedded
                if isinstance(field.kind, dict):
                    assert set(field.kind) <= set(embedded[key])
        second = self.run(tmp_path, command, embedded, "second")
        assert sorted(p.name for p in second.iterdir()) == names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_benchmark_job_configs_parse(self, monkeypatch):
        # the benchmark configs spell out every field, so parsing adds nothing
        # to them and their artifacts do not depend on the declared defaults
        workloads = load_bench_workloads(monkeypatch)
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs_for(workload, 1):
                cfg = copy.deepcopy(job.cfg)
                cli._parse_config(job.command, cfg)
                assert cfg == job.cfg, job.name
                if job.command == "lr-stats":
                    assert cfg["method"] == "fermionic"
            for job in workloads.warmup_jobs(workload):
                cli._parse_config(job.command, copy.deepcopy(job.cfg))
