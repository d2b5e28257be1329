"""End-to-end command-line runs: exit codes, files written, CSV shapes."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccml1.cli import main
from ccml1.scenario import SCHEMA_VERSION, builtin_scenario, canonical_json


def _short_ex1_doc(**extra):
    """Built-in plant with a cheap horizon so simulate finishes quickly."""
    doc = {
        "version": SCHEMA_VERSION,
        "name": "ex1-short",
        "model": {"builtin": "ex1"},
        "tube": {"eps": 0.01, "rho_a": 0.02},
        "l1": {"omega": 50.0, "gamma": 1e5},
        "sim": {"dt": 1e-3, "t_final": 0.05, "seed": 0},
        "init": {"x0": [0.01, -0.01, 0.01]},
        "desired": {"kind": "constant", "state": [0.0, 0.0, 0.0],
                    "input": [0.0]},
    }
    doc.update(extra)
    return doc


DATA = Path(__file__).parent / "data"


def _inline_doc(state_dim, input_dim, drift, input_matrix, dual, **metric):
    """Inline scenario with a constant dual metric (given as a matrix)."""
    dual_table = [[[{"powers": [0] * state_dim, "coeff": float(v)}] if v
                   else [] for v in row] for row in dual]
    return {
        "version": SCHEMA_VERSION,
        "name": "inline",
        "model": {"state_dim": state_dim, "input_dim": input_dim,
                  "drift": drift, "input_matrix": {"constant": input_matrix}},
        "metric": dict({"dual": dual_table, "rate": 0.5, "eig_floor": 0.9,
                        "eig_ceil": 1.1}, **metric),
        "sim": {"dt": 0.01, "t_final": 1.0},
        "desired": {"kind": "constant", "state": [0.0] * state_dim,
                    "input": [0.0] * input_dim},
        "sampling": {"ccm_samples": 300},
    }


def _write(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(canonical_json(doc), encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [],
        ["simulate"],                                  # no source given
        ["certify", "--builtin", "ex9"],               # not a choice
        ["frobnicate", "--builtin", "ex1"],
        ["certify", "--builtin", "ex1", "--seed", "-3"],
    ])
    def test_bad_invocations_exit_1(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err != ""

    def test_both_sources_exit_1(self, tmp_path, capsys):
        path = _write(tmp_path, _short_ex1_doc())
        rc = main(["certify", "--builtin", "ex1", "--scenario", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    def test_missing_and_malformed_scenario_files(self, tmp_path, capsys):
        rc = main(["certify", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        rc = main(["certify", "--scenario", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "certify" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "ccml1.cli", "--help"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


class TestCertify:
    def test_builtin_tuning_reported_honestly(self, tmp_path, capsys):
        # the shipped hand tuning does not satisfy every inequality; the
        # verb must say so and exit nonzero rather than rubber-stamp it
        rc = main(["certify", "--builtin", "ex1", "--out", str(tmp_path)])
        assert rc == 2
        assert "INVALID" in capsys.readouterr().out
        report = json.loads((tmp_path / "certificate.json").read_text())
        assert report["searched"] is False
        assert report["certificate"]["valid"] is False
        margins = report["certificate"]["margins"]
        assert set(margins) == {"energy", "bandwidth", "adaptation"}

    def test_auto_search_finds_a_valid_tuning(self, tmp_path, capsys):
        doc = _short_ex1_doc(name="auto", l1={"omega": "auto",
                                              "gamma": "auto"},
                             tube={"eps": 0.05, "rho_a": 0.02})
        path = _write(tmp_path, doc)
        rc = main(["certify", "--scenario", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "valid" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert report["searched"] is True
        assert report["certificate"]["valid"] is True
        assert report["certificate"]["omega"] > 2.0 * 0.995


EXPECTED_COLUMNS = (["t"]
                    + [f"x[{i}]" for i in range(3)]
                    + [f"x_star[{i}]" for i in range(3)]
                    + ["u_c[0]", "u_a[0]", "sigma_hat[0]",
                       "xtilde_norm", "energy", "dist", "rho", "delta_t"])


class TestSimulate:
    def test_writes_everything(self, tmp_path):
        path = _write(tmp_path, _short_ex1_doc())
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        for name in ("certificate.json", "scenario.json", "containment.json",
                     "closed_loop.csv", "reference.csv", "nominal.csv",
                     "plot_bounds.csv"):
            assert (out / name).exists(), name

        # the echoed scenario is the canonical serialization, byte for byte
        assert (out / "scenario.json").read_bytes() == path.read_bytes()

        header, rows = _read_csv(out / "closed_loop.csv")
        assert header == EXPECTED_COLUMNS
        assert len(rows) == 51                    # t_final/dt + 1
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(0.05)

        report = json.loads((out / "containment.json").read_text())
        assert report["diverged"] is None
        assert report["l1_enabled"] is True
        for section in ("closed_loop", "reference", "nominal"):
            assert "contained" in report[section]
            assert "sup_xtilde" in report[section]

        bheader, brows = _read_csv(out / "plot_bounds.csv")
        assert bheader == ["t", "dist_closed", "dist_reference",
                           "dist_nominal", "rho", "rho_r", "delta_t", "mu"]
        assert len(brows) == 51

    def test_deterministic_rerun(self, tmp_path):
        path = _write(tmp_path, _short_ex1_doc())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(b)]) == 0
        for name in ("closed_loop.csv", "reference.csv", "nominal.csv",
                     "certificate.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_lands_in_echo(self, tmp_path):
        path = _write(tmp_path, _short_ex1_doc())
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(path), "--out", str(out),
                   "--seed", "7"])
        assert rc == 0
        echoed = json.loads((out / "scenario.json").read_text())
        assert echoed["sim"]["seed"] == 7

    def test_ablation_flag_disables_adaptation(self, tmp_path):
        path = _write(tmp_path, _short_ex1_doc())
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(path), "--out", str(out),
                   "--no-l1"])
        assert rc == 0
        report = json.loads((out / "containment.json").read_text())
        assert report["l1_enabled"] is False
        assert report["closed_loop"]["sup_sigma_hat"] == 0.0
        header, rows = _read_csv(out / "closed_loop.csv")
        col = header.index("u_a[0]")
        assert all(float(r[col]) == 0.0 for r in rows)

    def test_fast_adaptation_warning(self, tmp_path, capsys):
        doc = _short_ex1_doc(l1={"omega": 50.0, "gamma": 5e6})
        path = _write(tmp_path, doc)
        rc = main(["simulate", "--scenario", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "adaptation_gain * dt" in capsys.readouterr().err

    def test_divergence_exits_3_with_partial_output(self, tmp_path, capsys):
        doc = _short_ex1_doc(sim={"dt": 1e-3, "t_final": 0.05, "seed": 0,
                                  "divergence_limit": 0.005})
        path = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err
        report = json.loads((out / "containment.json").read_text())
        assert "diverged at step" in report["diverged"]
        _, rows = _read_csv(out / "closed_loop.csv")
        assert 1 <= len(rows) < 51                # truncated history
        # each loop runs on its own: the closed loop's divergence leaves the
        # reference and nominal loops to run and write their outputs
        assert (out / "reference.csv").exists()
        assert (out / "nominal.csv").exists()
        assert {"closed_loop", "reference", "nominal"} <= set(report)
        assert report["closed_loop"]["diverged"] == report["diverged"]


class TestSweep:
    def test_grid_rows_in_order_with_failures_inline(self, tmp_path, capsys):
        doc = _short_ex1_doc(sweep={"omega": [1.99, 30.0, 60.0],
                                    "gamma": [1e4]})
        path = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        header, rows = _read_csv(out / "sweep.csv")
        assert header == ["omega", "gamma", "eps", "rho_a", "rho", "valid",
                          "margin_energy", "margin_bandwidth",
                          "margin_adaptation", "sup_dist", "sup_xtilde",
                          "sup_sigma_hat", "contained", "status"]
        assert [float(r[0]) for r in rows] == [1.99, 30.0, 60.0]
        # 1.99 is twice the contraction rate: the interference terms blow
        # up there, so that row fails cleanly and the rest still run
        assert rows[0][-1].startswith("ValueError")
        assert rows[1][-1] == "ok" and rows[2][-1] == "ok"
        assert "3 combinations, 2 ran cleanly" in capsys.readouterr().out

    def test_auto_axis_needs_explicit_list(self, tmp_path, capsys):
        doc = _short_ex1_doc(l1={"omega": "auto", "gamma": 1e4},
                             sweep={"gamma": [1e4]})
        path = _write(tmp_path, doc)
        rc = main(["sweep", "--scenario", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "omega" in capsys.readouterr().err


class TestCheckCcm:
    def test_builtin_passes(self, tmp_path, capsys):
        doc = _short_ex1_doc(sampling={"ccm_samples": 500})
        path = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["check-ccm", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((out / "ccm_check.json").read_text())
        assert report["passed"] is True
        assert report["n_samples"] == 500

    def test_uncontractive_metric_fails(self, tmp_path, capsys):
        # identity metric on a plant whose unactuated direction does not
        # contract: the sampled condition must reject it
        doc = {
            "version": SCHEMA_VERSION,
            "name": "bad-metric",
            "model": {
                "state_dim": 2,
                "input_dim": 1,
                "drift": [
                    [{"powers": [0, 1], "coeff": 1.0}],
                    [{"powers": [1, 0], "coeff": -1.0},
                     {"powers": [0, 1], "coeff": -1.0}],
                ],
                "input_matrix": {"constant": [[0.0], [1.0]]},
            },
            "metric": {
                "dual": [[[{"powers": [0, 0], "coeff": 1.0}], []],
                         [[], [{"powers": [0, 0], "coeff": 1.0}]]],
                "rate": 0.5,
                "eig_floor": 0.9,
                "eig_ceil": 1.1,
                "domain": {"kind": "box", "center": [0.0, 0.0],
                           "half_widths": [2.0, 2.0]},
            },
            "sim": {"dt": 0.01, "t_final": 1.0},
            "desired": {"kind": "constant", "state": [0.0, 0.0],
                        "input": [0.0]},
            "sampling": {"ccm_samples": 300},
        }
        path = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["check-ccm", "--scenario", str(path), "--out", str(out)])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((out / "ccm_check.json").read_text())
        assert report["passed"] is False
        assert report["contraction_margin"] < 0.0

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_builtin_report_matches_golden_bytes(self, name, tmp_path):
        out = tmp_path / "out"
        rc = main(["check-ccm", "--builtin", name, "--seed", "0",
                   "--out", str(out)])
        assert rc == 0
        golden = DATA / f"ccm_check_{name}_seed0.json"
        assert (out / "ccm_check.json").read_bytes() == golden.read_bytes()

    def test_fully_actuated_model_writes_null_margin(self, tmp_path, capsys):
        # one state, one input: input^T metric never has a null space, so
        # the contraction condition has nothing to check
        doc = _inline_doc(
            1, 1, [[{"powers": [1], "coeff": -1.0}]], [[1.0]], [[1.0]],
            domain={"kind": "box", "center": [0.0], "half_widths": [1.0]})
        path = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["check-ccm", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((out / "ccm_check.json").read_text())
        assert report["passed"] is True
        assert report["contraction_margin"] is None
        assert report["contraction_checked"] is False
        assert report["eig_margin"] > 0.0

    def test_no_bounded_region_is_a_scenario_error(self, tmp_path, capsys):
        # without metric.domain the only region is the unbounded safe set
        doc = _inline_doc(
            2, 1, [[{"powers": [0, 1], "coeff": 1.0}],
                   [{"powers": [1, 0], "coeff": -1.0},
                    {"powers": [0, 1], "coeff": -1.0}]],
            [[0.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]])
        path = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["check-ccm", "--scenario", str(path), "--out", str(out)])
        assert rc == 1
        assert "bounded region" in capsys.readouterr().err
        assert not (out / "ccm_check.json").exists()

    @pytest.mark.parametrize("sampling", [{"ccm_samples": "abc"},
                                          {"ccm_samples": -5},
                                          {"ccm_smaples": 500}])
    def test_bad_sampling_section_exits_1(self, sampling, tmp_path, capsys):
        path = _write(tmp_path, _short_ex1_doc(sampling=sampling))
        rc = main(["check-ccm", "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "sampling" in capsys.readouterr().err


class TestPlannerAndParseFailures:
    @pytest.mark.parametrize("verb", ["simulate", "certify"])
    def test_planner_failure_exits_2_without_traceback(self, verb, tmp_path,
                                                       capsys, monkeypatch):
        from ccml1 import cli
        from ccml1.errors import PlannerFailure

        def fail(*args, **kwargs):
            raise PlannerFailure("no cost decrease at max regularization")

        monkeypatch.setattr(cli, "ilqr_plan", fail)
        rc = main([verb, "--builtin", "ex2", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("planner failed: no cost decrease at max "
                       "regularization\n")
        assert "Traceback" not in err

    @staticmethod
    def _ex2_doc(**desired):
        doc = builtin_scenario("ex2").doc
        return dict(doc, desired=dict(doc["desired"], **desired))

    def _run(self, doc, tmp_path, verb="simulate"):
        path = _write(tmp_path, doc)
        return main([verb, "--scenario", str(path),
                     "--out", str(tmp_path / "out")])

    def test_plan_without_dt_exits_1(self, tmp_path, capsys):
        doc = self._ex2_doc()
        del doc["desired"]["dt"]
        assert self._run(doc, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "'dt'" in err

    def test_non_numeric_start_exits_1(self, tmp_path, capsys):
        assert self._run(self._ex2_doc(start="abc"), tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "desired.start" in err

    def test_unknown_desired_key_exits_1(self, tmp_path, capsys):
        assert self._run(self._ex2_doc(t_finale=8.0), tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "t_finale" in err

    @pytest.mark.parametrize("verb", ["check-ccm", "certify", "simulate",
                                      "sweep"])
    def test_non_positive_definite_dual_exits_1(self, verb, tmp_path,
                                                capsys):
        doc = _inline_doc(
            1, 1, [[{"powers": [1], "coeff": -1.0}]], [[1.0]], [[1.0]],
            domain={"kind": "box", "center": [0.0], "half_widths": [2.0]})
        doc["metric"]["dual"] = [[[{"powers": [0], "coeff": 1.0},
                                   {"powers": [2], "coeff": -1.0}]]]
        assert self._run(doc, tmp_path, verb) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error: metric dual is not positive "
                              "definite at x = ")
        assert "Traceback" not in err
