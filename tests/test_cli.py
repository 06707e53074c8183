import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stablehom import cli, env
from stablehom.errors import ConfigurationError


def sweep_config(**overrides):
    cfg = {
        "schema_version": 1,
        "experiment": "sweep",
        "grid": {"dim": 1, "length": 8.0, "n": 64},
        "alpha": 1.0,
        "form": {"kind": "constant", "k0": 1.5},
        "eps_list": [1.0, 0.5],
        "seeds": 2,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# Configs with the resolved echo (json.dumps(resolved, indent=1)) or the
# rejection message that parse_config gave for each at commit c7a8b35, before
# the config layer became a declarative schema: one minimal and one fully
# specified config per experiment and diagnostic kind, and rejections of
# unknown, missing, mistyped and inapplicable keys, wrong-kind parameters,
# bad axis lengths, range rules and unresolved grids.  The `library-*`
# rejections came later: bounds of the solver, the sweep, the cone, the
# diagnostics and example 17's marginal that `run` used to meet only at run
# time, with the library check's own message.  Some `library-*` configs (zero
# radii, a negative translation step) used to crash `run` or pass it with an
# all-zero test function.  A library object's own refusal (grid, cone, form,
# field, marginal, mixing, angular weight) is prefixed with its section's
# path, as in `library-form-field-marginal`.
# The `gate-*` rejections pin KernelParams' refusal of jump forms beyond d = 2,
# which used to run a 3D sweep on an unverified sub-cell correction and a 4D
# one on none.
# `library-translation-radius-*`, `library-moments-radius-negative` and
# `library-mosco-threshold` used to pass `validate` too: a negative radius
# measured the ball of its absolute value, a zero one a single node, and a
# negative threshold failed every run.
# So did `library-sweep-tol-floor`, a tol below the 1e-12 that CG's true
# residual can reach, and the `*-mean-*` configs, whose limit needs a finite
# mean: `run` refused the sweep and mosco forms of infinite mean with this
# message, crashed on the one whose mean overflows, and ran the sweep whose
# measure has an infinite mean against a meaningless limit.
# `library-moments-eps-single` used to pass `run` with growth slope 0 whatever
# the form.  `removed-kind-tails` pins the refusal of the deleted `tails`
# diagnostic, whose probe measured the jump cutoff L/4 and the test
# function's support on this torus rather than the kernel's tails.  The other
# `removed-kind-*` configs pin the refusal of the nash, cone, birkhoff, maximal
# and covariance diagnostics, which read no coefficient of the config: the
# constant kernel's inequalities and the field generator's ergodicity are
# acceptance criteria 6 and 7, which call the library directly.  With them
# went the top-level `field` key: `unknown-field` now pins its refusal, and
# `wrong-kind-diagnostics` gives translation a key of moments.
# `validate` accepted `library-moments-radius-large`, a ball of 12,853 nodes
# whose node-by-node matrices take 1.26 GiB each.  `validate` and `run` both
# accepted `library-example17-inv-lambda1-mean-infinite`, whose infinite
# z_mu made the time-changed constant 0, and passed its check.
CORPUS = json.loads((pathlib.Path(__file__).parent / "config_corpus.json").read_text())
REPORTS = json.loads((pathlib.Path(__file__).parent / "report_corpus.json").read_text())


# ---------------------------------------------------------------------------
# parsing: defaults, echo stability, rejection messages


def test_defaults_are_expanded():
    parsed = cli.parse_config(json.dumps(sweep_config()))
    r = parsed.resolved
    assert parsed.kind == "sweep"
    assert r["master_seed"] == 0
    assert r["lambda"] == 1.0
    assert r["tol"] == 1e-9
    assert r["cone"] == {"axis": [1.0], "aperture": 0.0, "full_space": True}
    assert r["mu"] is None
    assert r["report_radius"] is None


def test_echo_reparses_identically():
    configs = [json.dumps(sweep_config())] + [e["config"] for e in CORPUS if "echo" in e]
    for config in configs:
        first = cli.parse_config(config).resolved
        text = json.dumps(first, indent=1)
        second = cli.parse_config(text).resolved
        assert first == second
        assert json.dumps(second, indent=1) == text


@pytest.mark.parametrize("entry", CORPUS, ids=[e["name"] for e in CORPUS])
def test_corpus_echoes_and_messages_unchanged(entry):
    if "echo" in entry:
        assert json.dumps(cli.parse_config(entry["config"]).resolved, indent=1) == entry["echo"]
    else:
        with pytest.raises(ConfigurationError) as exc:
            cli.parse_config(entry["config"])
        assert str(exc.value) == entry["error"]


@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"],
)
def test_non_finite_numbers_rejected(literal):
    text = json.dumps(sweep_config()).replace('"eps_list": [1.0, 0.5]',
                                              f'"eps_list": [1.0, {literal}]')
    with pytest.raises(ConfigurationError, match=r"^config.eps_list\[1\] must be a finite number$"):
        cli.parse_config(text)


def test_unknown_top_level_key():
    with pytest.raises(ConfigurationError, match="unknown key 'alpa' in config"):
        cli.parse_config(json.dumps(sweep_config(alpa=1.0)))


def test_unknown_nested_key():
    cfg = sweep_config(grid={"dim": 1, "lenght": 8.0, "n": 64})
    with pytest.raises(ConfigurationError, match="unknown key 'lenght' in config.grid"):
        cli.parse_config(json.dumps(cfg))


def test_missing_required_key():
    cfg = sweep_config()
    del cfg["eps_list"]
    with pytest.raises(ConfigurationError, match="requires top-level key 'eps_list'"):
        cli.parse_config(json.dumps(cfg))


def test_inapplicable_key_rejected():
    cfg = {
        "schema_version": 1,
        "experiment": "estimate_constant",
        "grid": {"dim": 1, "length": 8.0, "n": 64},
        "alpha": 1.0,
        "form": {"kind": "constant", "k0": 1.0},
        "estimate": {"eps": 0.5},
        "eps_list": [1.0, 0.5],
    }
    with pytest.raises(
        ConfigurationError, match="key 'eps_list' does not apply to experiment 'estimate_constant'"
    ):
        cli.parse_config(json.dumps(cfg))


def test_inapplicable_key_for_diagnostic_kind():
    cfg = {
        "schema_version": 1,
        "experiment": "diagnostics",
        "diagnostics": {"kind": "moments", "eps_list": [1.0, 0.5]},
        "grid": {"dim": 1, "length": 8.0, "n": 64},
        "form": {"kind": "constant", "k0": 1.0},
        "alpha": 1.0,
    }
    with pytest.raises(
        ConfigurationError,
        match=r"key 'alpha' does not apply to experiment 'diagnostics' \(kind 'moments'\)",
    ):
        cli.parse_config(json.dumps(cfg))
    # a key of the other diagnostic kind is unknown to this one's section
    cfg["diagnostics"]["h_multiples"] = [1, 2]
    del cfg["alpha"]
    with pytest.raises(ConfigurationError,
                       match="^unknown key 'h_multiples' in config.diagnostics$"):
        cli.parse_config(json.dumps(cfg))


def test_eps_list_must_decrease():
    with pytest.raises(ConfigurationError, match="strictly decreasing"):
        cli.parse_config(json.dumps(sweep_config(eps_list=[0.5, 1.0])))


def test_schema_version_checked():
    with pytest.raises(ConfigurationError, match="schema_version"):
        cli.parse_config(json.dumps(sweep_config(schema_version=2)))


def test_alpha_range_checked():
    with pytest.raises(ConfigurationError, match="alpha"):
        cli.parse_config(json.dumps(sweep_config(alpha=2.0)))


def test_marginal_params_must_match_kind():
    cfg = sweep_config(
        form={"kind": "summation", "field": {"marginal": {"kind": "uniform", "c": 1.0}}}
    )
    with pytest.raises(ConfigurationError):
        cli.parse_config(json.dumps(cfg))


def test_resolution_invariant_checked_at_parse_time():
    cfg = sweep_config(
        grid={"dim": 1, "length": 8.0, "n": 16},
        form={"kind": "summation", "field": {"marginal": {"kind": "uniform", "a": 0.5, "b": 1.5}}},
        eps_list=[1.0],
    )
    with pytest.raises(ConfigurationError, match=r"h > eps\*cell_size/4"):
        cli.parse_config(json.dumps(cfg))


def test_rhs_radius_capped():
    with pytest.raises(ConfigurationError, match="rhs_radius"):
        cli.parse_config(json.dumps(sweep_config(rhs_radius=1.5)))


def test_invalid_json_reports_position():
    with pytest.raises(ConfigurationError, match="line"):
        cli.parse_config("{\n  broken\n}")


def test_unknown_diagnostic_kind():
    cfg = {
        "schema_version": 1,
        "experiment": "diagnostics",
        "diagnostics": {"kind": "entropy"},
    }
    with pytest.raises(ConfigurationError):
        cli.parse_config(json.dumps(cfg))


def _assert_rows_match_schema(kinds, config):
    named = {key.rstrip("!") for row in kinds.values() for key in row.keys.split()}
    assert named <= config.keys(), sorted(named - config.keys())
    assert config.keys() - {"master_seed", "diagnostics"} <= named
    assert all(callable(row.run) for row in kinds.values())


def test_kind_rows_name_only_schema_keys():
    # a key misspelled in a row would make the key inapplicable to its kind
    _assert_rows_match_schema(cli._KINDS, cli._CONFIG)
    sweep = cli._KINDS["sweep"]
    misspelled = {**cli._KINDS,
                  "sweep": sweep._replace(keys=sweep.keys.replace("eps_list", "eps_lsit"))}
    with pytest.raises(AssertionError, match="eps_lsit"):
        _assert_rows_match_schema(misspelled, cli._CONFIG)


def test_checks_fail_on_nan_medians(monkeypatch):
    # max() skips a NaN after the first entry, so these checks used to pass
    medians = (0.0, math.nan)
    report = cli.H.ConvergenceReport(
        eps_list=(1.0, 0.5), cells=(), failures=(),
        medians={m: medians for m in cli.H.METRICS}, q25={m: (0.0, 0.0) for m in cli.H.METRICS},
        q75={m: (0.0, 0.0) for m in cli.H.METRICS},
    )
    _, checks = cli._sweep_results(report)
    assert [c["passed"] for c in checks] == [True, False]
    config = cli.parse_config(json.dumps(sweep_config()))
    monkeypatch.setattr(cli.H, "run_sweep", lambda sweep: report)
    _, checks = cli._run_sweep_experiment(config)
    assert checks[-1]["name"] == "constant_form_environment_independence"
    assert not checks[-1]["passed"]
    mosco = cli.H.MoscoReport(
        eps_list=(1.0, 0.5), medians=medians, q25=(0.0, 0.0), q75=(0.0, 0.0), threshold=0.1,
        decreasing=False, final_below_threshold=False, passed=False,
    )
    monkeypatch.setattr(cli.H, "mosco_form_check", lambda *args, **kwargs: mosco)
    config = cli.parse_config(json.dumps(sweep_config(experiment="mosco", seeds=1)))
    _, checks = cli._run_mosco_experiment(config)
    assert checks[0]["name"] == "mosco_medians_decreasing"
    assert not checks[0]["passed"]


# ---------------------------------------------------------------------------
# full runs through main()


def test_run_sweep_writes_report_and_csv(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "out"
    code = cli.main(["run", cfg_path, "--out", str(out), "--deterministic"])
    captured = capsys.readouterr()
    assert code == 0
    assert "[ok]" in captured.out
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["experiment"] == "sweep"
    assert report["provenance"]["wall_time"] == 0.0
    assert report["provenance"]["master_seed"] == 0
    assert all(check["passed"] for check in report["checks"])
    lines = (out / "cells.csv").read_text().splitlines()
    assert lines[0] == "eps,seed,metric,value"
    assert len(lines) == 1 + 2 * 2 * len(cli.H.METRICS)  # eps x seeds x metrics


def test_sweep_with_every_cell_failed_writes_its_report(tmp_path, capsys):
    # a degenerate alpha = 1.8 product stalls above tol = 1e-12 in every cell:
    # run reports each failure with NaN medians, exit 1
    def uniform(seed):
        return {"marginal": {"kind": "uniform", "a": 0.0, "b": 2.0}, "seed": seed}

    cfg_path = write_config(tmp_path, sweep_config(
        grid={"dim": 1, "length": 8.0, "n": 512}, alpha=1.8, eps_list=[0.5, 0.25], tol=1e-12,
        form={"kind": "product", "nu1": uniform(1), "nu2": uniform(2)},
    ))
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--deterministic"]) == 1
    assert "[FAIL] no_cell_failures: 4 failed cells" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    sweep = report["results"]["sweep"]
    assert sweep["cells"] == []
    assert [(f["eps"], f["seed"]) for f in sweep["failures"]] == [
        (0.5, 0), (0.5, 1), (0.25, 0), (0.25, 1)]
    assert all("ConvergenceFailure" in f["error"] for f in sweep["failures"])
    assert not any("limit" in f["error"] for f in sweep["failures"])  # solved exactly
    assert all(math.isnan(v) for v in sweep["metrics"]["err_l2_mu"]["median"])
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("no_cell_failures", False), ("err_l2_mu_end_to_end_decrease", False)]
    assert (out / "cells.csv").read_text() == "eps,seed,metric,value\n"


# exp(-3000 |G|) underflows to 0 in some cell of every realization
_UNDERFLOWING_MEASURE = sweep_config(form={"kind": "constant", "k0": 1.0},
                                     mu={"marginal": {"kind": "exp_abs_gauss", "s": 3000.0}})


def test_sweep_cell_whose_measure_underflows_writes_its_report(tmp_path, capsys):
    # each sweep cell fails alone with DomainError, where the run used to end
    # in a traceback with no report
    cfg_path = write_config(tmp_path, _UNDERFLOWING_MEASURE)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--deterministic"]) == 1
    assert "[FAIL] no_cell_failures: 4 failed cells" in capsys.readouterr().out
    failures = json.loads((out / "report.json").read_text())["results"]["sweep"]["failures"]
    assert [(f["eps"], f["seed"]) for f in failures] == [(1.0, 0), (1.0, 1), (0.5, 0), (0.5, 1)]
    assert {f["error"] for f in failures} == {
        "DomainError: measure weights must be strictly positive, min 0"}


def test_constant_form_with_a_random_measure_skips_the_independence_check(tmp_path, capsys):
    # the solution of a random measure depends on the environment, which this
    # run reported as [FAIL] constant_form_environment_independence: max metric
    # median 0.14
    cfg_path = write_config(tmp_path, sweep_config(
        form={"kind": "constant", "k0": 1.0},
        mu={"marginal": {"kind": "uniform", "a": 0.5, "b": 1.5}}))
    cli.main(["run", cfg_path, "--out", str(tmp_path / "out"), "--deterministic"])
    printed = capsys.readouterr().out.splitlines()[:-1]
    assert [line.split(":")[0].split()[1] for line in printed] == [
        "no_cell_failures", "err_l2_mu_end_to_end_decrease"]


def test_sweep_cells_carry_solver_telemetry(tmp_path):
    cfg_path = write_config(tmp_path, sweep_config())
    timed, zeroed = tmp_path / "timed", tmp_path / "zeroed"
    assert cli.main(["run", cfg_path, "--out", str(timed)]) == 0
    assert cli.main(["run", cfg_path, "--out", str(zeroed), "--deterministic"]) == 0
    timed_cells, zeroed_cells = (
        json.loads((out / "report.json").read_text())["results"]["sweep"]["cells"]
        for out in (timed, zeroed)
    )
    assert len(timed_cells) == 4
    for t, z in zip(timed_cells, zeroed_cells):
        assert set(t["telemetry"]) == {
            "iterations", "residual", "field_s", "assembly_s", "solve_s"
        }
        assert t["telemetry"]["iterations"] > 0
        assert 0.0 <= t["telemetry"]["residual"] <= 1e-9
        assert t["telemetry"]["assembly_s"] > 0.0 and t["telemetry"]["solve_s"] > 0.0
        # --deterministic zeroes the times and keeps the counts
        assert z["telemetry"] == dict(
            t["telemetry"], field_s=0.0, assembly_s=0.0, solve_s=0.0
        )
    # the metric rows of cells.csv stay as they were
    assert (timed / "cells.csv").read_bytes() == (zeroed / "cells.csv").read_bytes()


def test_deterministic_runs_are_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, sweep_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg_path, "--out", str(out1), "--deterministic"]) == 0
    assert cli.main(["run", cfg_path, "--out", str(out2), "--deterministic"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "cells.csv").read_bytes() == (out2 / "cells.csv").read_bytes()


def test_plotdata_files_from_sweep(tmp_path):
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--deterministic"]) == 0
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", str(out / "report.json"), "--out", str(plots)]) == 0
    files = sorted(p.name for p in plots.iterdir())
    assert files == sorted(f"{m}.dat" for m in cli.H.METRICS)
    body = (plots / "err_l2_mu.dat").read_text().splitlines()
    assert body[0] == "# eps median q25 q75"
    eps_col = [float(line.split()[0]) for line in body[1:]]
    assert eps_col == sorted(eps_col, reverse=True)
    assert len(eps_col) == 2


def test_mosco_constant_form_passes_at_floor(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "mosco",
        "grid": {"dim": 1, "length": 8.0, "n": 64},
        "alpha": 1.0,
        "form": {"kind": "constant", "k0": 2.0},
        "eps_list": [1.0, 0.5],
        "seeds": 2,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--deterministic"]) == 0
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", str(out / "report.json"), "--out", str(plots)]) == 0
    assert (plots / "form_abs_err.dat").exists()


def test_example17_recovers_effective_constant(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "example17",
        "grid": {"dim": 1, "length": 8.0, "n": 64},
        "alpha": 1.0,
        "example17": {
            "inv_lambda1": {"kind": "uniform", "a": 0.0, "b": 4.0},
            "lambda2": 1.0,
            "eps": 0.0625,
            "seeds": 5,
        },
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--deterministic"]) == 0
    report = json.loads((out / "report.json").read_text())
    block = report["results"]["example17"]
    # E[1/lambda_1] = 2, so the time change divides the unit speed by 2
    assert np.allclose(block["c0_target"], 0.5, rtol=1e-12)
    assert np.allclose(block["z_mu"], 2.0, rtol=1e-12)
    assert np.allclose(block["c_hat"], 0.5, rtol=1e-9)


@pytest.mark.parametrize("marginal", [
    {"kind": "shifted_pareto", "x_min": 1.0, "tail_index": 0.8},
    {"kind": "lognormal", "m": 0.0, "s": 60.0},  # its mean overflows to inf
], ids=["pareto", "lognormal-overflow"])
def test_example17_refuses_an_inverse_speed_of_infinite_mean(tmp_path, capsys, marginal):
    # z_mu = inf made the time-changed constant 0, which passed the check
    # against its own target 0
    cfg_path = write_config(tmp_path, {
        "schema_version": 1,
        "experiment": "example17",
        "grid": {"dim": 1, "length": 8.0, "n": 64},
        "alpha": 1.0,
        "example17": {"inv_lambda1": marginal},
    })
    out = tmp_path / "out"
    for command in (["validate", cfg_path], ["run", cfg_path, "--out", str(out)]):
        assert cli.main(command) == 2
        assert capsys.readouterr().err == "config error: E[1/lambda1] is not finite\n"
    assert not out.exists()


def test_translation_with_a_failed_solve_writes_its_report(tmp_path, capsys):
    # the degenerate alpha = 1.8 product of the sweep test above stalls above
    # tol = 1e-12 in the diagnostic's one solve too: the failure fails the
    # check and lands in the report, exit 1
    def uniform(seed):
        return {"marginal": {"kind": "uniform", "a": 0.0, "b": 2.0}, "seed": seed}

    cfg_path = write_config(tmp_path, {
        "schema_version": 1,
        "experiment": "diagnostics",
        "diagnostics": {"kind": "translation", "eps": 0.5},
        "grid": {"dim": 1, "length": 8.0, "n": 512},
        "alpha": 1.8,
        "form": {"kind": "product", "nu1": uniform(1), "nu2": uniform(2)},
        "tol": 1e-12,
    })
    assert cli.main(["validate", cfg_path]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--deterministic"]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("[FAIL] translation_exponent: ConvergenceFailure: ")
    report = json.loads((out / "report.json").read_text())
    error = report["results"]["translation"]["error"]
    assert error.startswith("ConvergenceFailure: resolvent CG stopped after")
    assert report["checks"] == [
        {"name": "translation_exponent", "passed": False, "detail": error}]
    assert (out / "cells.csv").read_text() == "eps,seed,metric,value\n"


# the zero form has no energy while its solution still moves under translation
_ZERO_FORM_TRANSLATION = {
    "schema_version": 1,
    "experiment": "diagnostics",
    "diagnostics": {"kind": "translation"},
    "grid": {"dim": 1, "length": 8.0, "n": 64},
    "alpha": 1.0,
    "form": {"kind": "constant", "k0": 0.0},
}


def test_translation_detail_names_a_zero_energy_violation(tmp_path, capsys):
    # the check failed on that violation with a detail that printed only a
    # passing exponent comparison
    cfg_path = write_config(tmp_path, _ZERO_FORM_TRANSLATION)
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "[FAIL] translation_exponent: min exponent 0.9553 vs 0.3; "
        "zero energy with nonzero translation moduli")


def test_plotdata_refuses_a_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("{not json")
    plots = tmp_path / "plots"
    assert cli.main(["plotdata", str(path), "--out", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err == f"report error: {path} is not a stablehom report\n"
    assert not plots.exists()


def test_plotdata_refuses_a_json_object_without_results(tmp_path, capsys):
    # a config passed by mistake
    cfg_path = write_config(tmp_path, sweep_config())
    assert cli.main(["plotdata", cfg_path, "--out", str(tmp_path / "plots")]) == 2
    err = capsys.readouterr().err
    assert err == f"report error: {cfg_path} is not a stablehom report\n"


def test_failing_check_exits_one(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiment": "diagnostics",
        "diagnostics": {
            "kind": "moments",
            "eps_list": [1.0, 0.5, 0.25, 0.125, 0.0625],
            "seeds": 8,
            "radius": 1.0,
        },
        "grid": {"dim": 1, "length": 4.0, "n": 64},
        "form": {
            "kind": "summation",
            "field": {
                "marginal": {
                    "kind": "shifted_pareto", "x_min": 1.0, "tail_index": 1.5,
                    "declared_p": 2.0,
                }
            },
        },
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["run", cfg_path, "--out", str(out), "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] moment_bound_no_growth" in captured.out


def test_moments_with_zero_medians_fail_without_warnings(tmp_path, capsys):
    # a zero form has zero medians and a NaN growth slope, which used to pass
    # after numpy's divide-by-zero warning
    cfg = {
        "schema_version": 1,
        "experiment": "diagnostics",
        "diagnostics": {"kind": "moments", "eps_list": [1.0, 0.5]},
        "grid": {"dim": 1, "length": 4.0, "n": 32},
        "form": {"kind": "constant", "k0": 0.0},
    }
    cfg_path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", cfg_path, "--out", str(tmp_path / "out"), "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] moment_bound_no_growth: growth slope nan" in captured.out
    assert caught == [] and captured.err == ""


@pytest.mark.parametrize("dim, diag, disjoint", [
    # x + z2 is the origin, which nu_a reads too
    (1, {"z1": [0.0], "z2": [-2.0], "x": [2.0]}, False),
    # |x| = 1.13 exceeds the cell, but 0 and x can share a square cell
    (2, {"z1": [0.0, 0.0], "z2": [0.0, 0.0], "x": [0.8, 0.8], "trials": 20000}, False),
    # every point of one pair is 2.75 from every point of the other
    (1, {"z1": [0.25], "z2": [0.25], "x": [3.0]}, True),
], ids=["shared-origin", "shared-square", "separated"])
def test_covariance_gates_only_pairs_in_disjoint_cells(dim, diag, disjoint):
    # the covariance diagnostic left `run` with the field key; its gate, that
    # iid pairs are independent when, for each point of {0, z1} and each of
    # {x, x + z2}, some axis parts the two by a cell or more, holds of the
    # library: an iid lag beyond one cell used to be gated as independent
    # although the two pairs could share a cell
    field = env.sample_field(dim, env.uniform(0.5, 1.5))
    z1, z2, x = (np.asarray(diag[k], dtype=float) for k in ("z1", "z2", "x"))
    gaps = [np.abs(b - a).max() for a in (0.0 * x, z1) for b in (x, x + z2)]
    assert (min(gaps) >= field.cell_size) == disjoint
    entry = env.empirical_covariance(field, z1, z2, x, trials=diag.get("trials", 1000))
    assert (entry.estimate <= 3.0 * entry.standard_error) == disjoint


def test_config_error_exits_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sweep_config(alpa=1.0))
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    # a grid that discrete.Grid refuses
    cfg_path = write_config(tmp_path, sweep_config(grid={"dim": 1, "length": 8.0, "n": 0}))
    assert cli.main(["validate", cfg_path]) == 2
    assert "config error: config.grid: grid needs even n >= 4, got 0" in capsys.readouterr().err


def test_io_error_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["run", missing, "--out", str(tmp_path / "out")]) == 2
    assert "io error" in capsys.readouterr().err
    # an output path squatted by a regular file is an io error too
    cfg_path = write_config(tmp_path, sweep_config())
    squatter = tmp_path / "file_out"
    squatter.write_text("")
    assert cli.main(["run", cfg_path, "--out", str(squatter)]) == 2


def test_validate_prints_stable_echo(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sweep_config())
    assert cli.main(["validate", cfg_path]) == 0
    first = capsys.readouterr().out
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(first)
    assert cli.main(["validate", str(echo_path)]) == 0
    assert capsys.readouterr().out == first


def test_out_dir_from_environment(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, sweep_config())
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("STABLEHOM_OUT", str(env_out))
    assert cli.main(["run", cfg_path, "--deterministic"]) == 0
    assert (env_out / "report.json").exists()


def test_birkhoff_diagnostic_runs():
    # the birkhoff diagnostic left `run` with the field key; its study of the
    # field generator, which acceptance criterion 7 calls, still meets the 5 %
    # bound that `run` checked at these scales
    field = env.sample_field(1, env.uniform(0.5, 1.5))
    study = env.birkhoff_study(field, 0.015625, ([0.0], [1.0]), n_seeds=5)
    assert study.target == 1.0
    assert abs(study.median_average - study.target) <= 0.05 * abs(study.target)


def test_field_diagnostics_run_in_3d(tmp_path, capsys):
    # KernelParams refuses jump forms beyond d = 2, at validate and at run alike;
    # the moments diagnostic, which uses no jump kernel, still runs in 3D
    cfg_path = write_config(tmp_path, sweep_config(grid={"dim": 3, "length": 8.0, "n": 8}))
    assert cli.main(["validate", cfg_path]) == 2
    refused = capsys.readouterr().err
    assert refused == "config error: jump forms need dim 1 or 2, got 3\n"
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err == refused
    cfg_path = write_config(tmp_path, {
        "schema_version": 1,
        "experiment": "diagnostics",
        "diagnostics": {"kind": "moments", "eps_list": [1.0, 0.5], "seeds": 2},
        "grid": {"dim": 3, "length": 8.0, "n": 8},
        "form": {"kind": "summation",
                 "field": {"marginal": {"kind": "uniform", "a": 0.5, "b": 1.5}}},
    }, "moments.json")
    assert cli.main(["validate", cfg_path]) == 0
    out = tmp_path / "moments"
    assert cli.main(["run", cfg_path, "--out", str(out), "--deterministic"]) in (0, 1)
    assert (out / "report.json").exists()


def _assert_same(got, want, where="report"):
    """Keys, key order, strings, ints, booleans and nulls exactly; floats to
    rel 1e-9, abs 1e-12 (NaN matches NaN)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=1e-9, abs_tol=1e-12), f"{where}: {got!r} vs {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


def _csv_rows(lines) -> list:
    """cells.csv rows (eps, seed, metric, value) with typed fields."""
    return [[float(eps), int(seed), metric, float(value)]
            for eps, seed, metric, value in (line.split(",") for line in lines[1:])]


# What `run --deterministic` gives for each accepted corpus config: report.json,
# the rows of cells.csv, the printed check lines and the exit code.
@pytest.mark.parametrize("entry", REPORTS, ids=[e["name"] for e in REPORTS])
def test_corpus_reports_unchanged(entry, tmp_path, capsys):
    config = next(e["config"] for e in CORPUS if e["name"] == entry["name"])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config)
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg_path), "--out", str(out), "--deterministic"])
    assert code == entry["exit_code"]
    assert capsys.readouterr().out.splitlines() == entry["checks"] + [str(out / "report.json")]
    _assert_same(json.loads((out / "report.json").read_text()), entry["report"])
    lines = (out / "cells.csv").read_text().splitlines()
    assert lines[0] == entry["cells_csv"][0]
    _assert_same(_csv_rows(lines), _csv_rows(entry["cells_csv"]), "cells.csv")


def test_every_kind_has_a_minimal_and_a_full_report():
    # a kind without reports in the corpus would lose its end-to-end coverage
    ran = {e["name"]: (e["report"]["config"].get("diagnostics") or {}).get(
        "kind", e["report"]["experiment"]) for e in REPORTS}
    for kind in cli._KINDS:
        assert ran.get(f"{kind}-minimal") == ran.get(f"{kind}-full") == kind, kind


def test_mosco_plotdata_writes_the_report_quartiles(tmp_path):
    # skewed form errors: median -/+ iqr/2 are no quartiles here (q25 < 0)
    config = next(e["config"] for e in CORPUS if e["name"] == "mosco-full")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(config)
    out, plots = tmp_path / "out", tmp_path / "plots"
    cli.main(["run", str(cfg_path), "--out", str(out), "--deterministic"])
    assert cli.main(["plotdata", str(out / "report.json"), "--out", str(plots)]) == 0
    mosco = json.loads((out / "report.json").read_text())["results"]["mosco"]
    rows = [[float(v) for v in line.split()]
            for line in (plots / "form_abs_err.dat").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == mosco["eps"]
    for i, (eps, median, q25, q75) in enumerate(rows):
        assert 0.0 <= q25 <= median <= q75
        assert [median, q25, q75] == [mosco["median"][i], mosco["q25"][i], mosco["q75"][i]]
        assert math.isclose(q75 - q25, mosco["iqr"][i], rel_tol=1e-12)


# A sweep or mosco run loads no scipy module: scipy serves only the
# Levy-exponent quadrature, the dense oracle and the tests.  Nor does it load
# OpenSSL (`_hashlib`, which `hashlib` imports), `numpy.ma` (which
# np.percentile and np.median import) or `numpy.polynomial` (the 2D
# Gauss-Legendre rules are a table of its leggauss output).
_IMPORT_PATH_SCRIPT = """
import json, sys
from stablehom import cli, env
field = {"marginal": {"kind": "uniform", "a": 0.5, "b": 1.5},
         "mixing": {"kind": "moving_average", "q": 1.5}}
common = {"schema_version": 1, "grid": {"dim": 2, "length": 4.0, "n": 32}, "alpha": 1.0,
          "form": {"kind": "product", "nu1": {**field, "seed": 0}, "nu2": {**field, "seed": 1}},
          "eps_list": [1.0, 0.5], "seeds": 1}
for name, extra in (("sweep", {"mu": {"marginal": {"kind": "lognormal", "m": -0.5, "s": 1.0}}}),
                    ("mosco", {})):
    path = f"{sys.argv[1]}/{name}.json"
    with open(path, "w") as fh:
        json.dump({**common, "experiment": name, **extra}, fh)
    assert cli.main(["validate", path]) == 0
    assert cli.main(["run", path, "--out", f"{sys.argv[1]}/{name}"]) in (0, 1)
print(json.dumps(sorted(name for name in sys.modules
                        if name in ("scipy", "_hashlib", "numpy.ma", "numpy.polynomial")
                        or name.startswith(("scipy.", "numpy.ma.", "numpy.polynomial.")))))
"""


def test_runs_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert json.loads(out[-1]) == []
    assert (tmp_path / "sweep" / "report.json").exists()
    assert (tmp_path / "mosco" / "report.json").exists()


def _corpus_config(name):
    return json.loads(next(e["config"] for e in CORPUS if e["name"] == name))


def _limit_kernel_scaled_by_nine_tenths(monkeypatch):
    # every cell of a constant form solves with the constant itself, so each
    # differs from a limit whose kernel is 0.9 times it
    effective = cli.H.effective_kernel
    monkeypatch.setattr(cli.H, "effective_kernel", lambda form: dataclasses.replace(
        effective(form), k0=0.9 * effective(form).k0))


# A config whose `run` fails each check that cli.py can emit, paired with a
# patch of the library where no config alone is known to fail it, or None
# where no case is known: such a check cannot be seen to fail yet.
FAILING_CASES = {
    "no_cell_failures": _UNDERFLOWING_MEASURE,
    "err_l2_mu_end_to_end_decrease": _UNDERFLOWING_MEASURE,
    "constant_form_environment_independence": (sweep_config(), _limit_kernel_scaled_by_nine_tenths),
    "mosco_medians_decreasing": _corpus_config("mosco-full"),
    "mosco_final_below_threshold": _corpus_config("mosco-full"),
    "example17_constant_within_tolerance": None,
    "measure_metrics_end_to_end_decrease": None,
    "translation_exponent": _ZERO_FORM_TRANSLATION,
    "moment_bound_no_growth": _corpus_config("moments-full"),
}


def test_failing_cases_name_every_check():
    source = pathlib.Path(cli.__file__).read_text()
    assert set(re.findall(r'_check\(\s*"(\w+)"', source)) == FAILING_CASES.keys()


@pytest.mark.parametrize("name", [name for name, config in FAILING_CASES.items() if config])
def test_each_failing_case_fails_its_check(name, tmp_path, capsys, monkeypatch):
    config = FAILING_CASES[name]
    if isinstance(config, tuple):
        config, patch = config
        patch(monkeypatch)
    cfg_path = write_config(tmp_path, config)
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "out"), "--deterministic"]) == 1
    assert any(line.startswith(f"[FAIL] {name}: ") for line in capsys.readouterr().out.splitlines())
