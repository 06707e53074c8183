"""Command line front end: validate configs, run experiments, emit plot data.

Configs are JSON documents validated strictly against one declarative schema
(unknown, inapplicable, missing and mistyped keys and non-finite numbers are
rejected with their full path) and echoed back with every default expanded,
so the echo can be re-run to reproduce the report.  Parsing also builds the
experiment's library objects, once each, so `validate` refuses whatever `run`
would; the runners only execute what parsing built.  Reports are
JSON with a versioned schema; per-cell sweep data also lands in a flat CSV,
and `plotdata` turns a report into per-metric whitespace-delimited files.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import env
from . import homogenize as H
from .discrete import (
    Grid,
    _oscillation_check,
    assemble_form,
    bump,
    check_translation_steps,
    cone_comparability_check,
    evaluate,
    measure_weights,
    nash_check,
    test_function_suite,
    translation_estimate_check,
)
from .errors import ConfigurationError, DomainError, NumericalError, check_count, check_positive
from .kernel import (
    AngularWeight,
    CoefficientForm,
    ConeSpec,
    ConstantForm,
    KernelParams,
    ProductForm,
    SummationForm,
    effective_kernel,
    form_cell_size,
)
from .solver import ResolventProblem, check_lambda, check_tol, solve_resolvent
from . import __version__

SCHEMA_VERSION = 1

_EXPERIMENTS = ("sweep", "estimate_constant", "mosco", "diagnostics", "example17")
# the eps values of example17's sweep when the config gives no eps_list
_EXAMPLE17_LADDER = [1.0, 0.5, 0.25, 0.125, 0.0625]


# ---------------------------------------------------------------------------
# config schema.  A key is (kind, default); a kind maps (raw value, path,
# config resolved so far) to the resolved value or raises ConfigurationError
# naming the path.  Sections that stand for a library object build it once,
# as they resolve (see _builds).


def _typed(noun: str, *types):
    def resolve(v, path, out=None):
        if not isinstance(v, types) or (isinstance(v, bool) and bool not in types):
            raise ConfigurationError(f"{path} must be {noun}")
        return v
    return resolve


_integer = _typed("an integer", int)
_boolean = _typed("a boolean", bool)
_string = _typed("a string", str)
_numeric = _typed("a number", int, float)


def _number(v, path, out=None) -> float:
    # NaN, infinities and ints beyond the float range fail the comparison
    if not abs(_numeric(v, path)) <= sys.float_info.max:
        raise ConfigurationError(f"{path} must be a finite number")
    return float(v)


def _array(item, noun: str):
    def resolve(v, path, out) -> list:
        if not isinstance(v, list) or not v:
            raise ConfigurationError(f"{path} must be a nonempty array of {noun}")
        return [item(x, f"{path}[{i}]", out) for i, x in enumerate(v)]
    return resolve


_numbers = _array(_number, "numbers")


def _rule(kind, problem):
    """Values of `kind` for which `problem(value, out)` returns no complaint; a
    problem that calls a library check lets that check's error through."""
    def resolve(v, path, out=None):
        value = kind(v, path, out)
        complaint = problem(value, out)
        if complaint:
            raise ConfigurationError(f"{path} {complaint}")
        return value
    return resolve


def _one_of(*choices):
    return _rule(_string, lambda v, out: None if v in choices
                 else f"must be one of {sorted(choices)}, got '{v}'")


_REQUIRED = object()  # the default of a key that must be given


def _resolve_key(obj: dict, key: str, kind, default, path: str, out: dict):
    """obj[key] resolved by `kind`.  A missing key takes the default (a callable
    default is computed from `out`); so does a null one whose default is null
    or an object."""
    v = obj.get(key)
    if v is None and (key not in obj or default is None or isinstance(default, dict)):
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required key '{key}' in {path}")
        v = default(out) if callable(default) else default
        if v is None:
            return None
    return kind(v, f"{path}.{key}", out)


def _known_keys(obj, path: str, keys) -> None:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path} must be an object")
    for key in obj:
        if key not in keys:
            raise ConfigurationError(f"unknown key '{key}' in {path}")


def _object(keys: dict, variants: dict | None = None, label: str | None = None):
    """An object with `keys` (name -> (kind, default)), echoed in that order.

    With `variants` it is a tagged union: a required 'kind' puts the keys of
    variants[kind] ahead of `keys`, and a key of another kind is reported as
    not belonging to `label` '<kind>', or as unknown when there is no label.
    """
    known = set(keys)
    if variants:
        known |= {"kind", *(key for extra in variants.values() for key in extra)}
        kinds = _one_of(*variants)

    def resolve(v, path, out) -> dict:
        _known_keys(v, path, known)
        resolved, fields = {}, keys
        if variants:
            kind = _resolve_key(v, "kind", kinds, _REQUIRED, path, out)
            resolved["kind"], fields = kind, {**variants[kind], **keys}
            for key in v:
                if key != "kind" and key not in fields:
                    raise ConfigurationError(
                        f"key '{key}' in {path} does not belong to {label} '{kind}'" if label
                        else f"unknown key '{key}' in {path}"
                    )
        for key, spec in fields.items():
            resolved[key] = _resolve_key(v, key, *spec, path, out)
        return resolved
    return resolve


class _Walk(dict):
    """The echo resolved so far; `built` holds the library objects built from it."""

    def __init__(self, **echo):
        super().__init__(echo)
        self.built = {}


def _builds(kind, build):
    """`kind`, whose resolved value is also built once into out.built[path] by
    build(value, part), where part(key) is the object already built for the
    subsection `key`.  A library check that refuses the object (discrete.Grid's,
    ConeSpec's, ...) is reported with its message prefixed by the section's path."""
    def resolve(v, path, out):
        value = kind(v, path, out)
        try:
            out.built[path] = build(value, lambda key: out.built[f"{path}.{key}"])
        except (ConfigurationError, DomainError) as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
        return value
    return resolve


def _build_field(d: dict, part) -> env.RandomField:
    return env.RandomField(**{**d, "marginal": part("marginal"), "mixing": part("mixing")})


def _build_form(d: dict, part):
    if d["kind"] == "constant":
        return ConstantForm(d["k0"])
    if d["kind"] == "summation":
        return SummationForm(part("field"), part("angular"))
    return ProductForm(part("nu1"), part("nu2"))


def _resolved_at(eps_values, out, cell=None) -> None:
    """Positive eps values that pass discrete's h <= eps*cell/4 check; the cell
    is the form's unless given."""
    if cell is None and "config.form" in out.built:
        cell = form_cell_size(out.built["config.form"])
    for eps in eps_values:
        if cell is not None:
            _oscillation_check(out.built["config.grid"], eps, cell)
        check_positive("eps", eps)


def _field_dim_complaint(points, out, noun: str = "") -> str | None:
    dim = out["field"]["dim"]
    return f"{noun}must have {dim} entries" if any(len(p) != dim for p in points) else None


def _corner_pair(v, path, out) -> list:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigurationError(f"{path} must be a [lo, hi] pair of corner arrays")
    return [_numbers(corner, f"{path}[{i}]", out) for i, corner in enumerate(v)]


# an averaging box and a point of the field's space
_REGION = _rule(_corner_pair, lambda corners, out: _field_dim_complaint(corners, out, "corners ")
                or env.check_region(*corners))
_POINT = _rule(_numbers, lambda point, out: _field_dim_complaint([point], out))


def _inside_torus(note: str = ""):
    """Bump radii: positive, and at most L/8 so that the support stays inside the torus."""
    def problem(r, out):
        eighth = out["grid"]["length"] / 8.0
        return (f"{r:g} exceeds L/8 = {eighth:g}{note}" if r > eighth + 1e-12
                else check_positive("bump radius", r))
    return _rule(_number, problem)


def _positive(name: str):
    return _rule(_number, lambda v, out: check_positive(name, v))


def _count(name: str, least: int = 1):
    return _rule(_integer, lambda n, out: check_count(name, n, least))


def _quarter_length(out) -> float:
    """The default radius of the translation and moments diagnostics."""
    return out["grid"]["length"] / 4.0


_AXIS = (
    _rule(_numbers, lambda axis, out: None if len(axis) == out["grid"]["dim"]
          else f"has {len(axis)} entries, grid dim is {out['grid']['dim']}"),
    lambda out: [1.0] + [0.0] * (out["grid"]["dim"] - 1),
)
_schema_version = _rule(_integer, lambda v, out: None if v == SCHEMA_VERSION
                        else f"{v} not recognized (expected {SCHEMA_VERSION})")
_alpha = _rule(_number, lambda a, out: None if 0.0 < a < 2.0 else f"must lie in (0, 2), got {a}")
_eps_list = _rule(_numbers, lambda eps, out: "must be strictly decreasing"
                  if any(b >= a for a, b in zip(eps, eps[1:]))
                  else _resolved_at(eps, out))
# bounds that the library checks again when a run reaches them
_lambda = _rule(_number, lambda lam, out: check_lambda(lam))
_tol = _rule(_number, lambda tol, out: check_tol(tol))
_seeds = _count("seeds")
_h_multiples = _rule(_array(_integer, "integers"), lambda ks, out: check_translation_steps(
    out.built["config.grid"], [k * out.built["config.grid"].h for k in ks]))
_moment_eps = _rule(_numbers, lambda eps, out: H.check_moment_eps(eps))
_moment_radius = _rule(_number, lambda r, out: H.check_moment_ball(out.built["config.grid"], r))
_eps_grid = _rule(_numbers, lambda eps, out: env.check_eps_grid(eps))
# the one eps of an estimate, of example 17 or of a diagnostic
_eps = _rule(_number, lambda eps, out: _resolved_at([eps], out))
# a field under a grid lives in the grid's dimension
_field_dim = _rule(_integer, lambda d, out: None if "grid" not in out or d == out["grid"]["dim"]
                   else f"is {d}, grid dim is {out['grid']['dim']}")

# the schema proper
_MARGINAL_PARAMS = {
    "constant": ("c",),
    "uniform": ("a", "b"),
    "lognormal": ("m", "s"),
    "exp_abs_gauss": ("s",),
    "shifted_pareto": ("x_min", "tail_index"),
}
_MARGINAL = _builds(_object({"declared_p": (_number, 2.0)}, {
    kind: {p: (_number, _REQUIRED) for p in params} for kind, params in _MARGINAL_PARAMS.items()
}, label="marginal kind"), lambda d, part: env.DistributionSpec(
    d["kind"], tuple(d[key] for key in _MARGINAL_PARAMS[d["kind"]]), d["declared_p"]))
_MIXING = _builds(_object({}, {"iid_cells": {}, "moving_average": {"q": (_number, 1.0)}},
                          label="kind"), lambda d, part: env.MixingSpec(**d))
_FIELD_KEYS = _object({
    "marginal": (_MARGINAL, _REQUIRED),
    "mixing": (_MIXING, {"kind": "iid_cells"}),
    "cell_size": (_number, 1.0),
    "seed": (_integer, 0),
    "scale": (_number, 1.0),
    "dim": (_field_dim, lambda out: out["grid"]["dim"] if "grid" in out else 1),
})
_FIELD = _builds(_FIELD_KEYS, _build_field)
_CONE = _builds(_object({"axis": _AXIS, "aperture": (_number, 0.0),
                         "full_space": (_boolean, False)}), lambda d, part: ConeSpec(
    axis=tuple(d["axis"]), aperture=d["aperture"], full_space=d["full_space"]))
_GRID = _builds(_object({"dim": (_integer, _REQUIRED), "length": (_number, _REQUIRED),
                         "n": (_integer, _REQUIRED)}), lambda d, part: Grid(**d))
_ANGULAR = _builds(_object({"axis": _AXIS}, {"one": {}, "cos2": {}}),
                   lambda d, part: AngularWeight(kind=d["kind"], axis=tuple(d["axis"])))
_FORM = _builds(_object({}, {
    "constant": {"k0": (_number, _REQUIRED)},
    "summation": {"field": (_FIELD, _REQUIRED), "angular": (_ANGULAR, {"kind": "one"})},
    "product": {"nu1": (_FIELD, _REQUIRED), "nu2": (_FIELD, _REQUIRED)},
}), _build_form)
_ESTIMATE = _object({
    "eps": (_eps, _REQUIRED),
    "seeds": (_seeds, 20),
    "test_radii": (_array(_inside_torus(), "numbers"),
                   lambda out: [out["grid"]["length"] / 8.0, out["grid"]["length"] / 16.0]),
})
_EXAMPLE17 = _object({
    "lambda2": (_rule(_number, lambda v, out: None if v > 0 else "must be positive"), 1.0),
    "inv_lambda1": (_MARGINAL, _REQUIRED),
    "eps": (_eps, 0.0625),
    "seeds": (_seeds, 20),
    # the sweep's measure has cell size 1
    "sweep": (_rule(_boolean, lambda sweep, out: _resolved_at(
        out["eps_list"] or _EXAMPLE17_LADDER, out, 1.0) if sweep else None), False),
})
_DIAGNOSTIC_KEYS = {
    "nash": {},
    "cone": {},
    "translation": {"h_multiples": (_h_multiples, [1, 2, 4, 8]),
                    "radius": (_positive("translation radius"), _quarter_length),
                    "eps": (_eps, 1.0)},
    "moments": {"eps_list": (_moment_eps, _REQUIRED), "seeds": (_seeds, 5),
                "radius": (_moment_radius, _quarter_length)},
    "birkhoff": {"eps": (_eps, _REQUIRED),
                 "region": (_REGION, lambda out: [[x] * out["field"]["dim"] for x in (0.0, 1.0)]),
                 "n_seeds": (_count("n_seeds"), 20)},
    "maximal": {"eps_grid": (_eps_grid, [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]),
                "r0": (_positive("r0"), 1.0), "n_seeds": (_count("n_seeds"), 200)},
    "covariance": {"z1": (_POINT, _REQUIRED), "z2": (_POINT, _REQUIRED),
                   "x": (_POINT, _REQUIRED), "trials": (_count("trials", 100), 1000),
                   "truncation": (_number, 1e3)},
}

# the farthest points, in field units, at which a field diagnostic evaluates its field
_REACH = {
    "birkhoff": lambda diag: np.divide(diag["region"], diag["eps"]),
    "maximal": lambda diag: diag["r0"] / min(diag["eps_grid"]),
    "covariance": lambda diag: [diag["z1"], diag["x"], np.add(diag["x"], diag["z2"])],
}


def _far_points(diag, out) -> None:
    """Refuse, with run's message, points whose field cells env cannot index."""
    if diag["kind"] in _REACH:
        with np.errstate(over="ignore"):  # a point that overflows to inf is refused
            env.check_points(out.built["config.field"], _REACH[diag["kind"]](diag))

_GRIDDED = "sweep estimate_constant mosco example17 nash cone translation moments"
_JUMPS = "sweep estimate_constant mosco example17 nash cone translation"
_FORMS = "sweep estimate_constant mosco translation moments"
_SOLVES = "sweep example17 translation"

# top-level key -> (kind, default, the experiments and diagnostic kinds it
# applies to; a trailing '!' makes it required there), in echo order
_CONFIG = {
    "master_seed": (_integer, 0, " ".join(_EXPERIMENTS + tuple(_DIAGNOSTIC_KEYS))),
    "field": (_FIELD, _REQUIRED, "birkhoff maximal covariance"),
    "grid": (_GRID, _REQUIRED, _GRIDDED),
    "alpha": (_alpha, _REQUIRED, _JUMPS),
    "cone": (_CONE, {"full_space": True}, _JUMPS),
    "form": (_FORM, _REQUIRED, _FORMS),
    "lambda": (_lambda, 1.0, _SOLVES),
    "tol": (_tol, 1e-9, _SOLVES),
    "seeds": (_seeds, 10, "sweep mosco example17"),
    "eps_list": (_eps_list, None, "sweep! mosco! example17"),
    "mu": (_builds(_rule(_FIELD_KEYS, lambda mu, out: _resolved_at(
        out["eps_list"], out, mu["cell_size"])), _build_field), None, "sweep"),
    "report_radius": (_positive("report radius"), None, "sweep"),
    "rhs_radius": (_inside_torus("; the bump must stay well inside the torus"), None,
                   "sweep translation"),
    "estimate": (_ESTIMATE, _REQUIRED, "estimate_constant"),
    "mosco": (_object({"threshold": (_positive("mosco threshold"), None)}), {}, "mosco"),
    "example17": (_EXAMPLE17, _REQUIRED, "example17"),
    "diagnostics": (_rule(_object({}, _DIAGNOSTIC_KEYS), _far_points), _REQUIRED,
                    " ".join(_DIAGNOSTIC_KEYS)),
}


# ---------------------------------------------------------------------------
# top-level config


@dataclass(frozen=True)
class ExperimentConfig:
    """The resolved echo and the library objects built from it while parsing;
    each object is built once, and the runners only execute them."""
    kind: str
    resolved: dict
    grid: Grid | None = None
    params: KernelParams | None = None
    cone: ConeSpec | None = None
    form: CoefficientForm | None = None  # example17: the time-changed constant form
    field: env.RandomField | None = None
    sweep: H.SweepConfig | None = None
    z_mu: float | None = None  # example17: E[lambda2 / lambda1]


def _sweep_plan(out: dict, plan: dict, eps_list, mu_field, **extra) -> H.SweepConfig:
    return H.SweepConfig(
        grid=plan["grid"], form=plan["form"], cone=plan["cone"], params=plan["params"],
        eps_list=tuple(eps_list), seeds=out["seeds"], lam=out["lambda"], mu_field=mu_field,
        master_seed=out["master_seed"], tol=out["tol"], **extra,
    )


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON config, resolve every default into the echo and build
    the experiment from it.

    Re-parsing the echo yields the same resolved dictionary, so reports can be
    reproduced from the config they embed.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    _known_keys(raw, "config", ("schema_version", "experiment", *_CONFIG))
    version = _resolve_key(raw, "schema_version", _schema_version, _REQUIRED, "config", {})
    experiment = _resolve_key(raw, "experiment", _one_of(*_EXPERIMENTS), _REQUIRED, "config", {})
    kind, label = experiment, f"experiment '{experiment}'"
    if experiment == "diagnostics":
        diag = raw.get("diagnostics")
        if not isinstance(diag, dict) or "kind" not in diag:
            raise ConfigurationError(
                "experiment 'diagnostics' requires config.diagnostics with a 'kind'"
            )
        kind = _one_of(*_DIAGNOSTIC_KEYS)(diag["kind"], "config.diagnostics.kind")
        label += f" (kind '{kind}')"

    applicable = {key: spec for key, spec in _CONFIG.items()
                  if kind in spec[2].replace("!", "").split()}
    for key in raw:
        if key not in applicable and key not in ("schema_version", "experiment"):
            raise ConfigurationError(f"key '{key}' does not apply to {label}")
    for key, (_, default, where) in applicable.items():
        if (default is _REQUIRED or f"{kind}!" in where.split()) and raw.get(key) is None:
            raise ConfigurationError(f"{label} requires top-level key '{key}'")

    out = _Walk(schema_version=version, experiment=experiment)
    for key, (resolve, default, _) in applicable.items():
        out[key] = _resolve_key(raw, key, resolve, default, "config", out)

    built = out.built
    plan = {key: built.get(f"config.{key}") for key in ("grid", "cone", "form", "field")}
    grid = plan["grid"]
    if "alpha" in out:
        plan["params"] = KernelParams(alpha=out["alpha"], dim=grid.dim)
    if experiment in ("sweep", "mosco"):
        effective_kernel(plan["form"])  # their limit refuses fields of infinite mean
    if experiment == "sweep":
        rhs = None if out["rhs_radius"] is None else evaluate(grid, bump(grid, out["rhs_radius"]))
        plan["sweep"] = _sweep_plan(out, plan, out["eps_list"], built.get("config.mu"),
                                    report_radius=out["report_radius"], rhs=rhs)
    elif experiment == "example17":
        # the time change divides lambda2 by z_mu = lambda2 E[1/lambda1]; the
        # sweep's measure is 1/lambda1 scaled to mean 1
        c2, inv_marginal = out["example17"]["lambda2"], built["config.example17.inv_lambda1"]
        plan["z_mu"] = z_mu = c2 * env.mean_value(inv_marginal)
        plan["form"] = ConstantForm(c2 * c2 / z_mu)
        if out["example17"]["sweep"]:
            mu_field = env.RandomField(dim=grid.dim, marginal=inv_marginal, mixing=env.MixingSpec(),
                                       cell_size=1.0, seed=0, scale=c2 / z_mu)
            plan["sweep"] = _sweep_plan(out, plan, out["eps_list"] or _EXAMPLE17_LADDER, mu_field)
    return ExperimentConfig(kind=experiment, resolved=dict(out), **plan)


# ---------------------------------------------------------------------------
# experiment execution


def _fields(report, *names, **keys) -> dict:
    """The named fields of a library report in order, tuples as lists; `keys`
    renames a field in the copy (eps_list="eps")."""
    copied = {}
    for name in names:
        value = getattr(report, name)
        copied[keys.get(name, name)] = list(value) if isinstance(value, tuple) else value
    return copied


def _quartile_table(report: H.ConvergenceReport) -> dict:
    return {m: {"eps": list(report.eps_list), "median": list(report.medians[m]),
                "q25": list(report.q25[m]), "q75": list(report.q75[m])} for m in H.METRICS}


def _finite(values) -> bool:
    """A check passes only on finite medians; max() and < skip or hide a NaN."""
    return bool(np.isfinite(values).all())


def _check(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": passed, "detail": detail}


def _sweep_results(report: H.ConvergenceReport) -> tuple[dict, list]:
    results = {
        "metrics": _quartile_table(report),
        "cells": [
            {**_fields(c, "eps", "seed_index", *H.METRICS, seed_index="seed"),
             "telemetry": _fields(c, "iterations", "residual", "field_s", "assembly_s",
                                  "solve_s")}
            for c in report.cells
        ],
        "failures": [{"eps": e, "seed": s, "error": msg} for e, s, msg in report.failures],
    }
    med = report.medians["err_l2_mu"]
    checks = [_check("no_cell_failures", not report.failures,
                     f"{len(report.failures)} failed cells")]
    if len(med) > 1:
        # an exactly-solved case (constant coefficients) sits at the solver
        # floor from the start; that counts as converged, not as a failure
        at_floor = max(med) <= 1e-10
        checks.append(_check("err_l2_mu_end_to_end_decrease",
                             _finite(med) and (med[-1] < med[0] or at_floor),
                             f"median {med[0]:.6g} -> {med[-1]:.6g}"))
    return results, checks


def _run_sweep_experiment(config: ExperimentConfig) -> tuple[dict, list]:
    report = H.run_sweep(config.sweep)
    results, checks = _sweep_results(report)
    if isinstance(config.form, ConstantForm):
        # np.max propagates a NaN median, which then fails the bound
        worst = float(np.max([report.medians[m] for m in H.METRICS]))
        checks.append(_check("constant_form_environment_independence", worst <= 1e-6,
                             f"max metric median {worst:.3g}"))
    return {"sweep": results}, checks


def _run_estimate_experiment(config: ExperimentConfig) -> tuple[dict, list]:
    grid, estimate = config.grid, config.resolved["estimate"]
    est = H.estimate_effective_constant(
        grid, config.form, config.cone, config.params,
        eps=estimate["eps"], seeds=estimate["seeds"],
        test_fns=[evaluate(grid, bump(grid, r)) for r in estimate["test_radii"]],
        master_seed=config.resolved["master_seed"],
    )
    return {"estimate": {**_fields(est, "c_hat", "iqr"), "n_samples": len(est.samples),
                         **_fields(est, "samples", "skipped_fns")}}, []


def _run_mosco_experiment(config: ExperimentConfig) -> tuple[dict, list]:
    resolved = config.resolved
    report = H.mosco_form_check(
        config.grid, config.form, config.cone, config.params,
        resolved["eps_list"], resolved["seeds"], test_function_suite(config.grid),
        threshold=resolved["mosco"]["threshold"], master_seed=resolved["master_seed"],
    )
    results = {"mosco": {
        **_fields(report, "eps_list", "medians", eps_list="eps", medians="median"),
        "iqr": [q75 - q25 for q25, q75 in zip(report.q25, report.q75)],
        **_fields(report, "q25", "q75", "threshold"),
    }}
    # exact coefficients keep every median at the assembly floor; that is
    # convergence already achieved, not a stalled sequence
    at_floor = max(report.medians) <= 1e-10
    checks = [
        _check("mosco_medians_decreasing",
               _finite(report.medians) and (report.decreasing or at_floor),
               f"medians {[float(f'{v:.6g}') for v in report.medians]}"),
        _check("mosco_final_below_threshold", report.final_below_threshold,
               f"final {report.medians[-1]:.6g} vs threshold {report.threshold:.6g}"),
    ]
    return results, checks


def _run_example17(config: ExperimentConfig) -> tuple[dict, list]:
    ex, grid, c0 = config.resolved["example17"], config.grid, config.form.k0
    est = H.estimate_effective_constant(
        grid, config.form, config.cone, config.params, eps=ex["eps"], seeds=ex["seeds"],
        test_fns=[evaluate(grid, bump(grid)), evaluate(grid, bump(grid, grid.length / 16.0))],
        master_seed=config.resolved["master_seed"],
    )
    results = {"example17": {"c0_target": c0, "z_mu": config.z_mu, "c_hat": est.c_hat,
                             "iqr": est.iqr, "n_samples": len(est.samples)}}
    checks = [_check("example17_constant_within_tolerance", abs(est.c_hat - c0) <= 0.1,
                     f"c_hat {est.c_hat:.6g} vs target {c0:.6g}")]
    if config.sweep is not None:
        report = H.run_sweep(config.sweep)
        results["sweep"], sweep_checks = _sweep_results(report)
        pairing, norm = report.medians["pairing_err"], report.medians["norm_err"]
        if len(report.eps_list) > 1:
            sweep_checks.append(_check(
                "measure_metrics_end_to_end_decrease",
                _finite(pairing + norm) and pairing[-1] < pairing[0] and norm[-1] < norm[0],
                f"pairing {pairing[0]:.4g}->{pairing[-1]:.4g}, "
                f"norm {norm[0]:.4g}->{norm[-1]:.4g}"))
        checks.extend(sweep_checks)
    return results, checks


# Diagnostic runners: (config, its diagnostics section) -> (the block reported
# under the kind's name, checks).


def _run_nash(config: ExperimentConfig, diag: dict) -> tuple[dict, list]:
    rep = nash_check(config.grid, config.cone, config.params, test_function_suite(config.grid))
    return _fields(rep, "ratios", "max_ratio", "skipped"), [
        _check("nash_ratios_finite", rep.passed, f"max ratio {rep.max_ratio:.6g}")]


def _run_cone(config: ExperimentConfig, diag: dict) -> tuple[dict, list]:
    rep = cone_comparability_check(config.grid, config.cone, config.params,
                                   test_function_suite(config.grid))
    return _fields(rep, "ratios", "max_ratio", "skipped", "violations"), [
        _check("cone_comparability", rep.passed, f"max ratio {rep.max_ratio:.6g}")]


def _run_translation(config: ExperimentConfig, diag: dict) -> tuple[dict, list]:
    resolved, grid = config.resolved, config.grid
    form = assemble_form(grid, config.form, config.cone, config.params, diag["eps"])
    rhs = evaluate(grid, bump(grid, resolved.get("rhs_radius")))
    problem = ResolventProblem(form, measure_weights(grid, None), resolved["lambda"], rhs)
    try:
        sol = solve_resolvent(problem, tol=resolved["tol"])
    except NumericalError as exc:  # ConvergenceFailure included, as in a sweep cell
        error = f"{type(exc).__name__}: {exc}"
        return {"error": error}, [_check("translation_exponent", False, error)]
    steps = [m * grid.h for m in diag["h_multiples"]]
    rep = translation_estimate_check(form, sol.u, steps, diag["radius"])
    target = config.params.alpha / 2.0 - 0.2
    return _fields(rep, "h_steps", "max_ratio", "fitted_exponents", "min_exponent"), [
        _check("translation_exponent", (not rep.violation) and rep.min_exponent >= target,
               f"min exponent {rep.min_exponent:.4g} vs {target:.4g}")]


def _run_moments(config: ExperimentConfig, diag: dict) -> tuple[dict, list]:
    rep = H.moment_bound_report(config.grid, config.form, diag["eps_list"], diag["seeds"],
                                diag["radius"], master_seed=config.resolved["master_seed"])
    block = _fields(rep, "eps_list", "medians", "max_value", "growth_slope", "exponent_p",
                    eps_list="eps", medians="median")
    return block, [_check("moment_bound_no_growth", not rep.flagged,
                          f"growth slope {rep.growth_slope:.4g}")]


def _run_birkhoff(config: ExperimentConfig, diag: dict) -> tuple[dict, list]:
    study = env.birkhoff_study(config.field, diag["eps"], diag["region"],
                               n_seeds=diag["n_seeds"])
    rel = abs(study.median_average - study.target) / abs(study.target)
    return _fields(study, "eps", "exact_mean", "median_average", "median_abs_rel_error"), [
        _check("birkhoff_within_5_percent", rel <= 0.05,
               f"median {study.median_average:.6g} vs {study.target:.6g}")]


def _run_maximal(config: ExperimentConfig, diag: dict) -> tuple[dict, list]:
    rep = env.maximal_tail_check(config.field, tuple(diag["eps_grid"]), r0=diag["r0"],
                                 n_seeds=diag["n_seeds"])
    return _fields(rep, "eps_grid", "levels", "frequencies", "fitted_c"), [
        _check("maximal_markov_scaling", rep.markov_bound_ok,
               f"exceedance frequencies {[float(f'{v:.4g}') for v in rep.frequencies]}")]


def _run_covariance(config: ExperimentConfig, diag: dict) -> tuple[dict, list]:
    field = config.field
    entry = env.empirical_covariance(field, diag["z1"], diag["z2"], diag["x"],
                                     trials=diag["trials"], truncation=diag["truncation"])
    if field.mixing.kind == "iid_cells" and entry.lag > field.cell_size:
        passed = entry.estimate <= 3.0 * entry.standard_error
        detail = f"|cov| {entry.estimate:.4g} vs 3 se {3 * entry.standard_error:.4g}"
    else:
        passed = True
        detail = "no zero-covariance gate at this lag or mixing; value reported"
    return _fields(entry, "lag", "estimate", "signed", "standard_error", "trials"), [
        _check("covariance_decay", passed, detail)]


_DIAGNOSTICS = {
    "nash": _run_nash,
    "cone": _run_cone,
    "translation": _run_translation,
    "moments": _run_moments,
    "birkhoff": _run_birkhoff,
    "maximal": _run_maximal,
    "covariance": _run_covariance,
}


def _run_diagnostics(config: ExperimentConfig) -> tuple[dict, list]:
    diag = config.resolved["diagnostics"]
    block, checks = _DIAGNOSTICS[diag["kind"]](config, diag)
    return {diag["kind"]: block}, checks


_RUNNERS = {
    "sweep": _run_sweep_experiment,
    "estimate_constant": _run_estimate_experiment,
    "mosco": _run_mosco_experiment,
    "example17": _run_example17,
    "diagnostics": _run_diagnostics,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the experiment and assemble the full report dictionary."""
    start = time.perf_counter()
    resolved = config.resolved
    results, checks = _RUNNERS[config.kind](config)
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "experiment": config.kind,
        "config": resolved,
        "results": results,
        "checks": checks,
        "provenance": {
            "master_seed": resolved["master_seed"],
            "wall_time": time.perf_counter() - start,
        },
    }


# ---------------------------------------------------------------------------
# emission


def write_report(report: dict, out_dir: str, deterministic: bool = False) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if deterministic:
        # times vary from run to run; counts and residuals do not
        report = copy.deepcopy(report)
        report["provenance"]["wall_time"] = 0.0
        for cell in report["results"].get("sweep", {}).get("cells", []):
            cell["telemetry"].update(field_s=0.0, assembly_s=0.0, solve_s=0.0)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return path


def write_csv(report: dict, out_dir: str) -> str:
    """One row per (eps, seed, metric); header-only when no sweep cells exist."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "cells.csv")
    cells = report["results"].get("sweep", {}).get("cells", [])
    with open(path, "w") as fh:
        fh.write("eps,seed,metric,value\n")
        for cell in cells:
            for metric in H.METRICS:
                fh.write(f"{cell['eps']!r},{cell['seed']},{metric},{cell[metric]!r}\n")
    return path


def emit_plotdata(report: dict, out_dir: str) -> list[str]:
    """Per-metric whitespace-delimited files: eps, median, q25, q75."""
    os.makedirs(out_dir, exist_ok=True)
    metrics = dict(report["results"].get("sweep", {}).get("metrics", {}))
    if "mosco" in report["results"]:
        metrics["form_abs_err"] = report["results"]["mosco"]
    paths = []
    for name in sorted(metrics):
        path = os.path.join(out_dir, f"{name}.dat")
        rows = sorted(
            zip(metrics[name]["eps"], metrics[name]["median"],
                metrics[name]["q25"], metrics[name]["q75"]),
            key=lambda r: -r[0],
        )
        with open(path, "w") as fh:
            fh.write("# eps median q25 q75\n")
            for eps, med, q25, q75 in rows:
                fh.write(f"{eps!r} {med!r} {q25!r} {q75!r}\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablehom",
        description="Homogenization studies for stable-like jump forms in random media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (or STABLEHOM_OUT)")
    p_run.add_argument("--deterministic", action="store_true",
                       help="wall times zeroed: byte-identical reports")
    p_val = sub.add_parser("validate", help="validate a config and print the resolved echo")
    p_val.add_argument("config")
    p_plot = sub.add_parser("plotdata", help="emit per-metric plot files from a report")
    p_plot.add_argument("report")
    p_plot.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            with open(args.config) as fh:
                config = parse_config(fh.read())
            json.dump(config.resolved, sys.stdout, indent=1)
            sys.stdout.write("\n")
            return 0
        if args.command == "plotdata":
            with open(args.report) as fh:
                try:
                    report = json.load(fh)
                except ValueError:  # not JSON, or not text
                    report = None
            if not (isinstance(report, dict) and isinstance(report.get("results"), dict)):
                print(f"report error: {args.report} is not a stablehom report", file=sys.stderr)
                return 2
            out_dir = args.out or os.environ.get("STABLEHOM_OUT", ".")
            for path in emit_plotdata(report, out_dir):
                print(path)
            return 0
        with open(args.config) as fh:
            config = parse_config(fh.read())
        out_dir = args.out or os.environ.get("STABLEHOM_OUT", ".")
        report = run_experiment(config)
        write_report(report, out_dir, deterministic=args.deterministic)
        write_csv(report, out_dir)
        failed = [c for c in report["checks"] if not c["passed"]]
        for check in report["checks"]:
            status = "ok" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: {check['detail']}")
        print(os.path.join(out_dir, "report.json"))
        return 1 if failed else 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
