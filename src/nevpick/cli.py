"""Command-line front end: solve, simulate, detect-degree, and reduce.

All commands read a JSON input file and write their results into an output
directory (JSON for structured results, CSV for series and grids; every
output embeds the resolved configuration).  Exit codes: 0 success,
2 invalid input, 3 numerical failure, 4 partial Monte Carlo.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .analysis import (
    DEFAULT_TAU_RANK,
    log_spectral_deviation,
    reduce_model,
    spectral_density,
)
from .continuation import SOLVE_ERRORS, Solution, SolveOptions, solve
from .ingestion import MonteCarloConfig, monte_carlo, run_problem
from .problem import (
    InterpolationProblem,
    ProblemValidationError,
    complex_from_json,
    complex_to_json,
    poly_from_json,
    problem_from_json_dict,
    problem_to_json_dict,
    validate,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


class _InputError(Exception):
    """Invalid input file or option combination (exit code 2)."""


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_problem(path: str) -> InterpolationProblem:
    data = _load_json(path)
    try:
        return problem_from_json_dict(data)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _system_config(data: dict, path: str, **controls) -> MonteCarloConfig:
    """Pipeline configuration from a system JSON (``sigma``, ``a``, optional
    ``order``, ``sigma_hat`` and ``bank_poles``) plus the command's options."""
    try:
        sigma = poly_from_json(data, "sigma")
        has_hat = "sigma_hat_coeffs" in data or "sigma_hat_roots" in data
        poles = data.get("bank_poles")
        return MonteCarloConfig(
            sigma=sigma,
            a=poly_from_json(data, "a"),
            order=int(data.get("order", sigma.degree)),
            sigma_hat=poly_from_json(data, "sigma_hat") if has_hat else None,
            poles=None if poles is None else tuple(complex_from_json(p) for p in poles),
            **controls,
        )
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _config() -> dict:
    """The resolved configuration of the running command, embedded in every output."""
    ctx = click.get_current_context()
    params = dict(ctx.params)
    return {"command": ctx.info_name, "input": params.pop("input_path"),
            "output": params.pop("output_path"), **params}


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, config: dict, header: list, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def solution_to_json_dict(solution: Solution) -> dict:
    diag = solution.diagnostics
    return {
        "problem": problem_to_json_dict(solution.problem),
        "a_coeffs": solution.a.coeffs.tolist(),
        "b_coeffs": solution.b.coeffs.tolist(),
        "rho": solution.rho,
        "scale": solution.scale,
        "p": solution.p.tolist(),
        "P": solution.P.tolist(),
        "singular_values": diag.singular_values.tolist(),
        "poles": [complex_to_json(z) for z in diag.poles],
        "zeros": [complex_to_json(z) for z in diag.zeros],
        "spectral_zeros": [complex_to_json(z) for z in diag.spectral_zeros],
        "residuals": {
            "per_node": diag.interp_residuals.tolist(),
            "max_interpolation": diag.max_interp_residual,
            "cee": diag.cee_residual,
        },
        "cond_V": diag.cond_V,
        "trajectory_states": len(solution.trajectory),
    }


def _trajectory_rows(solution: Solution):
    n = solution.problem.n
    header = (
        ["nu"]
        + [f"p_{i + 1}" for i in range(n)]
        + [x for i in range(n) for x in (f"pole_re_{i + 1}", f"pole_im_{i + 1}")]
        + ["corrector_iters"]
    )
    rows = []
    for state in solution.trajectory:
        row = [repr(float(state.nu))]
        row += [repr(float(x)) for x in state.p]
        for r in state.a_roots:
            row += [repr(float(r.real)), repr(float(r.imag))]
        row.append(state.corrector_iters)
        rows.append(row)
    return header, rows


@contextmanager
def _exit_codes(*input_errors):
    """Exit 2 on invalid input (a failed validation, ``_InputError`` or one of
    ``input_errors``) and 3 on a typed numerical failure."""
    try:
        yield
    except ProblemValidationError as exc:
        click.echo("error: problem validation failed:", err=True)
        for v in exc.violations:
            click.echo(f"  {v}", err=True)
        sys.exit(EXIT_INVALID_INPUT)
    except (_InputError, *input_errors) as exc:
        _fail(EXIT_INVALID_INPUT, str(exc))
    except SOLVE_ERRORS as exc:
        _fail(EXIT_NUMERICAL, str(exc))


@click.group()
def main():
    """Degree-constrained interpolation by positive-real functions.

    Solves Nevanlinna-Pick problems through the covariance extension
    equation with homotopy continuation, generates interpolation data from
    simulated time series, detects the positive degree, and reduces models
    by dominant spectral zeros.
    """


def _solver_flags(fn):
    """Add the ``SolveOptions`` flags shared by ``solve`` and ``reduce``."""
    for flag in reversed([
        click.option("--mu", type=float, default=1e-4, show_default=True,
                     help="Predictor acceptance band on the first residual component."),
        click.option("--tol-corrector", type=float, default=1e-12, show_default=True,
                     help="Max-norm residual for corrector acceptance."),
        click.option("--step-init", type=float, default=0.1, show_default=True,
                     help="Initial continuation step."),
        click.option("--step-min", type=float, default=1e-8, show_default=True,
                     help="Smallest step before the path is declared failed."),
    ]):
        fn = flag(fn)
    return fn


@main.command("solve")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Problem JSON.")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
@_solver_flags
def cmd_solve(input_path, output_path, mu, tol_corrector, step_init, step_min):
    """Solve one interpolation problem; write solution.json and trajectory.csv."""
    config = _config()
    with _exit_codes(ValueError):
        problem = _load_problem(input_path)
        opts = SolveOptions(mu=mu, tol_corrector=tol_corrector, step_init=step_init,
                            step_min=step_min)
    with _exit_codes():
        solution = solve(problem, opts)
    out = _out_dir(output_path)
    payload = {"config": config, **solution_to_json_dict(solution)}
    _write_json(out / "solution.json", payload)
    header, rows = _trajectory_rows(solution)
    _write_csv(out / "trajectory.csv", config, header, rows)
    click.echo(
        f"solved degree {problem.n}: rho={solution.rho:.6g}, "
        f"max interpolation residual={solution.diagnostics.max_interp_residual:.3e}, "
        f"{len(solution.trajectory)} trajectory states"
    )
    click.echo(f"wrote {out / 'solution.json'} and {out / 'trajectory.csv'}")


@main.command("simulate")
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="System JSON (sigma, a, optional bank_poles / sigma_hat).")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
@click.option("--samples", type=int, default=10_000, show_default=True)
@click.option("--burn-in", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_simulate(input_path, output_path, samples, burn_in, seed):
    """Simulate the filter, estimate values; write problem.json and series.csv."""
    config = _config()
    with _exit_codes(ValueError):
        system = _system_config(_load_json(input_path), input_path,
                                samples=samples, burn_in=burn_in, seed=seed)
        problem, y = run_problem(system, seed)
    violations = validate(problem)
    out = _out_dir(output_path)
    payload = {
        "config": config,
        **problem_to_json_dict(problem),
        "violations": [str(v) for v in violations],
    }
    _write_json(out / "problem.json", payload)
    _write_csv(out / "series.csv", config, ["t", "y"],
               ([t, repr(float(v))] for t, v in enumerate(y)))
    status = "INVALID: " + "; ".join(map(str, violations)) if violations else "valid"
    click.echo(f"simulated {samples} samples (seed {seed}); emitted problem is {status}")
    click.echo(f"wrote {out / 'problem.json'} and {out / 'series.csv'}")


@main.command("detect-degree")
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="System JSON (sigma, a, order, optional sigma_hat / bank_poles).")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
@click.option("--runs", type=int, default=1, show_default=True)
@click.option("--variant", type=click.Choice(["monte-carlo", "exact"]),
              default="monte-carlo", show_default=True)
@click.option("--samples", type=int, default=10_000, show_default=True)
@click.option("--burn-in", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tau-rank", type=float, default=DEFAULT_TAU_RANK, show_default=True,
              help="Relative singular-value threshold for the degree estimate.")
def cmd_detect_degree(input_path, output_path, runs, variant, samples, burn_in, seed, tau_rank):
    """Estimate the positive degree; write degree_report.json and runs.csv."""
    config = _config()
    with _exit_codes():
        data = _load_json(input_path)
        if "order" not in data:
            raise _InputError(f"{input_path}: 'order' is required")
        mc = _system_config(data, input_path, samples=samples, burn_in=burn_in, seed=seed,
                            runs=runs, variant=variant, tau_rank=tau_rank)
        report = monte_carlo(mc)
    out = _out_dir(output_path)
    payload = {
        "config": config,
        "singular_values": report.singular_values.tolist(),
        "estimated_degree": report.estimated_degree,
        "threshold": report.threshold,
        "runs_attempted": report.runs_attempted,
        "runs_failed": report.runs_failed,
    }
    _write_json(out / "degree_report.json", payload)
    header = ["run", "seed", "status", "error"] + [f"s{i + 1}" for i in range(mc.order)]
    rows = []
    for rec in report.per_run:
        svals = [repr(float(s)) for s in rec.singular_values] if rec.ok else [""] * mc.order
        rows.append([rec.run, rec.seed, "ok" if rec.ok else "failed", rec.error or ""] + svals)
    _write_csv(out / "runs.csv", config, header, rows)
    click.echo(f"estimated positive degree: {report.estimated_degree}")
    click.echo("mean singular values: "
               + " ".join(f"{s:.4e}" for s in report.singular_values))
    if report.runs_failed:
        click.echo(f"{report.runs_failed} of {report.runs_attempted} runs failed", err=True)
    click.echo(f"wrote {out / 'degree_report.json'} and {out / 'runs.csv'}")
    if report.runs_failed == 0:
        sys.exit(EXIT_OK)
    ok = report.runs_attempted - report.runs_failed
    sys.exit(EXIT_PARTIAL if 2 * ok >= report.runs_attempted else EXIT_NUMERICAL)


@main.command("reduce")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Problem JSON.")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
@click.option("--target-degree", type=int, required=True,
              help="Degree of the reduced model (dominant spectral zeros kept).")
@_solver_flags
def cmd_reduce(input_path, output_path, target_degree, mu, tol_corrector, step_init, step_min):
    """Solve, reduce to the target degree, and dump both spectral densities."""
    config = _config()
    with _exit_codes(ValueError):
        problem = _load_problem(input_path)
        opts = SolveOptions(mu=mu, tol_corrector=tol_corrector, step_init=step_init,
                            step_min=step_min)
    with _exit_codes():
        full = solve(problem, opts)
    with _exit_codes(ValueError):
        reduced_problem, reduced_solution = reduce_model(full, target_degree, opts=opts)
    out = _out_dir(output_path)
    _write_json(out / "reduced_problem.json",
                {"config": config, **problem_to_json_dict(reduced_problem)})
    _write_json(out / "reduced_solution.json",
                {"config": config, **solution_to_json_dict(reduced_solution)})
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    phi_full = spectral_density(full, thetas)
    phi_red = spectral_density(reduced_solution, thetas)
    _write_csv(out / "spectra.csv", config, ["theta", "phi_full", "phi_reduced"],
               ([repr(float(t)), repr(float(pf)), repr(float(pr))]
                for t, pf, pr in zip(thetas, phi_full, phi_red)))
    deviation = log_spectral_deviation(full, reduced_solution)
    click.echo(
        f"reduced degree {problem.n} -> {target_degree}; "
        f"log-spectral deviation {deviation:.4f}"
    )
    click.echo(f"wrote {out / 'reduced_problem.json'}, {out / 'reduced_solution.json'}, "
               f"{out / 'spectra.csv'}")


if __name__ == "__main__":
    main()
