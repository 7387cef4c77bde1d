"""Command-line front end: solve, simulate, detect-degree, and reduce.

All commands read a JSON input file and write their results into an output
directory (JSON for structured results, CSV for series and grids; every
output embeds the resolved configuration).  Each command reads its input,
runs, echoes its summary and hands its files to ``_write``, the one writer
of every output file.  Exit codes: 0 success, 2 invalid input (an output
path that cannot be written included), 3 numerical failure, 4 partial
Monte Carlo.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .analysis import log_spectral_deviation, reduce_model, spectral_density, spectrum_angles
from .continuation import SOLVE_ERRORS, Solution, solve
from .ingestion import VARIANTS, MonteCarloConfig, monte_carlo, run_problem
from .polyalg import BURN_IN, DEFAULT_TAU_RANK, SAMPLES
from .problem import (
    InterpolationProblem,
    ProblemValidationError,
    complex_list_from_json,
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
    except (OSError, ValueError) as exc:     # JSONDecodeError, UnicodeDecodeError, digit limit
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_problem(path: str) -> InterpolationProblem:
    data = _load_json(path)
    try:
        return problem_from_json_dict(data)
    except (ValueError, OverflowError) as exc:      # an integer beyond the float range
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
            order=data.get("order", sigma.degree),
            sigma_hat=poly_from_json(data, "sigma_hat") if has_hat else None,
            poles=None if poles is None else complex_list_from_json(poles, "bank_poles"),
            **controls,
        )
    except (ValueError, OverflowError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _write(output_path: str, files: dict):
    """Write ``files``, an ordered ``{file name: content}`` dict, into the
    directory ``output_path`` and echo their paths; the one writer of every
    output file.

    A dict is written as JSON and a ``(header, rows)`` pair as CSV; each
    embeds the resolved configuration of the running command (a ``config``
    key, or a ``# config: {...}`` first line).  A path that cannot be
    written exits 2.
    """
    ctx = click.get_current_context()
    params = dict(ctx.params)
    config = {"command": ctx.info_name, "input": params.pop("input_path"),
              "output": params.pop("output_path"), **params}
    out = path = Path(output_path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            path = out / name
            with open(path, "w", encoding="utf-8", newline="") as fh:
                if isinstance(content, dict):
                    json.dump({"config": config, **content}, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                else:
                    header, rows = content
                    fh.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    writer.writerows(rows)      # lazily: a series may be long
    except OSError as exc:
        _fail(EXIT_INVALID_INPUT, f"cannot write {path}: {exc}")
    click.echo("wrote " + ", ".join(str(out / name) for name in files))


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
    ``input_errors``) and 3 on a typed solve error, which is tested first
    (a ``LinAlgError`` is also a ``ValueError``)."""
    try:
        yield
    except ProblemValidationError as exc:
        click.echo("error: problem validation failed:", err=True)
        for v in exc.violations:
            click.echo(f"  {v}", err=True)
        sys.exit(EXIT_INVALID_INPUT)
    except SOLVE_ERRORS as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    except (_InputError, *input_errors) as exc:
        _fail(EXIT_INVALID_INPUT, str(exc))


@click.group()
def main():
    """Degree-constrained interpolation by positive-real functions.

    Solves Nevanlinna-Pick problems through the covariance extension
    equation with homotopy continuation, generates interpolation data from
    simulated time series, detects the positive degree, and reduces models
    by dominant spectral zeros.
    """


@main.command("solve")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Problem JSON.")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
def cmd_solve(input_path, output_path):
    """Solve one interpolation problem; write solution.json and trajectory.csv."""
    with _exit_codes():
        problem = _load_problem(input_path)
        solution = solve(problem)
    click.echo(f"solved degree {problem.n}: rho={solution.rho:.6g}, "
               f"max interpolation residual={solution.diagnostics.max_interp_residual:.3e}, "
               f"{len(solution.trajectory)} trajectory states")
    _write(output_path, {"solution.json": solution_to_json_dict(solution),
                         "trajectory.csv": _trajectory_rows(solution)})


@main.command("simulate")
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="System JSON (sigma, a, optional bank_poles / sigma_hat).")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
@click.option("--samples", type=int, default=SAMPLES, show_default=True)
@click.option("--burn-in", type=int, default=BURN_IN, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_simulate(input_path, output_path, **controls):
    """Simulate the filter, estimate values; write problem.json and series.csv."""
    with _exit_codes():
        system = _system_config(_load_json(input_path), input_path, **controls)
        problem, y = run_problem(system, system.seed)
    violations = validate(problem)
    status = "INVALID: " + "; ".join(map(str, violations)) if violations else "valid"
    click.echo(f"simulated {system.samples} samples (seed {system.seed}); "
               f"emitted problem is {status}")
    _write(output_path, {
        "problem.json": {**problem_to_json_dict(problem),
                         "violations": [str(v) for v in violations]},
        "series.csv": (["t", "y"], ([t, repr(float(v))] for t, v in enumerate(y))),
    })


@main.command("detect-degree")
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="System JSON (sigma, a, order, optional sigma_hat / bank_poles).")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
@click.option("--runs", type=int, default=1, show_default=True)
@click.option("--variant", type=click.Choice(VARIANTS), default=VARIANTS[0], show_default=True)
@click.option("--samples", type=int, default=SAMPLES, show_default=True)
@click.option("--burn-in", type=int, default=BURN_IN, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tau-rank", type=float, default=DEFAULT_TAU_RANK, show_default=True,
              help="Relative singular-value threshold for the degree estimate.")
def cmd_detect_degree(input_path, output_path, **controls):
    """Estimate the positive degree; write degree_report.json and runs.csv."""
    with _exit_codes():
        data = _load_json(input_path)
        if isinstance(data, dict) and "order" not in data:   # poly_from_json rejects a non-object
            raise _InputError(f"{input_path}: 'order' is required")
        mc = _system_config(data, input_path, **controls)
        report = monte_carlo(mc)
    header = ["run", "seed", "status", "error"] + [f"s{i + 1}" for i in range(mc.order)]
    rows = []
    for rec in report.per_run:
        svals = [repr(float(s)) for s in rec.singular_values] if rec.ok else [""] * mc.order
        rows.append([rec.run, rec.seed, "ok" if rec.ok else "failed", rec.error or ""] + svals)
    click.echo(f"estimated positive degree: {report.estimated_degree}")
    click.echo("mean singular values: "
               + " ".join(f"{s:.4e}" for s in report.singular_values))
    if report.runs_failed:
        click.echo(f"{report.runs_failed} of {report.runs_attempted} runs failed", err=True)
    _write(output_path, {
        "degree_report.json": {
            "singular_values": report.singular_values.tolist(),
            "estimated_degree": report.estimated_degree,
            "threshold": report.threshold,
            "runs_attempted": report.runs_attempted,
            "runs_failed": report.runs_failed,
        },
        "runs.csv": (header, rows),
    })
    if report.runs_failed == 0:
        sys.exit(EXIT_OK)
    ok = report.runs_attempted - report.runs_failed
    sys.exit(EXIT_PARTIAL if 2 * ok >= report.runs_attempted else EXIT_NUMERICAL)


@main.command("reduce")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Problem JSON.")
@click.option("--output", "output_path", required=True, type=click.Path(), help="Output directory.")
@click.option("--target-degree", type=int, required=True,
              help="Degree of the reduced model (dominant spectral zeros kept).")
def cmd_reduce(input_path, output_path, target_degree):
    """Solve, reduce to the target degree, and dump both spectral densities."""
    with _exit_codes():
        problem = _load_problem(input_path)
        full = solve(problem)
    with _exit_codes(ValueError):
        reduced_problem, reduced_solution = reduce_model(full, target_degree)
    deviation = log_spectral_deviation(full, reduced_solution)
    click.echo(f"reduced degree {problem.n} -> {target_degree}; "
               f"log-spectral deviation {deviation:.4f}")
    spectra = zip(spectrum_angles(), spectral_density(full), spectral_density(reduced_solution))
    _write(output_path, {
        "reduced_problem.json": problem_to_json_dict(reduced_problem),
        "reduced_solution.json": solution_to_json_dict(reduced_solution),
        "spectra.csv": (["theta", "phi_full", "phi_reduced"],
                        ([repr(float(t)), repr(float(pf)), repr(float(pr))]
                         for t, pf, pr in spectra)),
    })


if __name__ == "__main__":
    main()
