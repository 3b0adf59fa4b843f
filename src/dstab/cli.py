"""Command-line front end.

Problems are plain sectioned text files: `[variables]` names the
uncertainty vector, `[matrix]` gives the size and then the entries
(row-major, one polynomial expression per line), `[delta]` holds interval
bounds (`name in [lo, hi]`) and/or inline polynomial constraints,
`[region]` is a preset name or inline constraints over `lre`/`lim`,
`[moments]` holds expectation constraints (`E[expr] = value`, `<=`, `>=`),
and `[options]` holds defaults such as `tau = 2`, each parsed on its line
by its key's type (a flag wins over it); a key may appear once.  `#`
starts a comment.  `$name` placeholders anywhere outside comments are
bound on the command line, each binding to a placeholder the file holds,
which is how parameter sweeps and bisection attach to a file.

Exit codes: 0 = completed, 2 = NotCertified / Inconclusive (for
scripting) or a usage error such as a malformed flag value, 1 = error.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path

from . import analysis, oracle
from .poly import IDENTIFIER, Polynomial, PolynomialError, parse_polynomial
from .problem import DStabilityProblem, MomentConstraint, UncertainMatrix, build_lifted
from .relax import SolverStatus, assemble_relaxation, export_sdp
from .sdp import SolverSettings
from .sets import (
    REGION_VARS,
    Relation,
    RegionPreset,
    SemialgebraicSet,
    StabilityRegionComplement,
    region_preset,
)


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int | None = None, section: str | None = None):
        spot = []
        if section:
            spot.append(f"section [{section}]")
        if line is not None:
            spot.append(f"line {line}")
        where = ", ".join(spot)
        super().__init__(f"{message}" + (f" ({where})" if where else ""))
        self.line = line
        self.section = section


def fmt(x: float) -> str:
    """Fixed 9-significant-digit rendering for reproducible logs."""
    return f"{float(x):.9g}"


# ----------------------------------------------------------------------
# Problem file parsing.

_SECTIONS = ("variables", "matrix", "delta", "region", "moments", "options")


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _eigen_space(text: str) -> str:
    if text not in ("auto", "real", "complex"):
        raise ValueError("expected auto, real or complex")
    return text


_OPTION_PARSERS = {"tau": int, "margin": float, "max_iterations": int, "feasibility_tol": float,
                   "gap_tol": float, "eigen_space": _eigen_space,
                   "allow_asymmetric_real": _true_or_false, "lambda_radius": float}
_PLACEHOLDER = re.compile(rf"\$({IDENTIFIER.pattern})")


def _substitute(text: str, bindings: dict[str, float], path: str) -> str:
    """Replace each whole `$name` placeholder by its bound value; every
    placeholder must be bound and every binding must name a placeholder."""
    names = set(_PLACEHOLDER.findall(text))
    unbound = sorted(names - set(bindings))
    if unbound:
        raise ProblemFileError(
            f"unbound placeholders in {path}: " + ", ".join("$" + n for n in unbound)
            + " (bind with --bind name=value or --param)"
        )
    unused = sorted(set(bindings) - names)
    if unused:
        raise ProblemFileError(
            f"no placeholder in {path} for binding(s): " + ", ".join(unused)
        )
    return _PLACEHOLDER.sub(lambda m: f"({float(bindings[m.group(1)])!r})", text)


def _constant(expr: str, line: int, section: str) -> float:
    try:
        p = parse_polynomial(expr, [])
        return p.constant_value()
    except PolynomialError as err:
        raise ProblemFileError(f"bad numeric expression {expr!r}: {err}", line, section)


def _split_sections(text: str, path: str):
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ProblemFileError(f"unknown section [{name}] in {path}", lineno)
            if name in sections:
                raise ProblemFileError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ProblemFileError(f"content before any section in {path}", lineno)
        sections[current].append((lineno, line))
    for required in ("variables", "matrix", "delta", "region"):
        if required not in sections:
            raise ProblemFileError(f"missing required section [{required}] in {path}")
    return sections


def _parse_constraint_line(line: str, lineno: int, section: str, variables):
    for op, relation in ((">=", Relation.GE), ("<=", Relation.GE), ("=", Relation.EQ)):
        if op in line:
            lhs, rhs = line.split(op, 1)
            try:
                left = parse_polynomial(lhs, variables)
                right = parse_polynomial(rhs, variables)
            except PolynomialError as err:
                raise ProblemFileError(str(err), lineno, section)
            p = left - right if op != "<=" else right - left
            return p, relation
    raise ProblemFileError(
        f"expected a constraint of the form 'expr >= expr', 'expr <= expr' "
        f"or 'expr = expr', got {line!r}", lineno, section,
    )


def load_problem(path, bindings: dict[str, float] | None = None):
    """Parse a problem file into a DStabilityProblem plus its [options]."""
    path = Path(path)
    # comments go first, line by line, so a `$name` in one needs no binding
    text = "\n".join(line.split("#", 1)[0] for line in path.read_text().splitlines())
    sections = _split_sections(_substitute(text, bindings or {}, str(path)), str(path))

    variables: list[str] = []
    for lineno, line in sections["variables"]:
        for name in line.replace(",", " ").split():
            if not IDENTIFIER.fullmatch(name):
                raise ProblemFileError(f"bad variable name {name!r}", lineno, "variables")
            if name in variables:
                raise ProblemFileError(f"duplicate variable {name!r}", lineno, "variables")
            variables.append(name)
    if not variables:
        raise ProblemFileError("no uncertainty variables declared", section="variables")

    matrix_lines = sections["matrix"]
    if not matrix_lines:
        raise ProblemFileError("empty matrix section", section="matrix")
    size_line, size_text = matrix_lines[0]
    try:
        size = int(size_text)
    except ValueError:
        raise ProblemFileError(
            f"matrix section must start with the size, got {size_text!r}",
            size_line, "matrix",
        )
    if size < 1:
        raise ProblemFileError(f"matrix size must be at least 1, got {size}", size_line, "matrix")
    entries = matrix_lines[1:]
    if len(entries) != size * size:
        raise ProblemFileError(
            f"matrix of size {size} needs {size * size} entries, got {len(entries)}",
            section="matrix",
        )
    grid = []
    for i in range(size):
        row = []
        for j in range(size):
            lineno, expr = entries[i * size + j]
            try:
                row.append(parse_polynomial(expr, variables))
            except PolynomialError as err:
                raise ProblemFileError(f"entry ({i+1},{j+1}): {err}", lineno, "matrix")
        grid.append(tuple(row))
    matrix = UncertainMatrix(tuple(variables), tuple(grid))

    if not sections["delta"]:
        raise ProblemFileError("delta section may not be empty", section="delta")
    bounds_of = {}
    extra = []
    for lineno, line in sections["delta"]:
        if " in " in line:
            name, bounds = line.split(" in ", 1)
            name = name.strip()
            if name not in variables:
                raise ProblemFileError(f"unknown variable {name!r}", lineno, "delta")
            if name in bounds_of:
                raise ProblemFileError(f"second interval for variable {name!r}", lineno, "delta")
            bounds = bounds.strip()
            if not (bounds.startswith("[") and bounds.endswith("]")):
                raise ProblemFileError(
                    f"bounds must look like [lo, hi], got {bounds!r}", lineno, "delta"
                )
            parts = bounds[1:-1].split(",")
            if len(parts) != 2:
                raise ProblemFileError("bounds need exactly two values", lineno, "delta")
            lo = _constant(parts[0], lineno, "delta")
            hi = _constant(parts[1], lineno, "delta")
            if lo > hi:
                raise ProblemFileError(f"inverted bounds [{lo}, {hi}]", lineno, "delta")
            bounds_of[name] = (lo, hi)
        else:
            extra.append(_parse_constraint_line(line, lineno, "delta", variables))
    # two rows per bounded variable, in variable order, ahead of the inline ones
    constraints = []
    for i, name in enumerate(variables):
        if name in bounds_of:
            lo, hi = bounds_of[name]
            v = Polynomial.variable(len(variables), i)
            constraints += [(v - lo, Relation.GE), (hi - v, Relation.GE)]
    constraints.extend(extra)
    delta = SemialgebraicSet(tuple(variables), tuple(constraints))

    region_lines = sections["region"]
    if not region_lines:
        raise ProblemFileError("region section may not be empty", section="region")
    preset_names = {p.value for p in RegionPreset}
    if len(region_lines) == 1 and region_lines[0][1] in preset_names:
        region = region_preset(region_lines[0][1])
    else:
        rc = []
        for lineno, line in region_lines:
            if line in preset_names:
                raise ProblemFileError(
                    "preset regions cannot be mixed with inline constraints",
                    lineno, "region",
                )
            rc.append(_parse_constraint_line(line, lineno, "region", list(REGION_VARS)))
        region = StabilityRegionComplement(SemialgebraicSet(REGION_VARS, tuple(rc)))

    moments = []
    for lineno, line in sections.get("moments", []):
        if not line.startswith("E[") or "]" not in line:
            raise ProblemFileError(
                f"moment lines look like 'E[expr] = value', got {line!r}",
                lineno, "moments",
            )
        close = line.rindex("]", 0, line.find("=") if "=" in line else len(line))
        expr = line[2:close]
        rest = line[close + 1:].strip()
        for op, rel in (("<=", "<="), (">=", ">="), ("=", "=")):
            if rest.startswith(op):
                target = _constant(rest[len(op):], lineno, "moments")
                try:
                    f = parse_polynomial(expr, variables)
                except PolynomialError as err:
                    raise ProblemFileError(str(err), lineno, "moments")
                moments.append(MomentConstraint(f, rel, target))
                break
        else:
            raise ProblemFileError(f"missing relation in {line!r}", lineno, "moments")

    options: dict[str, object] = {}
    for lineno, line in sections.get("options", []):
        if "=" not in line:
            raise ProblemFileError(f"options are 'key = value', got {line!r}",
                                   lineno, "options")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTION_PARSERS:
            raise ProblemFileError(
                f"unknown option {key!r} (known: {', '.join(_OPTION_PARSERS)})", lineno, "options"
            )
        if key in options:
            raise ProblemFileError(f"option {key!r} given twice", lineno, "options")
        try:
            options[key] = _OPTION_PARSERS[key](value)
        except ValueError as err:
            raise ProblemFileError(f"bad value {value!r} for option {key!r}: {err}",
                                   lineno, "options")

    # the problem's own options go into it; tau, margin and the solver
    # settings are returned for the caller
    problem = DStabilityProblem(
        matrix=matrix,
        delta=delta,
        region=region,
        moment_constraints=tuple(moments),
        **{key: options.pop(key)
           for key in ("eigen_space", "allow_asymmetric_real", "lambda_radius")
           if key in options},
    )
    return problem, options


# ----------------------------------------------------------------------
# Commands.

def _flag_or_file(args, options: dict, key: str):
    """A flag wins over the problem file; None leaves the value to the
    default of the function that reads it."""
    value = getattr(args, key, None)
    return options.get(key) if value is None else value


def _solve_kwargs(args, options: dict) -> dict:
    """tau, settings and margin for a solving command.  Every option the file
    gives besides tau and margin is a SolverSettings field."""
    given = {key: value for key, value in options.items() if key not in ("tau", "margin")}
    if args.log_iterations:
        given["log_stream"] = sys.stderr
    kwargs = {"tau": _flag_or_file(args, options, "tau"), "settings": SolverSettings(**given)}
    margin = _flag_or_file(args, options, "margin")
    if margin is not None:
        kwargs["margin"] = analysis.check_margin(margin)
    return kwargs


def _binding(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {value!r} in {text!r}")


def _numbers(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))
    if not values:
        raise argparse.ArgumentTypeError("must list at least one number")
    return values


def _unless_optimal(report: analysis.AnalysisReport) -> str:
    """The solver status to print beside a verdict, when it is not Optimal."""
    if report.solver_status is SolverStatus.OPTIMAL:
        return ""
    return f"   (solver: {report.solver_status.value})"


def _print_report(report: analysis.AnalysisReport, out) -> None:
    print(f"tau:        {report.tau}   (moment variables: {report.num_moments}; "
          f"solved {report.solved_moments}, largest block {report.solved_largest_block})",
          file=out)
    print(
        f"solver:     {report.solver_status.value}, {report.iterations} iterations, "
        f"{fmt(report.seconds)} s", file=out,
    )
    print(f"raw value:  {fmt(report.raw_value)}", file=out)
    print(f"p_upper:    {fmt(report.p_upper)}   (violation probability bound)", file=out)
    print(f"p_lower:    {fmt(report.p_lower_stability)}   (D-stability probability)", file=out)
    print(f"verdict:    {report.verdict.value}{_unless_optimal(report)}", file=out)
    if report.candidate is not None:
        cand = report.candidate
        rho = ", ".join(fmt(v) for v in cand.rho)
        print(
            f"candidate:  rho = ({rho}), lambda = {fmt(cand.lam.real)}"
            f"{'+' if cand.lam.imag >= 0 else '-'}{fmt(abs(cand.lam.imag))}j, "
            f"support residual {fmt(cand.max_support_violation)}, "
            f"objective gap {fmt(cand.objective_gap)}", file=out,
        )
        if cand.objective_gap > 1e-3:
            print(
                "            (large objective gap: the worst case is a mixture, "
                "the candidate is only its mean)", file=out,
            )


def _report_csv_rows(reports) -> list[analysis.SweepPoint]:
    return [
        analysis.SweepPoint(
            theta=r.tau, p_upper=r.p_upper, p_lower=r.p_lower_stability,
            status=r.solver_status.value, tau=r.tau, seconds=r.seconds,
        )
        for r in reports
    ]


def _cmd_analyze(args, out) -> int:
    problem, options = load_problem(args.problem, dict(args.bind))
    report = analysis.upper_probability(problem, **_solve_kwargs(args, options))
    _print_report(report, out)
    if args.export_sdp:
        export_sdp(report.sdp, args.export_sdp)
        print(f"sdp written to {args.export_sdp}", file=out)
    if args.csv:
        analysis.write_sweep_csv(_report_csv_rows([report]), args.csv)
    return 2 if report.verdict is analysis.Verdict.INCONCLUSIVE else 0


def _cmd_certify(args, out) -> int:
    problem, options = load_problem(args.problem, dict(args.bind))
    report = analysis.certify_robust(problem, **_solve_kwargs(args, options))
    _print_report(report, out)
    certified = report.verdict is analysis.Verdict.CERTIFIED_ROBUSTLY_DSTABLE
    print(f"certificate: {report.verdict.value if certified else 'NotCertified'} "
          f"(bound {fmt(report.upper_bound)}, margin {fmt(report.margin)})"
          f"{_unless_optimal(report)}", file=out)
    return 0 if certified else 2


def _cmd_hierarchy(args, out) -> int:
    problem, options = load_problem(args.problem, dict(args.bind))
    kwargs = _solve_kwargs(args, options)
    report = analysis.hierarchy(problem, kwargs.pop("tau"), args.tau_max, **kwargs)
    for r in report.reports:
        print(f"tau={r.tau}: raw={fmt(r.raw_value)} p_upper={fmt(r.p_upper)} "
              f"status={r.solver_status.value} verdict={r.verdict.value}", file=out)
    for tau, prev, nxt in report.monotonicity_violations:
        print(f"warning: raw value increased at tau={tau}: {fmt(prev)} -> {fmt(nxt)}",
              file=out)
    if args.csv:
        analysis.write_sweep_csv(_report_csv_rows(report.reports), args.csv)
    final = report.reports[-1]
    return 2 if final.verdict is analysis.Verdict.INCONCLUSIVE else 0


def _family(args, values):
    """The problem family of `--param`, bound next to the `--bind` bindings,
    and the file's [options], read at the first of `values` whose problem
    loads, whose problem the family hands back for that value instead of
    parsing the file again; when none loads, the first value's error is
    raised."""
    def load(value: float):
        return load_problem(args.problem, {**dict(args.bind), args.param: value})

    errors = []
    for value in values:
        try:
            first, options = load(value)
        except ValueError as err:
            errors.append(err)
            continue
        return (lambda theta: first if theta == value else load(theta)[0]), options
    raise errors[0]


def _cmd_sweep(args, out) -> int:
    family, options = _family(args, args.values)
    points = analysis.sweep(family, args.values, **_solve_kwargs(args, options))
    analysis.write_sweep_rows(csv.writer(out, lineterminator="\n"), points)
    if args.csv:
        analysis.write_sweep_csv(points, args.csv)
    return 0


def _cmd_bisect(args, out) -> int:
    family, options = _family(args, [args.lo])
    result = analysis.bisect_margin(
        family, args.lo, args.hi, tol=args.tol, **_solve_kwargs(args, options),
    )
    for k, certified, bound in result.evaluations:
        print(f"k={fmt(k)}: {'certified' if certified else 'not certified'} "
              f"(bound {fmt(bound)})", file=out)
    print(f"k_star: {fmt(result.k_star)}", file=out)
    return 0


def _cmd_oracle(args, out) -> int:
    problem, _options = load_problem(args.problem, dict(args.bind))
    points = oracle.grid_points(problem, args.grid, seed=args.seed)
    spectra = oracle.spectra(problem, points)
    witness = oracle.deepest_witness(problem, points, spectra)
    search = f"grid search ({args.grid} points/axis"
    if args.grid ** len(problem.uncertainty_variables) > oracle.MAX_GRID_POINTS:
        search += f"; a seeded sample of {len(points)} points replaced the grid"
    if witness is None:
        print(f"{search}): no violation found", file=out)
    else:
        rho = ", ".join(fmt(v) for v in witness.rho)
        print(
            f"{search}): witness rho = ({rho}), "
            f"lambda = {fmt(witness.lam.real)}{'+' if witness.lam.imag >= 0 else '-'}"
            f"{fmt(abs(witness.lam.imag))}j, region depth {fmt(witness.min_region_residual)}, "
            f"eigenpair residual {fmt(witness.eig_residual)}", file=out,
        )
    try:
        result = oracle.atomic_lp_bound(problem, points, atom_spectra=spectra)
        print(
            f"atomic LP over {len(result.atoms)} atoms: lower bound "
            f"{fmt(result.lower_bound)} on the violation probability", file=out,
        )
    except oracle.AtomicLPInfeasible as err:
        print(f"atomic LP: infeasible on this grid ({err}); refine the grid", file=out)
    return 0


def _cmd_export(args, out) -> int:
    problem, options = load_problem(args.problem, dict(args.bind))
    sdp = assemble_relaxation(build_lifted(problem), _flag_or_file(args, options, "tau"))
    dims = export_sdp(sdp, args.output)
    print(f"tau {sdp.tau}: {sdp.num_moments} moment variables, "
          f"blocks {list(dims)}, "
          f"1 linear rows -> {args.output}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstab",
        description="Robust and probabilistic D-stability analysis of "
                    "uncertain polynomial matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag is registered only on the subcommands that read it, so
    # argparse rejects it everywhere else
    def common(p, tau=True, solver=True, csv=False):
        p.set_defaults(parser=p)  # for usage errors found after parsing
        p.add_argument("problem", help="problem file")
        if tau:
            p.add_argument("--tau", type=int, default=None, help="relaxation order")
        p.add_argument("--bind", action="append", default=[], type=_binding, metavar="NAME=VALUE",
                       help="bind a $placeholder in the problem file")
        if solver:
            p.add_argument("--margin", type=float, default=None,
                           help="certification margin in [0, 1) on the bound < 1")
            p.add_argument("--log-iterations", action="store_true",
                           help="print one solver line per interior-point iteration")
        if csv:
            p.add_argument("--csv", default=None, help="also write results as CSV")

    p = sub.add_parser("analyze", help="upper bound on the violation probability")
    common(p, csv=True)
    p.add_argument("--export-sdp", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("certify", help="robust D-stability certificate (support-only)")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("hierarchy", help="solve a range of relaxation orders")
    common(p, csv=True)
    p.add_argument("--tau-max", type=int, default=None)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("sweep", help="sweep a $parameter of the problem file")
    common(p, csv=True)
    p.add_argument("--param", required=True, help="placeholder name to sweep")
    p.add_argument("--values", required=True, type=_numbers, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bisect", help="largest certified value of a $parameter")
    common(p)
    p.add_argument("--param", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_bisect)

    p = sub.add_parser("oracle", help="independent grid search and atomic LP bound")
    common(p, tau=False, solver=False)
    p.add_argument("--grid", type=int, default=101, help="grid points per axis")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sample that replaces a grid of more than "
                        f"{oracle.MAX_GRID_POINTS} points")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export-sdp", help="write the assembled SDP as sparse text")
    common(p, solver=False)
    p.add_argument("output", help="output path")
    p.set_defaults(func=_cmd_export)

    return parser


def _check_output_paths(args) -> None:
    """Fail before any lift or solve when an output path of the command
    cannot be written: a directory, or a file in a missing directory."""
    for key in ("output", "export_sdp", "csv"):
        path = getattr(args, key, None)
        if not path:
            continue
        if Path(path).is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        parent = Path(path).parent
        if not parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: directory {parent} does not exist")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each placeholder takes one value: from one --bind or from --param
    names = [name for name, _value in args.bind] + [getattr(args, "param", None)]
    twice = sorted({name for name in names if name is not None and names.count(name) > 1})
    if twice:
        args.parser.error("bound more than once (by --bind or --param): " + ", ".join(twice))
    out = sys.stdout
    try:
        _check_output_paths(args)
        return args.func(args, out)
    except (ProblemFileError, PolynomialError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except oracle.OracleError as err:
        print(f"oracle error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
