"""Command-line front end.

Problems are plain sectioned text files: `[variables]` names the
uncertainty vector, `[matrix]` gives the size and then the entries
(row-major, one polynomial expression per line), `[delta]` holds interval
bounds (`name in [lo, hi]`) and/or inline polynomial constraints,
`[region]` is a preset name or inline constraints over `lre`/`lim`,
`[moments]` holds expectation constraints (`E[expr] = value`, `<=`, `>=`),
and `[options]` carries defaults such as `tau` or `eigen_space`.  `$name`
placeholders anywhere in the file are bound on the command line, each
binding to a placeholder the file holds, which is how parameter sweeps and
bisection attach to a file.

Exit codes: 0 = completed, 2 = NotCertified / Inconclusive (for
scripting), 1 = error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import analysis, oracle
from .poly import PolynomialError, parse_polynomial
from .problem import DStabilityProblem, MomentConstraint, UncertainMatrix, build_lifted
from .relax import assemble_relaxation, export_sdp
from .sdp import SolverSettings
from .sets import (
    REGION_VARS,
    Relation,
    RegionPreset,
    SemialgebraicSet,
    StabilityRegionComplement,
    box_set,
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
_OPTION_KEYS = ("tau", "margin", "max_iterations", "feasibility_tol", "gap_tol",
                "eigen_space", "allow_asymmetric_real", "lambda_radius")
_PLACEHOLDER = re.compile(r"\$([A-Za-z][A-Za-z0-9_]*)")


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
        line = raw.split("#", 1)[0].strip()
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
    text = _substitute(path.read_text(), bindings or {}, str(path))
    sections = _split_sections(text, str(path))

    variables: list[str] = []
    for lineno, line in sections["variables"]:
        for name in line.replace(",", " ").split():
            if not (name[0].isalpha() and all(c.isalnum() or c == "_" for c in name)):
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
    lower = {}
    upper = {}
    extra = []
    for lineno, line in sections["delta"]:
        if " in " in line:
            name, bounds = line.split(" in ", 1)
            name = name.strip()
            if name not in variables:
                raise ProblemFileError(f"unknown variable {name!r}", lineno, "delta")
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
            lower[name] = lo
            upper[name] = hi
        else:
            extra.append(_parse_constraint_line(line, lineno, "delta", variables))
    constraints = []
    if lower:
        box = box_set(
            tuple(variables),
            [lower.get(v, 0.0) for v in variables],
            [upper.get(v, 0.0) for v in variables],
        )
        keep = [v in lower for v in variables for _ in (0, 1)]
        constraints = [c for c, k in zip(box.constraints, keep) if k]
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
        if key not in _OPTION_KEYS:
            raise ProblemFileError(
                f"unknown option {key!r} (known: {', '.join(_OPTION_KEYS)})", lineno, "options"
            )
        options[key] = value

    eigen_space = str(options.pop("eigen_space", "auto"))
    allow_asym = str(options.pop("allow_asymmetric_real", "false")).lower() == "true"
    lambda_radius = options.pop("lambda_radius", None)
    problem = DStabilityProblem(
        matrix=matrix,
        delta=delta,
        region=region,
        moment_constraints=tuple(moments),
        eigen_space=eigen_space,
        allow_asymmetric_real=allow_asym,
        lambda_radius=float(str(lambda_radius)) if lambda_radius is not None else None,
    )
    return problem, options


def dump_problem(problem: DStabilityProblem, options: dict | None = None) -> str:
    """Render a problem back into the file format; load_problem of the
    result reproduces the problem structurally."""
    rho = list(problem.uncertainty_variables)
    lines = ["[variables]", " ".join(rho), "", "[matrix]", str(problem.matrix.size)]
    for row in problem.matrix.entries:
        for entry in row:
            lines.append(entry.to_string(rho))
    lines += ["", "[delta]"]
    for p, rel in problem.delta.constraints:
        op = ">=" if rel is Relation.GE else "="
        lines.append(f"{p.to_string(rho)} {op} 0")
    lines += ["", "[region]"]
    preset_names = {p.value for p in RegionPreset}
    if problem.region.name in preset_names:
        lines.append(problem.region.name)
    else:
        names = list(problem.region.variables)
        for p, rel in problem.region.region_set.constraints:
            op = ">=" if rel is Relation.GE else "="
            lines.append(f"{p.to_string(names)} {op} 0")
    if problem.moment_constraints:
        lines += ["", "[moments]"]
        for mc in problem.moment_constraints:
            op = "=" if mc.relation == "=" else mc.relation
            lines.append(f"E[{mc.f.to_string(rho)}] {op} {mc.target!r}")
    opts = dict(options or {})
    if problem.eigen_space != "auto":
        opts.setdefault("eigen_space", problem.eigen_space)
    if problem.allow_asymmetric_real:
        opts.setdefault("allow_asymmetric_real", "true")
    if problem.lambda_radius is not None:
        opts.setdefault("lambda_radius", repr(problem.lambda_radius))
    if opts:
        lines += ["", "[options]"]
        for key, value in opts.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def save_problem(problem: DStabilityProblem, path, options: dict | None = None) -> None:
    Path(path).write_text(dump_problem(problem, options))


# ----------------------------------------------------------------------
# Commands.

def _settings_from(options: dict, args) -> SolverSettings:
    return SolverSettings(
        max_iterations=int(str(options.get("max_iterations", 200))),
        feasibility_tol=float(str(options.get("feasibility_tol", 1e-8))),
        gap_tol=float(str(options.get("gap_tol", 1e-8))),
        log_stream=sys.stderr if getattr(args, "log_iterations", False) else None,
    )


def _tau_from(options: dict, args) -> int | None:
    if getattr(args, "tau", None) is not None:
        return args.tau
    if "tau" in options:
        return int(str(options["tau"]))
    return None


def _margin_from(options: dict, args) -> float:
    margin = getattr(args, "margin", None)
    if margin is None:
        margin = float(str(options.get("margin", analysis.DEFAULT_CERTIFICATION_MARGIN)))
    return analysis.check_margin(margin)


def _bindings(args) -> dict[str, float]:
    out = {}
    for item in getattr(args, "bind", None) or []:
        if "=" not in item:
            raise ProblemFileError(f"--bind expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = float(value)
    return out


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
    print(f"verdict:    {report.verdict.value}", file=out)
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
    problem, options = load_problem(args.problem, _bindings(args))
    report = analysis.upper_probability(
        problem, tau=_tau_from(options, args),
        settings=_settings_from(options, args), margin=_margin_from(options, args),
    )
    _print_report(report, out)
    if args.export_sdp:
        export_sdp(report.sdp, args.export_sdp)
        print(f"sdp written to {args.export_sdp}", file=out)
    if args.csv:
        analysis.write_sweep_csv(_report_csv_rows([report]), args.csv)
    return 2 if report.verdict is analysis.Verdict.INCONCLUSIVE else 0


def _cmd_certify(args, out) -> int:
    problem, options = load_problem(args.problem, _bindings(args))
    result = analysis.certify_robust(
        problem, tau=_tau_from(options, args),
        margin=_margin_from(options, args), settings=_settings_from(options, args),
    )
    _print_report(result.report, out)
    print(f"certificate: {result.label} (bound {fmt(result.upper_bound)}, "
          f"margin {fmt(result.margin)})", file=out)
    return 0 if result.certified else 2


def _cmd_hierarchy(args, out) -> int:
    problem, options = load_problem(args.problem, _bindings(args))
    report = analysis.hierarchy(
        problem, _tau_from(options, args), args.tau_max,
        settings=_settings_from(options, args), margin=_margin_from(options, args),
    )
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


def _cmd_sweep(args, out) -> int:
    binds = _bindings(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ProblemFileError("--values must list at least one number")
    _problem, options = load_problem(args.problem, {**binds, args.param: values[0]})

    def family(theta: float) -> DStabilityProblem:
        return load_problem(args.problem, {**binds, args.param: theta})[0]

    points = analysis.sweep(
        family, values, tau=_tau_from(options, args),
        settings=_settings_from(options, args), margin=_margin_from(options, args),
    )
    print(",".join(analysis.SWEEP_CSV_HEADER), file=out)
    for p in points:
        print(f"{fmt(p.theta)},{fmt(p.p_upper)},{fmt(p.p_lower)},{p.status},"
              f"{p.tau},{fmt(p.seconds)}", file=out)
    if args.csv:
        analysis.write_sweep_csv(points, args.csv)
    return 0


def _cmd_bisect(args, out) -> int:
    binds = _bindings(args)
    _problem, options = load_problem(args.problem, {**binds, args.param: args.lo})

    def family(k: float) -> DStabilityProblem:
        return load_problem(args.problem, {**binds, args.param: k})[0]

    result = analysis.bisect_margin(
        family, args.lo, args.hi, tau=_tau_from(options, args), tol=args.tol,
        margin=_margin_from(options, args), settings=_settings_from(options, args),
    )
    for k, certified, bound in result.evaluations:
        print(f"k={fmt(k)}: {'certified' if certified else 'not certified'} "
              f"(bound {fmt(bound)})", file=out)
    print(f"k_star: {fmt(result.k_star)}", file=out)
    return 0


def _cmd_oracle(args, out) -> int:
    problem, options = load_problem(args.problem, _bindings(args))
    witness = oracle.grid_violation_search(
        problem, args.grid, seed=args.seed,
    )
    if witness is None:
        print(f"grid search ({args.grid} points/axis): no violation found", file=out)
    else:
        rho = ", ".join(fmt(v) for v in witness.rho)
        print(
            f"grid search ({args.grid} points/axis): witness rho = ({rho}), "
            f"lambda = {fmt(witness.lam.real)}{'+' if witness.lam.imag >= 0 else '-'}"
            f"{fmt(abs(witness.lam.imag))}j, region depth {fmt(witness.min_region_residual)}, "
            f"eigenpair residual {fmt(witness.eig_residual)}", file=out,
        )
    try:
        atoms = oracle.grid_points(problem, args.grid, max_points=10_000, seed=args.seed)
        result = oracle.atomic_lp_bound(problem, atoms)
        print(
            f"atomic LP over {len(result.atoms)} atoms: lower bound "
            f"{fmt(result.lower_bound)} on the violation probability", file=out,
        )
    except oracle.AtomicLPInfeasible as err:
        print(f"atomic LP: infeasible on this grid ({err}); refine the grid", file=out)
    return 0


def _cmd_export(args, out) -> int:
    problem, options = load_problem(args.problem, _bindings(args))
    sdp = assemble_relaxation(build_lifted(problem), _tau_from(options, args))
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
        p.add_argument("problem", help="problem file")
        if tau:
            p.add_argument("--tau", type=int, default=None, help="relaxation order")
        p.add_argument("--bind", action="append", default=[], metavar="NAME=VALUE",
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
    p.add_argument("--values", required=True, help="comma-separated values")
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
                   help="seed for rejection sampling on non-box supports")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export-sdp", help="write the assembled SDP as sparse text")
    common(p, solver=False)
    p.add_argument("output", help="output path")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        return args.func(args, out)
    except (ProblemFileError, PolynomialError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except oracle.OracleError as err:
        print(f"oracle error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
