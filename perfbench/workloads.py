"""The benchmark's workloads: seeded CLI inputs and the checks on their output.

Each workload turns a seed into an endless sequence of operations. An
operation is one or more `dstab` command lines (argv lists for
`dstab.cli.main`) and, for each, a checker that reads the printed output
and the exit code and returns one record per check. Every reference a
checker compares against is independent of the moment machinery: a closed
form, a known structural count, or a property of the oracle's answer.

See README.md for why each workload exists and which layer it loads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

VALUE_TOL = 1e-6   # absolute tolerance of a value against its reference
CERTIFY_RAW_MAX = 1e-3
HURWITZ_TAU = 3
SWEEP_TAU = 2
SWEEP_POINTS = 6
SIGMA2_MAX = 0.25
# 1296 lti spectra and 5000 atoms keep an oracle operation near 4 s, so a
# run holds three and reports their median. With one 15 s operation per run
# (grid 8 and 10000 atoms) op_s spread by 0.21 across seeds on 2 vCPUs.
LTI_GRID = 6
VARIANCE_GRID = 5000

# Full (unreduced) relaxation sizes of the exported problems:
# C(n_z + 2 tau, 2 tau) moments with n_z = 11 (bifurcation, tau 3) and
# n_z = 22 (lti_hinf, tau 2); the moment block is C(n_z + tau, tau).
KNOWN_EXPORTS = {
    "bifurcation": (12376, (364,) + (78,) * 16 + (1, 1, 12, 12, 1, 1, 12, 12, 78, 78)),
    "lti_hinf": (14950, (276,) + (23,) * 16 + (1, 1, 1, 1, 23, 23, 23, 23, 1, 1)
                 + (23,) * 6 + (1, 1, 1, 1, 23, 23, 23, 23, 1, 1, 23, 23)),
}


@dataclass
class Check:
    """One checked answer. `ok` is False on an exception, a wrong exit
    code or a value outside tolerance; `status` other than Optimal fails
    the check too, but is not a wrong answer."""

    what: str
    ok: bool
    status: str | None = None
    value: float | None = None
    reference: float | None = None
    iterations: int | None = None
    below_exact: bool = False
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.ok and self.status in (None, "Optimal")


Checker = Callable[[str, int], list[Check]]


@dataclass
class Call:
    argv: list[str]
    check: Checker
    output: Path | None = None  # file the call writes, removed after checking


@dataclass
class Operation:
    calls: list[Call]
    # The first problem file the operation loads, with its bindings as text;
    # the set-up probe loads it.
    load: tuple[str, dict[str, str]]
    inputs: dict = field(default_factory=dict)


def decimal(x: float) -> str:
    """Seeded values reach the program as decimal text."""
    return f"{x:.6f}"


def printed(x: float) -> float:
    """The CLI prints 9 significant digits; compare at that precision."""
    return float(f"{x:.9g}")


def _field(pattern: str, text: str) -> re.Match:
    match = re.search(pattern, text, re.MULTILINE)
    if match is None:
        raise ValueError(f"output lacks {pattern!r}")
    return match


def _guarded(what: str, parse: Callable[[str], list[Check]]) -> Checker:
    """A checker whose parse error or wrong exit code is a failed check."""
    def check(text: str, code: int) -> list[Check]:
        if code != 0:
            return [Check(what, ok=False, detail=f"exit code {code}")]
        try:
            return parse(text)
        except (ValueError, IndexError, OSError) as err:
            return [Check(what, ok=False, detail=str(err))]
    return check


# ----------------------------------------------------------------------
# certify_hurwitz

def _hurwitz_ops(root: Path, work: Path, seed: int) -> Iterator[Operation]:
    problem = str(root / "problems" / "hurwitz.prob")

    def parse(text: str) -> list[Check]:
        status, iterations = _field(r"^solver:\s+(\w+), (\d+) iterations", text).groups()
        raw = float(_field(r"^raw value:\s+(\S+)", text).group(1))
        label = _field(r"^certificate: (\w+)", text).group(1)
        ok = label == "CertifiedRobustlyDStable" and raw < CERTIFY_RAW_MAX
        return [Check("hurwitz certificate", ok=ok, status=status, value=raw,
                      reference=0.0, iterations=int(iterations),
                      below_exact=raw < 0.0, detail=label)]

    while True:
        yield Operation([Call(["certify", problem, "--tau", str(HURWITZ_TAU)],
                              _guarded("hurwitz certificate", parse))], (problem, {}))


# ----------------------------------------------------------------------
# sweep_variance

def cantelli(sigma2: float) -> float:
    """Worst-case P(rho >= 1) for mean 0.5 and variance <= sigma2 on [0, 1]."""
    return sigma2 / (sigma2 + 0.25)


def stratified_sigma2(rng: np.random.Generator) -> list[str]:
    """One value in each of SWEEP_POINTS equal slices of [0, SIGMA2_MAX], so
    every operation covers the range (the solver's statuses depend on where
    sigma2 falls) and operations cost about the same."""
    u = rng.random(SWEEP_POINTS)
    return [decimal(SIGMA2_MAX * (k + u[k]) / SWEEP_POINTS) for k in range(SWEEP_POINTS)]


def _sweep_ops(root: Path, work: Path, seed: int) -> Iterator[Operation]:
    problem = str(root / "problems" / "running_example_variance.prob")
    rng = np.random.default_rng(seed)
    while True:
        values = stratified_sigma2(rng)

        def parse(text: str, values=values) -> list[Check]:
            rows = text.strip().splitlines()[1:]
            checks = []
            for k, given in enumerate(values):
                what = f"sigma2={given}"
                if k >= len(rows):
                    checks.append(Check(what, ok=False, detail="missing row"))
                    continue
                theta, p_upper, _p_lower, status, _tau, _seconds = rows[k].split(",")
                exact = cantelli(float(given))
                value = float(p_upper)
                ok = (abs(float(theta) - float(given)) <= VALUE_TOL
                      and abs(value - exact) <= VALUE_TOL)
                checks.append(Check(what, ok=ok, status=status, value=value,
                                    reference=exact,
                                    below_exact=value < printed(exact)))
            return checks

        argv = ["sweep", problem, "--param", "sigma2", "--values", ",".join(values),
                "--tau", str(SWEEP_TAU)]
        yield Operation([Call(argv, _guarded("sweep", parse))],
                        (problem, {"sigma2": values[0]}), {"sigma2": values})


# ----------------------------------------------------------------------
# oracle_sandwich

_LP = r"^atomic LP over (\d+) atoms: lower bound (\S+)"


def _oracle_ops(root: Path, work: Path, seed: int) -> Iterator[Operation]:
    lti = str(root / "problems" / "lti_stability.prob")
    variance = str(root / "problems" / "running_example_variance.prob")
    rng = np.random.default_rng(seed)

    def parse_lti(text: str) -> list[Check]:
        no_witness = "no violation found" in _field(r"^grid search.*$", text).group(0)
        atoms, bound = _field(_LP, text).groups()
        return [Check("lti_stability oracle", ok=no_witness and abs(float(bound)) <= VALUE_TOL,
                      value=float(bound), reference=0.0,
                      detail=f"{atoms} atoms, witness {'none' if no_witness else 'found'}")]

    while True:
        # The simplex takes longer as sigma2 grows (with 10000 atoms, 7 s at
        # 0.02 and 12 s at 0.24); a narrow range keeps seeds' operations alike.
        sigma2 = decimal(rng.uniform(0.05, 0.15))
        oracle_seed = str(int(rng.integers(0, 2**31)))

        def parse_variance(text: str, sigma2=sigma2) -> list[Check]:
            atoms, bound = _field(_LP, text).groups()
            value, exact = float(bound), cantelli(float(sigma2))
            return [Check(f"variance oracle sigma2={sigma2}",
                          ok=-VALUE_TOL <= value <= exact + VALUE_TOL,
                          value=value, reference=exact, detail=f"{atoms} atoms")]

        yield Operation(
            [Call(["oracle", lti, "--grid", str(LTI_GRID)],
                  _guarded("lti_stability oracle", parse_lti)),
             Call(["oracle", variance, "--grid", str(VARIANCE_GRID),
                   "--bind", f"sigma2={sigma2}", "--seed", oracle_seed],
                  _guarded("variance oracle", parse_variance))],
            (lti, {}), {"sigma2": sigma2, "seed": oracle_seed})


# ----------------------------------------------------------------------
# export_large

def _export_checker(name: str, path: Path) -> Checker:
    moments_known, dims_known = KNOWN_EXPORTS[name]

    def parse(text: str) -> list[Check]:
        moments, dims = _field(r"(\d+) moment variables, blocks \[([\d, ]*)\]", text).groups()
        moments = int(moments)
        dims = tuple(int(d) for d in dims.split(","))
        header_moments = None
        file_dims = []
        with open(path) as handle:
            for line in handle:
                if line.startswith("nz "):
                    header_moments = int(line.split()[-1])
                elif line.startswith("block "):
                    file_dims.append(int(line.split()[2]))
        ok = (moments == moments_known and dims == dims_known
              and header_moments == moments and tuple(file_dims) == dims)
        return [Check(f"{name} export", ok=ok, value=float(moments),
                      reference=float(moments_known),
                      detail=f"{len(file_dims)} block lines, largest {max(dims)}")]

    return _guarded(f"{name} export", parse)


def _export_ops(root: Path, work: Path, seed: int) -> Iterator[Operation]:
    bifurcation = str(root / "problems" / "bifurcation.prob")
    hinf = str(root / "problems" / "lti_hinf.prob")
    rng = np.random.default_rng(seed)
    out_b, out_h = work / "bifurcation.sdp", work / "lti_hinf.sdp"
    while True:
        k = decimal(rng.uniform(0.3, 0.6))
        yield Operation(
            [Call(["export-sdp", bifurcation, "--bind", f"k={k}", "--tau", "3", str(out_b)],
                  _export_checker("bifurcation", out_b), out_b),
             Call(["export-sdp", hinf, "--tau", "2", str(out_h)],
                  _export_checker("lti_hinf", out_h), out_h)],
            (bifurcation, {"k": k}), {"k": k})


# Workload name -> (repository root, scratch directory, seed) -> operations.
# README.md says why each workload is here and which layer it loads.
WORKLOADS: dict[str, Callable[[Path, Path, int], Iterator[Operation]]] = {
    "certify_hurwitz": _hurwitz_ops,
    "sweep_variance": _sweep_ops,
    "oracle_sandwich": _oracle_ops,
    "export_large": _export_ops,
}
