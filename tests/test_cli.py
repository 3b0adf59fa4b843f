import csv
import dataclasses
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import running_problem

import dstab
import dstab.analysis
import dstab.cli
import dstab.oracle
from dstab.cli import ProblemFileError, load_problem, main
from dstab.poly import parse_polynomial
from dstab.sets import Relation


RUNNING = "running_example.prob"
SUPPORT = "running_example_support.prob"
VARIANCE = "running_example_variance.prob"


def _running_file(path, *, upper="1", region="left_half_plane_closure", moments="",
                  options="tau = 2\n"):
    """Write the running example's matrix over rho in [0, upper] as problem
    text with the given region, [moments] lines and [options] lines."""
    path.write_text("[variables]\nrho\n[matrix]\n2\nrho - 1\n0\n0\n-1\n"
                    f"[delta]\nrho in [0, {upper}]\n[region]\n{region}\n"
                    f"[moments]\n{moments}[options]\n{options}")
    return path


class TestLoadProblem:
    def test_running_example_matches_api(self, problems_dir, mean_problem):
        problem, options = load_problem(problems_dir / RUNNING)
        assert problem.matrix == mean_problem.matrix
        assert problem.delta == mean_problem.delta
        assert problem.region.name == "left_half_plane_closure"
        assert problem.moment_constraints == mean_problem.moment_constraints
        assert options["tau"] == 2

    def test_support_variant(self, problems_dir, support_problem):
        problem, _ = load_problem(problems_dir / SUPPORT)
        assert problem.is_support_only()
        assert problem.matrix == support_problem.matrix

    def test_variance_binding(self, problems_dir):
        problem, _ = load_problem(problems_dir / VARIANCE, {"sigma2": 0.01})
        mc = problem.moment_constraints[-1]
        assert mc.relation == "<=" and mc.target == 0.01
        assert mc.f == parse_polynomial("(rho - 0.5)^2", ["rho"])

    def test_unbound_placeholder(self, problems_dir):
        with pytest.raises(ProblemFileError, match="sigma2"):
            load_problem(problems_dir / VARIANCE)

    def test_bound_arithmetic(self, tmp_path):
        path = tmp_path / "p.prob"
        path.write_text(
            "[variables]\nrho\n[matrix]\n1\nrho\n"
            "[delta]\nrho in [9 - $k, 9 + $k]\n[region]\nimaginary_axis\n"
        )
        problem, _ = load_problem(path, {"k": 0.5})
        from dstab.problem import delta_box_bounds
        lower, upper = delta_box_bounds(problem.delta)
        assert lower[0] == 8.5 and upper[0] == 9.5

    def test_numpy_float_binding(self, problems_dir):
        import numpy as np
        plain, _ = load_problem(problems_dir / "bifurcation.prob", {"k": 0.45})
        numpy_float, _ = load_problem(problems_dir / "bifurcation.prob",
                                      {"k": np.float64(0.45)})
        assert numpy_float == plain

    def test_all_problem_files_load(self, problems_dir):
        # each file gets exactly the placeholders it holds: an unused
        # binding is an error
        bindings = {
            "bifurcation.prob": {"k": 0.4},
            "bifurcation_probabilistic.prob": {"sigma2": 0.05},
            VARIANCE: {"sigma2": 0.05},
        }
        for path in sorted(problems_dir.glob("*.prob")):
            problem, _options = load_problem(path, bindings.get(path.name, {}))
            assert problem.matrix.size >= 1

    @pytest.mark.parametrize("name", ["\u03c1", "x\u00b2"])
    def test_variable_name_outside_the_identifier_rule(self, tmp_path, name):
        # str.isalpha and str.isalnum take these, the expression parser does not
        path = tmp_path / "bad.prob"
        path.write_text(
            f"[variables]\n{name}\n[matrix]\n1\n{name}\n[delta]\n{name} in [0, 1]\n"
            "[region]\nimaginary_axis\n", encoding="utf-8",
        )
        with pytest.raises(ProblemFileError, match=r"bad variable name .*section \[variables\]"):
            load_problem(path)

    def test_unknown_region(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text(
            "[variables]\nx\n[matrix]\n1\nx\n[delta]\nx in [0, 1]\n"
            "[region]\nnowhere_preset extra\n"
        )
        with pytest.raises(ProblemFileError, match=r"section \[region\]"):
            load_problem(path)

    def test_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text(
            "[variables]\nx\n[matrix]\n1\nx + * 1\n[delta]\nx in [0, 1]\n"
            "[region]\norigin\n"
        )
        with pytest.raises(ProblemFileError, match="line 5"):
            load_problem(path)

    def test_moment_over_region_variable_rejected(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text(
            "[variables]\nx\n[matrix]\n1\nx\n[delta]\nx in [0, 1]\n"
            "[region]\norigin\n[moments]\nE[lre] = 0\n"
        )
        with pytest.raises(ProblemFileError, match="unknown identifier"):
            load_problem(path)

    def test_matrix_entry_count_checked(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text(
            "[variables]\nx\n[matrix]\n2\nx\nx\nx\n[delta]\nx in [0, 1]\n"
            "[region]\norigin\n"
        )
        with pytest.raises(ProblemFileError, match="4 entries"):
            load_problem(path)

    @pytest.mark.parametrize("size, entries", [("-1", "x - 1\n"), ("0", "")])
    def test_matrix_size_below_one_rejected(self, tmp_path, size, entries):
        # size -1 with one entry passed the size * size count and became an
        # empty matrix, which was then certified
        path = tmp_path / "bad.prob"
        path.write_text(
            f"[variables]\nx\n[matrix]\n{size}\n{entries}[delta]\nx in [0, 1]\n"
            "[region]\nleft_half_plane_closure\n"
        )
        with pytest.raises(ProblemFileError, match=r"at least 1.*line 4"):
            load_problem(path)

    def test_placeholders_that_prefix_each_other(self, tmp_path):
        path = tmp_path / "two.prob"
        path.write_text(
            "[variables]\nx\n[matrix]\n1\nx - $m\n[delta]\nx in [0, $m2]\n"
            "[region]\nleft_half_plane_closure\n"
        )
        forward, _ = load_problem(path, {"m": 0.5, "m2": 0.1})
        backward, _ = load_problem(path, {"m2": 0.1, "m": 0.5})
        assert forward == backward
        assert forward.matrix.entries[0][0] == parse_polynomial("x - 0.5", ["x"])
        assert forward.delta.contains([0.1]) and not forward.delta.contains([0.2])

    def test_unused_binding_rejected(self, problems_dir):
        with pytest.raises(ProblemFileError, match="no placeholder.*foo"):
            load_problem(problems_dir / VARIANCE, {"sigma2": 0.1, "foo": 1.0})

    def test_placeholder_in_a_comment_needs_no_binding(self, tmp_path):
        # comments are stripped before substitution, line by line, so the
        # line numbers of later errors still count the comment lines
        path = tmp_path / "commented.prob"
        path.write_text(
            "# half-width $k, see $notes\n[variables]\nrho\n[matrix]\n1\nrho\n"
            "[delta]\nrho in [0, $k]  # not $w\n[region]\nimaginary_axis\n"
            "[options]\ntau = three\n"
        )
        with pytest.raises(ProblemFileError, match=r"'tau'.*line 12\)"):
            load_problem(path, {"k": 0.5})
        path.write_text(path.read_text().replace("three", "2"))
        problem, options = load_problem(path, {"k": 0.5})
        assert options == {"tau": 2}
        with pytest.raises(ProblemFileError, match="no placeholder.*notes"):
            load_problem(path, {"k": 0.5, "notes": 1.0})

    _BASE = ("[variables]\nrho\n[matrix]\n1\nrho - 1\n[delta]\nrho in [0, 1]\n"
             "[region]\nleft_half_plane_closure\n")

    @pytest.mark.parametrize("text, message, line, section", [
        (_BASE.replace("[matrix]", "[bogus]"), "unknown section [bogus] in ", 3, None),
        (_BASE + "[delta]\n", "duplicate section [delta]", 10, None),
        ("rho\n" + _BASE, "content before any section in ", 1, None),
        (_BASE.replace("rho\n[matrix]", "rho, rho\n[matrix]"), "duplicate variable 'rho'", 2,
         "variables"),
        (_BASE.replace("[variables]\nrho\n", "[variables]\n"), "no uncertainty variables declared",
         None, "variables"),
        (_BASE.replace("1\nrho - 1\n", ""), "empty matrix section", None, "matrix"),
        (_BASE.replace("1\nrho - 1\n", "rho - 1\n"),
         "matrix section must start with the size, got 'rho - 1'", 4, "matrix"),
        (_BASE.replace("rho in [0, 1]\n", ""), "delta section may not be empty", None, "delta"),
        (_BASE.replace("left_half_plane_closure\n", ""), "region section may not be empty", None,
         "region"),
        (_BASE.replace("rho in", "sigma in"), "unknown variable 'sigma'", 7, "delta"),
        (_BASE.replace("[0, 1]", "(0, 1)"), "bounds must look like [lo, hi], got '(0, 1)'", 7,
         "delta"),
        (_BASE.replace("[0, 1]", "[0, 1, 2]"), "bounds need exactly two values", 7, "delta"),
        (_BASE.replace("[0, 1]", "[0, one]"), "bad numeric expression ' one': ", 7, "delta"),
        (_BASE.replace("left_half_plane_closure\n", "lre >= 0\nleft_half_plane_closure\n"),
         "preset regions cannot be mixed with inline constraints", 10, "region"),
        (_BASE + "[moments]\nrho = 0.5\n",
         "moment lines look like 'E[expr] = value', got 'rho = 0.5'", 11, "moments"),
        (_BASE + "[moments]\nE[rho = 0.5\n",
         "moment lines look like 'E[expr] = value', got 'E[rho = 0.5'", 11, "moments"),
        (_BASE + "[moments]\nE[rho] 0.5\n", "missing relation in 'E[rho] 0.5'", 11, "moments"),
        (_BASE + "[options]\ntau 2\n", "options are 'key = value', got 'tau 2'", 11, "options"),
        (_BASE.replace("rho in [0, 1]", "rho >= sigma"), "unknown identifier 'sigma'", 7,
         "delta"),
        (_BASE.replace("left_half_plane_closure", "lre >= lre^"), "exponent must be", 9,
         "region"),
    ], ids=["unknown-section", "duplicate-section", "content-before-sections",
            "duplicate-variable", "no-variables", "empty-matrix", "matrix-without-size",
            "empty-delta", "empty-region", "unknown-delta-variable", "bounds-without-brackets",
            "three-bounds", "bad-bound-number", "preset-and-inline-region",
            "moment-without-expectation", "moment-without-bracket", "moment-without-relation",
            "option-without-equals", "unparsable-delta-row", "unparsable-region-row"])
    def test_malformed_file_names_its_line_and_section(self, tmp_path, text, message, line,
                                                       section):
        path = tmp_path / "bad.prob"
        path.write_text(text)
        with pytest.raises(ProblemFileError) as caught:
            load_problem(path)
        assert str(caught.value).startswith(message)
        assert (caught.value.line, caught.value.section) == (line, section)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text("[variables]\nx\n[matrix]\n1\nx\n[region]\norigin\n")
        with pytest.raises(ProblemFileError, match=r"\[delta\]"):
            load_problem(path)

    def test_unknown_option_rejected(self, problems_dir, tmp_path, capsys):
        # a misspelt key must not fall back silently to the minimal order
        text = (problems_dir / RUNNING).read_text()
        assert "\ntau = 2\n" in text
        path = tmp_path / "typo.prob"
        path.write_text(text.replace("\ntau = 2\n", "\ntua = 3\n"))
        lineno = text.splitlines().index("tau = 2") + 1
        with pytest.raises(ProblemFileError, match=rf"'tua'.*line {lineno}\)"):
            load_problem(path)
        assert main(["analyze", str(path)]) == 1
        assert "unknown option 'tua'" in capsys.readouterr().err

    def test_inline_region_and_delta_constraints(self, tmp_path):
        path = tmp_path / "inline.prob"
        path.write_text(
            "[variables]\na b\n[matrix]\n1\na*b\n"
            "[delta]\na in [0, 1]\nb in [0, 1]\na + b <= 1.5\n"
            "[region]\nlre - 1 >= 0\nlim = 0\n"
        )
        problem, _ = load_problem(path)
        assert len(problem.delta.constraints) == 5
        kinds = [rel for _p, rel in problem.region.region_set.constraints]
        assert kinds == [Relation.GE, Relation.EQ]

    def test_second_interval_for_a_variable_rejected(self, tmp_path, capsys):
        # the second interval used to replace the first without a word
        path = tmp_path / "twice.prob"
        path.write_text(
            "[variables]\nrho\n[matrix]\n1\nrho - 1\n"
            "[delta]\nrho in [0, 1]\nrho in [2, 3]\n[region]\nleft_half_plane_closure\n"
        )
        with pytest.raises(ProblemFileError, match=r"'rho'.*section \[delta\], line 8\)"):
            load_problem(path)
        assert main(["analyze", str(path)]) == 1
        assert "second interval for variable 'rho'" in capsys.readouterr().err

    def test_interval_rows_follow_variable_order(self, tmp_path):
        path = tmp_path / "box.prob"
        path.write_text(
            "[variables]\na b c\n[matrix]\n1\na*b*c\n"
            "[delta]\nc in [0, 3]\na + c <= 4\na in [-1, 1]\n[region]\norigin\n"
        )
        problem, _ = load_problem(path)
        expected = ["a + 1", "1 - a", "c", "3 - c", "4 - a - c"]
        assert problem.delta.constraints == tuple(
            (parse_polynomial(text, ["a", "b", "c"]), Relation.GE) for text in expected)


class TestRoundTrip:
    def test_structural_equality(self, tmp_path):
        problem = running_problem(mean=0.5, variance=0.1)
        path = _running_file(tmp_path / "saved.prob",
                             moments="E[rho] = 0.5\nE[(rho - 0.5)^2] <= 0.1\n")
        again, options = load_problem(path)
        assert again.matrix == problem.matrix
        assert again.delta == problem.delta
        assert again.region.region_set == problem.region.region_set
        assert again.moment_constraints == problem.moment_constraints
        assert options["tau"] == 2

    def test_custom_region_round_trip(self, tmp_path):
        from dstab.sets import custom_region
        p = parse_polynomial("lre^2 - lim", ["lre", "lim"])
        problem = running_problem(mean=None)
        problem = dataclasses.replace(
            problem, region=custom_region([(p, Relation.GE)]), lambda_radius=2.5
        )
        path = _running_file(tmp_path / "saved.prob", region="lre^2 - lim >= 0",
                             options="lambda_radius = 2.5\n")
        again, _ = load_problem(path)
        assert again.region.region_set == problem.region.region_set
        assert again.lambda_radius == 2.5


class TestOptions:
    def test_every_option_round_trips_with_its_type(self, tmp_path):
        given = {"tau": 3, "margin": 0.01, "max_iterations": 50, "feasibility_tol": 1e-7,
                 "gap_tol": 1e-9, "eigen_space": "real", "allow_asymmetric_real": True,
                 "lambda_radius": 2.5}
        path = _running_file(tmp_path / "saved.prob", moments="E[rho] = 0.5\n", options=(
            "tau = 3\nmargin = 0.01\nmax_iterations = 50\nfeasibility_tol = 1e-07\n"
            "gap_tol = 1e-09\neigen_space = real\nallow_asymmetric_real = True\n"
            "lambda_radius = 2.5\n"))
        again, options = load_problem(path)
        problem_owned = {key: getattr(again, key)
                         for key in ("eigen_space", "allow_asymmetric_real", "lambda_radius")}
        loaded = {**options, **problem_owned}
        assert loaded == given
        assert {key: type(value) for key, value in loaded.items()} == {
            key: type(value) for key, value in given.items()}

    @pytest.mark.parametrize("key, value", [
        ("tau", "three"), ("tau", "2.0"), ("margin", "small"), ("max_iterations", "1e3"),
        ("feasibility_tol", "1e-8x"), ("gap_tol", ""), ("lambda_radius", "big"),
        ("allow_asymmetric_real", "yes"), ("eigen_space", "sideways"),
    ])
    def test_malformed_value_names_its_option_and_line(self, problems_dir, tmp_path,
                                                       capsys, key, value):
        text = (problems_dir / SUPPORT).read_text()
        assert text.endswith("[options]\ntau = 2\n")
        path = tmp_path / "bad.prob"
        path.write_text(text.replace("tau = 2\n", f"{key} = {value}\n"))
        lineno = len(text.splitlines())
        message = rf"bad value '{value}' for option '{key}': .*\(section \[options\], line {lineno}\)"
        with pytest.raises(ProblemFileError, match=message):
            load_problem(path)
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert re.search(message, captured.err) and captured.out == ""

    @pytest.mark.parametrize("key, value", [
        ("feasibility_tol", "inf"), ("gap_tol", "inf"), ("feasibility_tol", "nan"),
        ("gap_tol", "nan"), ("lambda_radius", "inf"), ("lambda_radius", "nan"),
        ("margin", "nan"),
    ])
    def test_non_finite_value_names_its_option(self, problems_dir, tmp_path, capsys,
                                               key, value):
        # if accepted, an infinite tolerance would stop the solve Optimal after
        # one iteration, and a NaN one or a non-finite radius would stall it
        text = (problems_dir / RUNNING).read_text()
        assert text.endswith("[options]\ntau = 2\n")
        path = tmp_path / "non_finite.prob"
        path.write_text(text + f"{key} = {value}\n")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and key in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_oracle_rejects_invalid_lambda_radius(self, problems_dir, tmp_path, capsys, value):
        # the oracle never lifts the problem, so the radius is checked where
        # the problem is built, and the oracle prints no witness
        text = (problems_dir / RUNNING).read_text()
        path = tmp_path / "radius.prob"
        path.write_text(text + f"lambda_radius = {value}\n")
        assert main(["oracle", str(path), "--grid", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "lambda_radius" in captured.err
        assert captured.out == ""

    def test_option_given_twice_rejected(self, problems_dir, tmp_path, capsys):
        # the second value used to replace the first without a word
        text = (problems_dir / SUPPORT).read_text()
        path = tmp_path / "twice.prob"
        path.write_text(text + "tau = 3\n")
        lineno = len(text.splitlines()) + 1
        with pytest.raises(ProblemFileError,
                           match=rf"'tau' given twice \(section \[options\], line {lineno}\)"):
            load_problem(path)
        assert main(["analyze", str(path)]) == 1
        assert "option 'tau' given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("value, expected", [("True", True), ("false", False),
                                                 ("TRUE", True), ("False", False)])
    def test_allow_asymmetric_real_takes_true_or_false_in_any_case(self, problems_dir,
                                                                  tmp_path, value, expected):
        path = tmp_path / "flag.prob"
        path.write_text((problems_dir / SUPPORT).read_text()
                        + f"allow_asymmetric_real = {value}\n")
        problem, _ = load_problem(path)
        assert problem.allow_asymmetric_real is expected

    def test_shipped_files_give_tau_as_an_int(self, problems_dir):
        for path in sorted(problems_dir.glob("*.prob")):
            names = set(re.findall(r"\$([A-Za-z]\w*)", path.read_text()))
            _problem, options = load_problem(path, {name: 0.1 for name in names})
            assert type(options["tau"]) is int, path.name

    def test_solver_options_reach_the_solver(self, problems_dir, tmp_path, capsys):
        path = tmp_path / "short.prob"
        path.write_text((problems_dir / RUNNING).read_text() + "max_iterations = 1\n")
        assert main(["analyze", str(path)]) == 2
        assert "IterLimit, 1 iterations" in capsys.readouterr().out

    def test_flag_wins_over_the_file(self, problems_dir, tmp_path, capsys):
        path = tmp_path / "margin.prob"
        path.write_text((problems_dir / SUPPORT).read_text() + "margin = 1.5\n")
        assert main(["certify", str(path), "--margin", "0.1"]) == 2
        assert "margin 0.1)" in capsys.readouterr().out


class TestCommands:
    def test_analyze_exit_zero(self, problems_dir, capsys):
        code = main(["analyze", str(problems_dir / RUNNING)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p_upper:    0.5" in out
        assert "ViolationProbabilityBound" in out
        # the sign reduction and the x-degree truncation: of 70 moments, 27
        # are even and of eigenvector degree <= 2
        assert "(moment variables: 70; solved 27, largest block 6)" in out

    def test_certify_not_certified_exit_two(self, problems_dir, capsys):
        code = main(["certify", str(problems_dir / SUPPORT)])
        out = capsys.readouterr().out
        assert code == 2
        assert "NotCertified" in out

    def test_analyze_support_inconclusive_exit_two(self, problems_dir, capsys):
        code = main(["analyze", str(problems_dir / SUPPORT)])
        assert code == 2
        assert "Inconclusive" in capsys.readouterr().out

    def test_certify_shrunk_exit_zero(self, tmp_path, capsys):
        path = _running_file(tmp_path / "shrunk.prob", upper="0.9")
        code = main(["certify", str(path)])
        assert code == 0
        assert "CertifiedRobustlyDStable" in capsys.readouterr().out

    def test_error_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.prob"
        assert main(["analyze", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_csv(self, problems_dir, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main([
            "sweep", str(problems_dir / VARIANCE),
            "--param", "sigma2", "--values", "0.05,0.25",
            "--csv", str(csv_path),
        ])
        assert code == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["theta", "p_upper", "p_lower", "status", "tau", "seconds"]
        assert len(rows) == 3
        assert float(rows[1][1]) == pytest.approx(1 / 6, abs=1e-3)
        assert float(rows[2][1]) == pytest.approx(0.5, abs=1e-3)
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0] == "theta,p_upper,p_lower,status,tau,seconds"

    @staticmethod
    def _width_family(tmp_path):
        # a negative width $w inverts the bounds, so that value fails to load
        path = tmp_path / "width.prob"
        path.write_text("[variables]\nrho\n[matrix]\n1\nrho\n"
                        "[delta]\nrho in [0, $w]\n[region]\nimaginary_axis\n")
        return str(path)

    def test_sweep_stdout_is_the_csv_table(self, tmp_path, capsys):
        # the error message holds commas: one quoted field on stdout as in the file
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", self._width_family(tmp_path), "--param", "w",
                     "--values", "1,-1", "--csv", str(csv_path)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert rows[2][3].startswith("error: inverted bounds")
        with open(csv_path, newline="") as handle:
            assert rows == list(csv.reader(handle))

    def test_sweep_reads_options_at_the_first_value_that_loads(self, tmp_path, capsys):
        code = main(["sweep", self._width_family(tmp_path), "--param", "w", "--values=-1,1"])
        captured = capsys.readouterr()
        assert code == 0
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert [row[3].split(":")[0] for row in rows[1:]] == ["error", "Optimal"]
        assert captured.err == ""
        # with no value that loads, the first value's error ends the sweep
        code = main(["sweep", self._width_family(tmp_path), "--param", "w", "--values=-1,-2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: inverted bounds [0.0, -1.0]")
        assert captured.out == ""

    def test_sweep_and_bisect_parse_the_file_once_per_value(self, problems_dir, tmp_path,
                                                            monkeypatch, capsys):
        # the first value's load, which also gives the [options], is reused
        loads = []
        load = dstab.cli.load_problem

        def counting_load(path, bindings=None):
            loads.append(dict(bindings))
            return load(path, bindings)

        monkeypatch.setattr(dstab.cli, "load_problem", counting_load)
        assert main(["sweep", str(problems_dir / VARIANCE), "--param", "sigma2",
                     "--values", "0.05,0.1,0.25"]) == 0
        assert loads == [{"sigma2": 0.05}, {"sigma2": 0.1}, {"sigma2": 0.25}]
        loads.clear()
        path = tmp_path / "family.prob"
        path.write_text(
            "[variables]\nrho\n[matrix]\n2\nrho - 1\n0\n0\n-1\n"
            "[delta]\nrho in [0, $k]\n[region]\nleft_half_plane_closure\n"
            "[options]\ntau = 2\n"
        )
        assert main(["bisect", str(path), "--param", "k",
                     "--lo", "0.5", "--hi", "1.0", "--tol", "0.1"]) == 0
        evaluated = [float(line.split(":")[0][2:]) for line in
                     capsys.readouterr().out.splitlines() if line.startswith("k=")]
        assert sorted(b["k"] for b in loads) == sorted(evaluated)

    def test_bisect(self, tmp_path, capsys):
        path = tmp_path / "family.prob"
        path.write_text(
            "[variables]\nrho\n[matrix]\n2\nrho - 1\n0\n0\n-1\n"
            "[delta]\nrho in [0, $k]\n[region]\nleft_half_plane_closure\n"
            "[options]\ntau = 2\n"
        )
        code = main(["bisect", str(path), "--param", "k",
                     "--lo", "0.5", "--hi", "1.0", "--tol", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        k_star = float(out.splitlines()[-1].split(":")[1])
        assert 0.96 <= k_star < 1.0
        certified = [line for line in out.splitlines() if ": certified (" in line]
        assert certified
        for line in certified:
            bound = float(line.split("(bound ")[1].rstrip(")"))
            assert bound < 1.0 - 1e-3

    def test_oracle_output(self, problems_dir, capsys):
        code = main(["oracle", str(problems_dir / RUNNING), "--grid", "101"])
        out = capsys.readouterr().out
        assert code == 0
        assert "witness rho = (1)" in out
        assert "lower bound 0.5" in out

    def test_oracle_reports_an_infeasible_atomic_lp(self, tmp_path, capsys):
        # no measure on [0, 1] has E[rho] = 2, so the LP has no solution
        path = _running_file(tmp_path / "mean2.prob", moments="E[rho] = 2\n")
        assert main(["oracle", str(path), "--grid", "11"]) == 0
        out = capsys.readouterr().out
        assert "atomic LP: infeasible on this grid" in out
        assert out.rstrip().endswith("refine the grid")

    def test_oracle_non_finite_matrix_exit_one(self, problems_dir, tmp_path, capsys):
        # 1e400 overflows to inf, and inf * 0 gives NaN entries at rho = 0
        text = (problems_dir / SUPPORT).read_text().replace("\nrho - 1\n", "\n1e400*rho - 1\n")
        path = tmp_path / "overflow.prob"
        path.write_text(text)
        code = main(["oracle", str(path), "--grid", "5"])
        assert code == 1
        assert capsys.readouterr().err.startswith("oracle error: ")

    def test_hierarchy(self, problems_dir, capsys):
        code = main(["hierarchy", str(problems_dir / RUNNING),
                     "--tau", "1", "--tau-max", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau=1" in out and "tau=2" in out

    def test_hierarchy_csv_has_one_row_per_order(self, problems_dir, tmp_path):
        csv_path = tmp_path / "orders.csv"
        assert main(["hierarchy", str(problems_dir / RUNNING), "--tau", "1", "--tau-max", "2",
                     "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["theta", "p_upper", "p_lower", "status", "tau", "seconds"]
        assert [row[4] for row in rows[1:]] == ["1", "2"]

    def test_hierarchy_warns_when_the_raw_value_increases(self, problems_dir, capsys,
                                                          monkeypatch):
        original = dstab.analysis.hierarchy

        def rising(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, monotonicity_violations=((2, 0.25, 0.5),))

        monkeypatch.setattr(dstab.analysis, "hierarchy", rising)
        assert main(["hierarchy", str(problems_dir / RUNNING),
                     "--tau", "1", "--tau-max", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "warning: raw value increased at tau=2: 0.25 -> 0.5"

    def test_hierarchy_default_end_follows_the_effective_start(self, problems_dir, capsys):
        # --tau 1 starts at the minimal order 2, and the default range still
        # holds two orders
        with pytest.warns(UserWarning, match="minimal order 2"):
            code = main(["hierarchy", str(problems_dir / "hurwitz.prob"), "--tau", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["tau=2", "tau=3"]

    def test_hierarchy_below_minimal_order_solves_each_order_once(self, problems_dir, capsys):
        # the Hurwitz problem's minimal order is 2: --tau 1 starts there
        with pytest.warns(UserWarning, match="minimal order 2"):
            main(["hierarchy", str(problems_dir / "hurwitz.prob"), "--tau", "1", "--tau-max", "2"])
        out = capsys.readouterr().out
        assert out.count("tau=2:") == 1
        assert "tau=1" not in out

    @pytest.mark.parametrize("orders, start", [(["--tau", "3", "--tau-max", "2"], 3),
                                               (["--tau-max", "0"], 2)],
                             ids=["below-tau", "below-file-tau"])
    def test_hierarchy_tau_max_below_start_exit_one(self, problems_dir, capsys, monkeypatch,
                                                    orders, start):
        monkeypatch.setattr(dstab.analysis, "solve",
                            lambda *args: pytest.fail("an SDP was solved"))
        assert main(["hierarchy", str(problems_dir / RUNNING), *orders]) == 1
        captured = capsys.readouterr()
        assert f"below the start order {start}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_oracle_empty_grid_exit_one(self, problems_dir, capsys, grid):
        # nothing is searched, so nothing is reported as found or not found
        assert main(["oracle", str(problems_dir / SUPPORT), "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("oracle error: points per axis must be at least 1")
        assert captured.out == ""

    def test_export_sdp(self, problems_dir, tmp_path, capsys):
        target = tmp_path / "out.sdp"
        code = main(["export-sdp", str(problems_dir / RUNNING), str(target)])
        assert code == 0
        assert target.read_text().startswith("DSTAB-SDP 1")

    @pytest.mark.parametrize("option", [["--tau", "0"], ["--tau", "1"], None])
    def test_export_sdp_below_minimal_order(self, problems_dir, tmp_path, capsys, option):
        # a tau of 0, given as a flag or in [options], is an order like any other
        source = problems_dir / "hurwitz.prob"
        if option is None:
            source = tmp_path / "tau0.prob"
            text = (problems_dir / "hurwitz.prob").read_text()
            source.write_text(text.replace("\ntau = 3\n", "\ntau = 0\n"))
        target = tmp_path / "out.sdp"
        assert main(["export-sdp", str(source), *(option or []), str(target)]) == 1
        assert "below the minimal order 2" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", RUNNING, "--export-sdp", "<missing>/x.sdp"],
        ["sweep", VARIANCE, "--param", "sigma2", "--values", "0.1", "--csv", "<missing>/x.csv"],
        ["export-sdp", RUNNING, "<missing>/x.sdp"],
        ["export-sdp", RUNNING, "<dir>"],
    ], ids=["analyze --export-sdp", "sweep --csv", "export-sdp", "export-sdp into a directory"])
    def test_unwritable_output_fails_before_loading(self, problems_dir, tmp_path, capsys,
                                                    monkeypatch, argv):
        # nothing is parsed, lifted or solved, and nothing reaches stdout
        def never(*args):
            raise AssertionError("the problem was loaded")
        monkeypatch.setattr(dstab.cli, "load_problem", never)
        argv = [str(problems_dir / a) if a.endswith(".prob") else
                a.replace("<missing>", str(tmp_path / "missing")).replace("<dir>", str(tmp_path))
                for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {argv[-1]}: ")
        assert not (tmp_path / "missing").exists()

    def test_analyze_exports_the_sdp_it_solved(self, problems_dir, tmp_path, capsys,
                                               monkeypatch):
        # one lift and one assembly, counted in both modules that call them,
        # and the same bytes as export-sdp with the same order and bindings
        calls = []
        for module in (dstab.cli, dstab.analysis):
            for name in ("build_lifted", "assemble_relaxation"):
                def counted(*args, _fn=getattr(module, name), _name=name):
                    calls.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
        analyzed = tmp_path / "analyzed.sdp"
        exported = tmp_path / "exported.sdp"
        assert main(["analyze", str(problems_dir / VARIANCE), "--bind", "sigma2=0.1",
                     "--export-sdp", str(analyzed)]) == 0
        assert sorted(calls) == ["assemble_relaxation", "build_lifted"]
        assert main(["export-sdp", str(problems_dir / VARIANCE), "--bind", "sigma2=0.1",
                     "--tau", "2", str(exported)]) == 0
        assert analyzed.read_bytes() == exported.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["certify", SUPPORT, "--margin", "-0.1"],
        ["analyze", SUPPORT, "--margin", "1"],
        ["sweep", VARIANCE, "--param", "sigma2", "--values", "0.1,0.2", "--margin", "-0.5"],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_margin_outside_unit_interval_exit_one(self, problems_dir, capsys, argv):
        argv = [str(problems_dir / a) if a.endswith(".prob") else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "margin" in captured.err and argv[-1] in captured.err
        assert captured.out == ""

    def test_margin_option_checked_before_any_solve(self, problems_dir, tmp_path, capsys):
        path = tmp_path / "margin.prob"
        path.write_text((problems_dir / VARIANCE).read_text() + "margin = 1.5\n")
        code = main(["sweep", str(path), "--param", "sigma2", "--values", "0.1,0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "margin 1.5" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["sweep", SUPPORT, "--param", "foo", "--values", "1,2"],
        ["analyze", VARIANCE, "--bind", "sigma2=0.1", "--bind", "foo=1"],
    ], ids=["sweep", "analyze"])
    def test_unused_binding_exit_one(self, problems_dir, capsys, argv):
        argv = [str(problems_dir / a) if a.endswith(".prob") else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "foo" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bracket", [["--tol", "0"], ["--lo", "1.0"]],
                             ids=["tol", "bracket"])
    def test_bisect_bad_arguments_exit_one(self, tmp_path, capsys, monkeypatch, bracket):
        monkeypatch.setattr(dstab.analysis, "solve",
                            lambda *args: pytest.fail("an SDP was solved"))
        path = tmp_path / "family.prob"
        path.write_text(
            "[variables]\nrho\n[matrix]\n2\nrho - 1\n0\n0\n-1\n"
            "[delta]\nrho in [0, $k]\n[region]\nleft_half_plane_closure\n"
        )
        argv = ["bisect", str(path), "--param", "k", "--lo", "0.5", "--hi", "1.0", *bracket]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["certify", SUPPORT, "--export-sdp", "out.sdp"],
        ["certify", SUPPORT, "--csv", "out.csv"],
        ["bisect", SUPPORT, "--param", "k", "--lo", "0", "--hi", "1", "--csv", "out.csv"],
        ["oracle", SUPPORT, "--margin", "0.1"],
        ["oracle", SUPPORT, "--log-iterations"],
        ["oracle", SUPPORT, "--csv", "out.csv"],
        ["export-sdp", SUPPORT, "out.sdp", "--margin", "0.1"],
        ["export-sdp", SUPPORT, "out.sdp", "--log-iterations"],
        ["export-sdp", SUPPORT, "out.sdp", "--csv", "out.csv"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2] if argv[-1][0] != '-' else argv[-1]}")
    def test_unread_flag_is_a_usage_error(self, problems_dir, tmp_path, capsys, argv):
        # a flag the subcommand would ignore is rejected, and nothing is written
        argv = [str(problems_dir / a) if a == SUPPORT else
                str(tmp_path / a) if a.startswith("out.") else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_with_log_iterations(self, problems_dir, capsys):
        code = main(["analyze", str(problems_dir / RUNNING), "--log-iterations"])
        assert code == 0
        err = capsys.readouterr().err
        assert "p_infeas" in err  # iteration table header on stderr

    def test_analyze_csv_single_row(self, problems_dir, tmp_path):
        csv_path = tmp_path / "one.csv"
        assert main(["analyze", str(problems_dir / RUNNING),
                     "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 2


# `dstab export-sdp` output pinned byte for byte: the file writes the
# normalization as its one linear row, then the moment block, the
# expectation constraints and the support localizers, each equality form as
# a +/- block pair, whatever form the solver uses for it.
EXPORT_GOLDEN = [
    (["hurwitz.prob", "--tau", "3"],
     "b921c76d4f7d6ffd622d3dcd065e4319696d1af8d1a64f77082fc02c75acd963",
     "tau 3: 1716 moment variables, blocks [120, 36, 36, 36, 8, 8, 8, 8, 8, 8, 8, 8, "
     "36, 36], 1 linear rows -> "),
    ([VARIANCE, "--bind", "sigma2=0.1"],
     "ce48f2ddd21e7732b3ba609f8a82e646b3e9e89bd9fd31f3b4d96249b246f1d9",
     "tau 2: 70 moment variables, blocks [15, 1, 1, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5], "
     "1 linear rows -> "),
    (["bifurcation.prob", "--bind", "k=0.45", "--tau", "3"],
     "9c1ea9d5533ef2c25804867a559038b9e85e8c9dafb5fcef0176b3ef990ae080",
     "tau 3: 12376 moment variables, blocks [364, " + "78, " * 16 + "1, 1, 12, 12, 1, 1, "
     "12, 12, 78, 78], 1 linear rows -> "),
    (["lti_hinf.prob", "--tau", "2"],
     "0e5623529c2add3a6208d0338125af2ad383b51a8332cc91e53623ae03aca629",
     "tau 2: 14950 moment variables, blocks [276, " + "23, " * 16 + "1, 1, 1, 1, "
     "23, 23, 23, 23, 1, 1, " + "23, " * 6 + "1, 1, 1, 1, 23, 23, 23, 23, 1, 1, 23, 23], "
     "1 linear rows -> "),
]


@pytest.mark.parametrize("args, sha256, stdout", EXPORT_GOLDEN,
                         ids=[case[0][0] for case in EXPORT_GOLDEN])
def test_export_sdp_golden_output(problems_dir, tmp_path, capsys, args, sha256, stdout):
    target = tmp_path / "out.sdp"
    assert main(["export-sdp", str(problems_dir / args[0]), *args[1:], str(target)]) == 0
    assert capsys.readouterr().out == f"{stdout}{target}\n"
    assert hashlib.sha256(target.read_bytes()).hexdigest() == sha256


# `dstab oracle` output pinned line for line, so that a faster oracle cannot
# quietly change a witness or a bound.  In the lti_hinf witness the real part
# of lambda, the region depth and the eigenpair residual are rounding noise of
# the eigensolver (an eigenvalue on the imaginary axis), so only their size is
# checked; the witness itself is fixed by the depth tie rule.
_NOISE = "<noise>"
_NO_MEASURE = ("oracle error: no grid point satisfies the delta constraints; the support "
               "is likely measure-zero (equality constraints) - check chosen points with "
               "oracle.deepest_witness and oracle.spectra, or with oracle.atomic_lp_bound\n")
ORACLE_GOLDEN = [
    (["hurwitz.prob", "--grid", "11"], 0,
     "grid search (11 points/axis): no violation found\n"
     "atomic LP over 11 atoms: lower bound 0 on the violation probability\n", ""),
    ([RUNNING], 0,
     "grid search (101 points/axis): witness rho = (1), lambda = 0+0j, region depth 0, "
     "eigenpair residual 0\n"
     "atomic LP over 101 atoms: lower bound 0.5 on the violation probability\n", ""),
    ([SUPPORT], 0,
     "grid search (101 points/axis): witness rho = (1), lambda = 0+0j, region depth 0, "
     "eigenpair residual 0\n"
     "atomic LP over 101 atoms: lower bound 1 on the violation probability\n", ""),
    ([VARIANCE, "--bind", "sigma2=0.1"], 0,
     "grid search (101 points/axis): witness rho = (1), lambda = 0+0j, region depth 0, "
     "eigenpair residual 0\n"
     "atomic LP over 101 atoms: lower bound 0.285714286 on the violation probability\n", ""),
    ([VARIANCE, "--grid", "5000", "--bind", "sigma2=0.13"], 0,
     "grid search (5000 points/axis): witness rho = (1), lambda = 0+0j, region depth 0, "
     "eigenpair residual 0\n"
     "atomic LP over 5000 atoms: lower bound 0.342105255 on the violation probability\n", ""),
    (["lti_stability.prob", "--grid", "8"], 0,
     "grid search (8 points/axis): no violation found\n"
     "atomic LP over 4096 atoms: lower bound 0 on the violation probability\n", ""),
    (["lti_hinf.prob", "--grid", "4"], 0,
     "grid search (4 points/axis): witness rho = (0.95, 0.0166666667, -0.25, -0.05), "
     f"lambda = {_NOISE}-0.464560786j, region depth {_NOISE}, eigenpair residual {_NOISE}\n"
     "atomic LP over 256 atoms: lower bound 1 on the violation probability\n", ""),
    (["bifurcation.prob", "--bind", "k=0.4"], 1, "", _NO_MEASURE),
    (["bifurcation_probabilistic.prob", "--bind", "sigma2=0.05"], 1, "", _NO_MEASURE),
]


@pytest.mark.parametrize("args, calls", [
    ([VARIANCE, "--grid", "5000", "--bind", "sigma2=0.1"], 1),
    (["lti_stability.prob", "--grid", "6"], 1),
    # 11^4 points: the LP's atoms are the search grid past 10 000 points too
    (["lti_stability.prob", "--grid", "11"], 1),
])
def test_oracle_spectra_once_per_grid(problems_dir, monkeypatch, capsys, args, calls):
    grids, spectra_grids = [], []
    grid_points, spectra = dstab.oracle.grid_points, dstab.oracle.spectra

    def counted_grid(*grid_args, **kwargs):
        points = grid_points(*grid_args, **kwargs)
        grids.append(len(points))
        return points

    def counted(problem, points):
        spectra_grids.append(len(points))
        return spectra(problem, points)

    monkeypatch.setattr(dstab.oracle, "grid_points", counted_grid)
    monkeypatch.setattr(dstab.oracle, "spectra", counted)
    assert main(["oracle", str(problems_dir / args[0]), *args[1:]]) == 0
    out = capsys.readouterr().out
    assert len(grids) == len(spectra_grids) == calls
    assert f"atomic LP over {grids[0]} atoms" in out


def _lp_bound(problems_dir, capsys, grid: int) -> float:
    assert main(["oracle", str(problems_dir / VARIANCE), "--grid", str(grid),
                 "--bind", "sigma2=0.13"]) == 0
    return float(re.search(r"lower bound (\S+)", capsys.readouterr().out).group(1))


def test_oracle_refined_grid_keeps_the_lp_bound(problems_dir, capsys):
    # the search grid holds rho = 1, where the spectrum reaches the
    # imaginary axis; the LP's atoms are that grid, so refining it past
    # 10 000 points cannot lose the violating atom
    coarse = _lp_bound(problems_dir, capsys, 10_000)
    fine = _lp_bound(problems_dir, capsys, 10_001)
    assert coarse > 0.342 and fine >= coarse


@pytest.mark.parametrize("args, code, stdout, stderr", ORACLE_GOLDEN,
                         ids=[" ".join(case[0]) for case in ORACLE_GOLDEN])
def test_oracle_golden_output(problems_dir, capsys, args, code, stdout, stderr):
    assert main(["oracle", str(problems_dir / args[0]), *args[1:]]) == code
    out, err = capsys.readouterr()
    assert err == stderr
    expected = stdout.split(_NOISE)
    noise = re.fullmatch("(.*)".join(map(re.escape, expected)), out, re.DOTALL)
    assert noise is not None, out
    for figure in noise.groups():
        assert abs(float(figure)) <= 1e-12


class TestBindAndInfeasible:
    def test_bind_flag_on_analyze(self, problems_dir, capsys):
        code = main(["analyze", str(problems_dir / VARIANCE),
                     "--bind", "sigma2=0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p_upper:    0.5" in out

    @pytest.mark.parametrize("argv, flag", [
        (["analyze", VARIANCE, "--bind", "sigma2=abc"], "--bind"),
        (["oracle", VARIANCE, "--bind", "sigma2"], "--bind"),
        (["sweep", VARIANCE, "--param", "sigma2", "--values", "0.1,x"], "--values"),
        (["sweep", VARIANCE, "--param", "sigma2", "--values", " , "], "--values"),
    ], ids=["bind-number", "bind-form", "values-number", "values-empty"])
    def test_malformed_number_flag_is_a_usage_error(self, problems_dir, capsys, argv, flag):
        argv = [str(problems_dir / a) if a.endswith(".prob") else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", VARIANCE, "--param", "sigma2", "--values", "0.1", "--bind", "sigma2=0.3"],
        ["bisect", VARIANCE, "--param", "sigma2", "--lo", "0", "--hi", "1",
         "--bind", "sigma2=0.3"],
        ["analyze", VARIANCE, "--bind", "sigma2=0.1", "--bind", "sigma2=0.2"],
    ], ids=["sweep", "bisect", "bind"])
    def test_name_bound_twice_is_a_usage_error(self, problems_dir, capsys, argv):
        argv = [str(problems_dir / a) if a.endswith(".prob") else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "bound more than once (by --bind or --param): sigma2" in captured.err
        assert captured.out == ""

    def test_infeasible_moments_exit_two(self, tmp_path, capsys):
        path = _running_file(tmp_path / "bad_mean.prob", moments="E[rho] = 2.0\n")
        code = main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "Inconclusive" in out and "Infeasible" in out
        assert "p_upper:    1   " in out and "p_lower:    0   " in out


def test_every_public_name_resolves():
    namespace = {}
    exec("from dstab import *", namespace)
    assert set(dstab.__all__) <= set(namespace)


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize alone adds about 20 MB of peak memory to every command
    src_dir = str(pathlib.Path(dstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    probe = "import sys, dstab.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_out_numpy_random():
    # numpy.random costs every command about 10 ms of start-up; only the
    # oracle's seeded sampling needs it (some numpy versions import it
    # with numpy itself)
    src_dir = str(pathlib.Path(dstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    probe = ("import sys, numpy; print('numpy.random' in sys.modules)\n"
             "import dstab.cli; print('numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    with_numpy, with_cli = result.stdout.split()
    if with_numpy == "True":
        pytest.skip("this numpy imports numpy.random itself")
    assert with_cli == "False"


def test_cli_needs_no_scipy(problems_dir):
    # importing any scipy module costs a command about 0.3 s of start-up;
    # neither the import nor a whole certify run may load one
    src_dir = str(pathlib.Path(dstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    probe = (
        "import sys, dstab.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded())\n"
        f"code = dstab.cli.main(['certify', {str(problems_dir / 'hurwitz.prob')!r}, '--tau', '3'])\n"
        "print(code, loaded())\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=300, check=True)
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(user_value, expected):
    src_dir = str(pathlib.Path(dstab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src_dir
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    probe = "import os, dstab; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == expected


@pytest.mark.parametrize("user_value, warns", [(None, True), ("1", False)])
def test_import_after_numpy_warns_unless_a_thread_count_is_set(user_value, warns):
    # numpy has fixed its BLAS thread count by then, so dstab's default of
    # one thread cannot apply
    src_dir = str(pathlib.Path(dstab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src_dir
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    probe = ("import warnings, numpy\n"
             "with warnings.catch_warnings(record=True) as caught:\n"
             "    warnings.simplefilter('always')\n"
             "    import dstab\n"
             "print([w.category.__name__ for w in caught])")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == ("['RuntimeWarning']" if warns else "[]")
