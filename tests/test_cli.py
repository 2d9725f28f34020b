import ast
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from mullsem import cli, errors
from mullsem.cli import POLES, main
from mullsem.formula import One
from mullsem.poles import NAMED_POLES

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

SIGN_SPACE = """\
elements 1 -1
unit 1
mul 1 1 1
mul 1 -1 -1
mul -1 -1 1
pole 1
"""

WALK = "x: 1/4 + 3/4 * x * x\n"
# its machine answer is about 2.6 MB, far more than a pipe buffers
LARGE_ANSWER = ("interp", "--model", "rel", "--depth", "3",
                "mu x. mu y. 1 + !x + y")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "machine", *argv)
    return code, json.loads(out) if out else None, err


def child_env():
    """The environment of a child, with stdout block-buffered as on a
    user's pipe whatever PYTHONUNBUFFERED says here."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(*argv):
    """A ``python -m mullsem --format machine`` child: the default stack,
    no pytest frames below it, and any traceback on its stderr."""
    return subprocess.run([sys.executable, "-m", "mullsem", "--format",
                           "machine", *argv], capture_output=True, text=True,
                          env=child_env(), timeout=120)


class TestVariance:
    def test_positive(self, capsys):
        code, data, _ = run_json(capsys, "variance", "mu x. 1 + x")
        assert code == 0
        assert data["sort"] == "+"

    def test_closed_negation_reports_positive(self, capsys):
        # closed well-sorted formulas are derivable at either sort; the
        # checker commits to +
        code, data, _ = run_json(capsys, "variance", "~(mu x. 1 + x)")
        assert code == 0
        assert data["sort"] == "+"

    def test_variance_error_is_semantic(self, capsys):
        code, _, err = run(capsys, "variance", "mu x. ~x")
        assert code == 1
        assert "variance" in err

    @pytest.mark.parametrize("text", ["!" * 3000 + "1",
                                      "(" * 3000 + "1" + ")" * 3000])
    def test_deep_nesting_is_input_error(self, capsys, text):
        code, _, err = run(capsys, "variance", text)
        assert code == 2
        assert "nested deeper than" in err and "offset 100" in err

    def test_parse_error_is_input(self, capsys):
        code, _, err = run(capsys, "variance", "mu x. x +")
        assert code == 2
        assert "offset 9" in err


class TestInterp:
    def test_rel(self, capsys):
        code, data, _ = run_json(capsys, "interp", "--model", "rel",
                                 "--depth", "3", "mu x. 1 + x")
        assert code == 0
        assert data["size"] == 3
        assert data["stabilized"] is False
        assert data["budgets"] == {"depth": 3, "bag": 2}

    def test_totality(self, capsys):
        code, data, _ = run_json(capsys, "interp", "--model", "totality",
                                 "--depth", "3", "mu x. 1 + x")
        assert code == 0
        assert len(data["minimal_antichain"]) == 3
        assert data["stabilized"] is True

    @pytest.mark.parametrize("model", ["rel", "totality"])
    def test_depth_zero_is_not_stabilized(self, capsys, model):
        code, data, _ = run_json(capsys, "interp", "--model", model,
                                 "--depth", "0", "mu x. 1 + x")
        assert code == 0
        assert data["carrier"] == []
        assert data["stabilized"] is False

    def test_deep_totality_answer_is_not_a_traceback(self):
        # the stabilization check reads the fold depth of elements 600
        # Folds deep
        proc = run_child("interp", "--model", "totality", "--depth", "600",
                         "mu x. 1 + x")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert len(data["carrier"]) == 600
        assert len(data["minimal_antichain"]) == 600

    @pytest.mark.parametrize("text", ["!0", "?0"])
    def test_exponential_of_empty_carrier(self, capsys, text):
        # the empty carrier has exactly one bag, the empty one
        code, data, err = run_json(capsys, "interp", "--model", "totality",
                                   text)
        assert code == 0, err
        assert data["carrier"] == ["[]"]

    def test_phase_with_space(self, capsys, tmp_path):
        space = tmp_path / "sign.ph"
        space.write_text(SIGN_SPACE)
        code, data, _ = run_json(capsys, "interp", "--model", "phase",
                                 "--space", str(space), "mu x. x")
        assert code == 0
        assert data["fact"] == []
        assert data["holds"] is False

    def test_phase_needs_space(self, capsys):
        code, _, err = run(capsys, "interp", "--model", "phase", "1")
        assert code == 2
        assert "--space" in err

    def test_wrel_vector(self, capsys):
        code, data, _ = run_json(capsys, "interp", "--model", "wrel", "1 + 1")
        assert code == 0
        assert data["semiring"] == "bool"
        assert data["vector"] == {"inl(())": "1", "inr(())": "1"}

    def test_wrel_semiring_is_the_boolean_semirings_name(self):
        # the wrel branch names the semiring without importing semiring
        from mullsem.commands.interp import WREL_SEMIRING
        from mullsem.semiring import BOOL
        assert WREL_SEMIRING == BOOL.name

    def test_phase_product_of_a_non_element_is_input_error(self, capsys,
                                                           tmp_path):
        # a misspelt name in a product line is refused, not dropped
        space = tmp_path / "typo.ph"
        space.write_text("elements e a\nunit e\nmul a a a\nmul x y q\n"
                         "mul b b b\npole e\n")
        code, out, err = run(capsys, "interp", "--model", "phase",
                             "--space", str(space), "1")
        assert code == 2
        assert out == ""
        assert err == "input error: line 4: 'x' is not an element\n"

    def test_totality_lolli_semantic_error(self, capsys):
        code, _, err = run(capsys, "interp", "--model", "totality", "1 -o 1")
        assert code == 1
        assert "lolli" in err

    def test_totality_with_budget_is_semantic(self, capsys):
        # unguarded, this & builds 85 x 7311 minimal sets and runs out of
        # memory
        code, out, err = run(capsys, "interp", "--model", "totality",
                             "--depth", "3", "mu x. nu y. (1 + x) & (1 + y)")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "exceeds cap 20000" in err


class TestPhaseSearch:
    def test_counter_model_reported_as_data(self, capsys):
        code, data, _ = run_json(capsys, "phase-search", "bot")
        assert code == 0
        assert data["counter_model"]["elements"] == ["e"]
        assert data["counter_model"]["pole"] == []

    def test_no_counter_model(self, capsys):
        code, data, _ = run_json(capsys, "phase-search", "--max-size", "2", "1")
        assert code == 0
        assert data["counter_model"] is None

    def test_size_cap(self, capsys):
        code, data, _ = run_json(capsys, "phase-search", "--max-size", "6",
                                 "(1 & bot) -o 1")
        assert code == 0
        assert data["max_size"] == 6
        assert data["counter_model"] is None
        code, out, err = run(capsys, "phase-search", "--max-size", "7", "1")
        assert code == 2
        assert out == ""
        assert err == "input error: --max-size must be between 1 and 6\n"


class TestFix:
    def test_quadratic(self, capsys, tmp_path):
        expr = tmp_path / "walk.fx"
        expr.write_text(WALK)
        code, data, _ = run_json(capsys, "fix", "--expr", str(expr),
                                 "--tol", "1e-9")
        assert code == 0
        assert abs(float(data["value"]["x"]) - 1 / 3) <= 1e-9
        assert float(data["residual"]) <= 1e-9
        assert data["mode"] == "float"
        assert data["tolerance"] == "1e-9"

    def test_budget_exhaustion_is_semantic(self, capsys, tmp_path):
        expr = tmp_path / "walk.fx"
        expr.write_text(WALK)
        code, _, err = run(capsys, "fix", "--expr", str(expr),
                           "--tol", "1e-9", "--max-iter", "2")
        assert code == 1
        assert "residual" in err

    def test_exact_mode_answers_the_walk(self, capsys, tmp_path):
        # Kleene iterates in rationals double in width at every step;
        # the certificate at the bracket's upper end proves 1/3
        expr = tmp_path / "walk.fx"
        expr.write_text(WALK)
        code, data, err = run_json(capsys, "fix", "--expr", str(expr),
                                   "--mode", "exact")
        assert code == 0 and err == ""
        assert data["value"] == {"x": "1/3"} and data["residual"] == "0"
        assert data["exact"] is True and data["mode"] == "exact"
        assert data["upper"] == {"x": "1/3"}

    @pytest.mark.parametrize("text, value", [
        ("x: 1/5 + 1/3 * x", "3/10"),
        ("x: 1/9 + 2/3 * x + 2/9 * x * x", "1/2")])
    def test_exact_mode_is_the_least_fixpoint(self, capsys, tmp_path, text,
                                              value):
        # the least fixpoint itself, not an iterate within the tolerance
        # such as 581130733/1937102445
        expr = tmp_path / "exact.fx"
        expr.write_text(text + "\n")
        code, data, _ = run_json(capsys, "fix", "--expr", str(expr),
                                 "--mode", "exact")
        assert code == 0 and data["exact"] is True
        assert data["value"] == data["upper"] == {"x": value}

    def test_exact_mode_irrational_fixpoint_is_a_bracket(self, capsys,
                                                         tmp_path):
        # the least fixpoint (2 - sqrt 2) / 2 is irrational: the answer
        # is float mode's bracket
        expr = tmp_path / "quadratic.fx"
        expr.write_text("x: 1/4 + 1/2 * x * x\n")
        code, data, err = run_json(capsys, "fix", "--expr", str(expr),
                                   "--mode", "exact")
        assert code == 0 and err == ""
        assert data["exact"] is False and data["certified"] is True
        lower, upper = (Fraction(data[end]["x"]) for end in ("lower", "upper"))
        assert 2 * lower ** 2 - 4 * lower + 1 > 0 \
            > 2 * upper ** 2 - 4 * upper + 1
        code, floated, _ = run_json(capsys, "fix", "--expr", str(expr))
        assert {k: v for k, v in data.items() if k not in ("mode", "exact")} \
            == {k: v for k, v in floated.items() if k != "mode"}

    def test_critical_system_is_certified(self, capsys, tmp_path):
        # Kleene iteration is sublinear here and exhausts --max-iter
        expr = tmp_path / "critical.fx"
        expr.write_text("x: 1/2 + 1/2 * x * x\n")
        code, data, _ = run_json(capsys, "fix", "--expr", str(expr),
                                 "--tol", "1e-9")
        assert code == 0
        assert data["certified"] is True and data["stabilized"] is True
        lower, upper = Fraction(data["lower"]["x"]), Fraction(data["upper"]["x"])
        assert 0 <= upper - lower <= 1e-9
        assert upper == 1
        assert data["iterations"] <= 64
        assert abs(float(data["value"]["x"]) - 1) <= 1e-9

    def test_divergent_map_is_not_certified(self, capsys, tmp_path):
        expr = tmp_path / "divergent.fx"
        expr.write_text("x: 1 + 2 * x\n")
        code, data, _ = run_json(capsys, "fix", "--expr", str(expr))
        assert code == 0
        assert data["value"] == {"x": "inf"}
        assert data["certified"] is False and data["upper"] is None

    @pytest.mark.parametrize("text", [WALK, "x: 1/2 + 1/2 * x * x\n",
                                      "x: 1 + 2 * x\n"],
                             ids=["exact", "critical", "divergent"])
    def test_exact_mode_keeps_the_float_fields(self, capsys, tmp_path, text):
        expr = tmp_path / "map.fx"
        expr.write_text(text)
        code, data, _ = run_json(capsys, "fix", "--expr", str(expr),
                                 "--mode", "exact")
        assert code == 0
        assert list(data) == ["command", "expr", "tolerance", "max_iter",
                              "value", "residual", "iterations",
                              "stabilized", "mode", "lower", "upper",
                              "certified", "exact"]
        _, floated, _ = run_json(capsys, "fix", "--expr", str(expr))
        assert list(floated) == list(data)[:-1]

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_tolerance_below_the_least_float_is_input_error(
            self, capsys, tmp_path, mode):
        # 1e-5000 is 0 as a float; as a Fraction it would give the
        # bracket more digits than str() writes of an int
        expr = tmp_path / "linear.fx"
        expr.write_text("x: 1/5 + 1/3 * x\n")
        code, out, err = run(capsys, "fix", "--expr", str(expr),
                             "--tol", "1e-5000", "--mode", mode)
        assert code == 2
        assert out == ""
        assert err == "input error: --tol must be positive and finite\n"

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_answer_too_wide_to_print_is_semantic(self, capsys, tmp_path,
                                                  mode):
        # the least fixpoint is a 6,001-digit integer; str() of an int
        # stops at sys.get_int_max_str_digits() (4,300 by default)
        big = "1" + "0" * 2000
        expr = tmp_path / "huge.fx"
        expr.write_text(f"x: {big} * {big} * {big}\n")
        code, out, err = run(capsys, "fix", "--expr", str(expr),
                             "--mode", mode)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and limit < 6001:
            assert code == 1
            assert out == ""
            assert err == ("error: the answer has a number with more "
                           "decimal digits than an integer may print as\n")
        else:
            assert code == 0 and err == ""

    def test_bad_tolerance(self, capsys, tmp_path):
        expr = tmp_path / "walk.fx"
        expr.write_text(WALK)
        code, _, err = run(capsys, "fix", "--expr", str(expr), "--tol", "0")
        assert code == 2

    @pytest.mark.parametrize("text", [
        "x: 1/4 + " + " + ".join(["1/10000 * x"] * 2999),
        "x: 1/4 + x" + " * x" * 2999,
        "x: " + "(" * 400 + "x" + ")" * 400,
    ], ids=["sum", "product", "parentheses"])
    def test_deep_expression_is_input_error(self, tmp_path, text):
        # the walks over scalar expressions recurse once per level
        expr = tmp_path / "deep.fx"
        expr.write_text("y: 1/2\n" + text + "\n")
        proc = run_child("fix", "--expr", str(expr))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("input error: line 2: expression nested "
                               "deeper than 100 levels\n")

    def test_expression_at_the_height_cap_answers(self, tmp_path):
        expr = tmp_path / "wide.fx"
        expr.write_text("x: 1/4 + " + " + ".join(["1/10000 * x"] * 99) + "\n")
        proc = run_child("fix", "--expr", str(expr))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["upper"] == {"x": "2500/9901"}

    def test_constant_past_the_largest_float_reads_inf(self, tmp_path):
        # Kleene iteration answers here, since the map has no finite
        # least fixpoint to certify
        expr = tmp_path / "huge.fx"
        expr.write_text("x: 1" + "0" * 400 + " + 2 * x\n")
        proc = run_child("fix", "--expr", str(expr))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert data["value"] == {"x": "inf"}
        assert data["certified"] is False

    @pytest.mark.parametrize("text, value", [
        ("x: 1 + 2 * y\ny: 1 + 2 * x\n", {"x": "inf", "y": "inf"}),
        ("x: 1 + 2 * x + y\ny: 1/4 + 1/2 * y\n", {"x": "inf", "y": "0.5"}),
        ("x: 1/2 + 1" + "0" * 400 + " * x\n", {"x": "inf"}),
    ], ids=["both", "one", "coefficient-past-the-largest-float"])
    def test_divergent_system_reads_inf(self, tmp_path, text, value):
        # the sup-norm step mixes finite and infinite coordinates; a
        # coefficient past the largest float reads inf, and the first
        # step 1/2 + inf * 0 is 1/2 because 0 * inf is 0: nan would not
        # ascend
        expr = tmp_path / "divergent.fx"
        expr.write_text(text)
        proc = run_child("fix", "--expr", str(expr))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        data = json.loads(proc.stdout)
        assert data["value"] == value
        assert data["stabilized"] is True
        assert data["certified"] is False and data["upper"] is None

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_tolerance_is_input_error(self, capsys, tmp_path,
                                                 tol, mode):
        expr = tmp_path / "walk.fx"
        expr.write_text(WALK)
        code, out, err = run(capsys, "fix", "--expr", str(expr),
                             f"--tol={tol}", "--mode", mode)
        assert code == 2
        assert out == "" and "--tol" in err


class TestPolar:
    def test_membership(self, capsys, tmp_path):
        gens = tmp_path / "gens.mat"
        gens.write_text("rows g1 g2\ncols i j\ng1 i 1\ng2 j 1\n")
        point = tmp_path / "pt.mat"
        point.write_text("rows v\ncols i j\nv i 1/2\nv j 1/2\n")
        code, data, _ = run_json(capsys, "polar", "--generators", str(gens),
                                 "--point", str(point))
        assert code == 0
        assert data["member"] is True
        assert data["dimension"] == 2

    def test_non_membership(self, capsys, tmp_path):
        gens = tmp_path / "gens.mat"
        gens.write_text("rows g1\ncols i j\ng1 i 1\n")
        point = tmp_path / "pt.mat"
        point.write_text("rows v\ncols i j\nv j 1\n")
        code, data, _ = run_json(capsys, "polar", "--generators", str(gens),
                                 "--point", str(point))
        assert code == 0
        assert data["member"] is False

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "polar", "--generators",
                           str(tmp_path / "nope"), "--point",
                           str(tmp_path / "nope2"))
        assert code == 2

    @pytest.mark.parametrize("gens,point,entry", [
        ("g1 i 1\ng2 j inf\n", "v i 1/2\n", "generator g2 is inf at j"),
        ("g1 i 1\n", "v i 1/2\nv j inf\n", "the point is inf at j"),
    ], ids=["generators", "point"])
    def test_inf_entry_is_input_error(self, capsys, tmp_path, gens, point,
                                      entry):
        files = {"gens.mat": "rows g1 g2\ncols i j\n" + gens,
                 "pt.mat": "rows v\ncols i j\n" + point}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, out, err = run(capsys, "polar", "--generators",
                             str(tmp_path / "gens.mat"), "--point",
                             str(tmp_path / "pt.mat"))
        assert code == 2
        assert out == ""
        assert err == (f"input error: {entry}: polar membership needs "
                       "finite rational entries\n")

    def test_repeated_entry_is_input_error(self, capsys, tmp_path):
        gens = tmp_path / "gens.mat"
        gens.write_text("rows g1\ncols i\ng1 i 1\n")
        point = tmp_path / "pt.mat"
        point.write_text("rows v\ncols i\nv i 1/2\nv i 2\n")
        code, out, err = run(capsys, "polar", "--generators", str(gens),
                             "--point", str(point))
        assert code == 2
        assert out == ""
        assert err == "input error: line 4: repeated entry 'v','i'\n"

    def test_repeated_header_is_input_error(self, capsys, tmp_path):
        # the second header only reorders the labels; it was accepted
        gens = tmp_path / "gens.mat"
        gens.write_text("rows g1\ncols i j\ng1 i 1\n")
        point = tmp_path / "pt.mat"
        point.write_text("rows v\ncols i j\nv i 1/2\ncols j i\nv j 1\n")
        code, out, err = run(capsys, "polar", "--generators", str(gens),
                             "--point", str(point))
        assert code == 2
        assert out == ""
        assert err == "input error: line 4: repeated 'cols' header\n"


class TestInputFiles:
    @pytest.mark.parametrize("argv", [
        ("interp", "--model", "phase", "--space", "{bad}", "1"),
        ("fix", "--expr", "{bad}"),
        ("polar", "--generators", "{bad}", "--point", "{point}"),
        ("polar", "--generators", "{gens}", "--point", "{bad}"),
    ], ids=["space", "expr", "generators", "point"])
    def test_non_utf8_file_is_input_error(self, capsys, tmp_path, argv):
        files = {"bad": tmp_path / "bad", "gens": tmp_path / "gens.mat",
                 "point": tmp_path / "pt.mat"}
        files["bad"].write_bytes(b"\xff\n")
        files["gens"].write_text("rows g1\ncols i\ng1 i 1\n")
        files["point"].write_text("rows v\ncols i\nv i 1\n")
        paths = {name: str(path) for name, path in files.items()}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: cannot read {paths['bad']}")


class TestAdmissible:
    @pytest.mark.parametrize("pole,verdict", [
        ("pcoh", "ADMISSIBLE"),
        ("totality", "NOT_ADMISSIBLE"),
        ("nat", "NOT_ADMISSIBLE"),
    ])
    def test_verdicts(self, capsys, pole, verdict):
        code, data, _ = run_json(capsys, "admissible", "--pole", pole)
        assert code == 0
        assert data["verdict"] == verdict

    def test_nat_witness(self, capsys):
        _, data, _ = run_json(capsys, "admissible", "--pole", "nat")
        assert data["witness_chain"] == ["0", "1", "2", "3", "4", "5"]
        assert data["witness_sup"] == "inf"

    def test_pole_choices_are_the_named_poles(self):
        # the parser lists the poles without importing poles
        assert POLES == tuple(sorted(NAMED_POLES))

    def test_unknown_pole_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["admissible", "--pole", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestMachineStability:
    def test_byte_identical_reports(self, capsys, tmp_path):
        space = tmp_path / "sign.ph"
        space.write_text(SIGN_SPACE)
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "machine", "interp",
                               "--model", "totality", "--depth", "3",
                               "mu x. 1 + !x")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "machine", "interp",
                               "--model", "phase", "--space", str(space),
                               "nu x. 1 & x")
            assert code == 0
            outs.append(out)
        assert outs[2] == outs[3]

    def test_budget_provenance_present(self, capsys):
        _, data, _ = run_json(capsys, "interp", "--model", "rel", "1")
        assert "budgets" in data


class TestBudgetValidation:
    def test_negative_depth_is_input_error(self, capsys):
        code, _, err = run(capsys, "interp", "--model", "rel",
                           "--depth", "-1", "1")
        assert code == 2
        assert "non-negative" in err

    def test_negative_bag_is_input_error(self, capsys):
        code, _, err = run(capsys, "interp", "--model", "rel",
                           "--bag", "-2", "1")
        assert code == 2


# one instance of every error class the package defines
ERRORS = [
    errors.MullsemError("boom"),
    errors.ParseError("unexpected end", 1, 3, 2),
    errors.UnboundVariable("x"),
    errors.VarianceError(One(), "detail"),
    errors.UnsupportedConstructor("lolli", "totality"),
    errors.LatticeError("no top"),
    errors.IterationBudgetExceeded(10),
    errors.BudgetExceeded("carrier of size 9 exceeds cap 8"),
    errors.CarrierMismatch("endpoints"),
    errors.CarrierTooLarge(13, 12),
    errors.NotInvertible("map"),
    errors.IndexMismatch("indices"),
    errors.DimensionCap(9, 8),
    errors.EmptyGenerators(),
    errors.PreconditionFailed("square"),
    errors.FileFormatError("bad file"),
]
INPUT_ERRORS = (errors.ParseError, errors.FileFormatError,
                errors.UnboundVariable)


class TestExitCodes:
    def test_every_error_class_is_listed(self):
        defined = {c for c in vars(errors).values() if isinstance(c, type)
                   and issubclass(c, errors.MullsemError)}
        assert {type(e) for e in ERRORS} == defined

    @pytest.mark.parametrize("error", ERRORS,
                             ids=[type(e).__name__ for e in ERRORS])
    def test_error_exit_code(self, capsys, monkeypatch, error):
        def command(args):
            raise error
        # main runs mullsem.commands.variance, found in sys.modules
        failing = types.ModuleType("mullsem.commands.variance")
        failing.run = command
        monkeypatch.setitem(sys.modules, failing.__name__, failing)
        code, out, err = run(capsys, "variance", "1")
        assert out == ""
        if isinstance(error, INPUT_ERRORS):
            assert code == 2
            assert err == f"input error: {error}\n"
        else:
            assert code == 1
            assert err == f"error: {error}\n"

    def test_closed_stdout_is_not_a_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mullsem", "--format", "machine",
             *LARGE_ANSWER],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_closed_stdout_before_a_short_answer(self):
        # the block-buffered stdout keeps the short answer until main's
        # flush, which fails; the flush before the exit must not fail again
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mullsem", "variance", "mu x. 1 + x"],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env=child_env(), timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == ("error: output closed before the answer was "
                               "written\n")


class TestExitPath:
    def test_large_answer_reaches_a_pipe_whole(self, capsys):
        proc = run_child(*LARGE_ANSWER)
        assert proc.returncode == 0
        assert proc.stderr == ""
        json.loads(proc.stdout)
        code, out, _ = run(capsys, "--format", "machine", *LARGE_ANSWER)
        assert (code, out) == (0, proc.stdout)

    @pytest.mark.parametrize("argv", [
        ("variance", "mu x. x +"),
        ("variance", "mu x. ~x"),
        ("variance",),
    ], ids=["parse-error", "variance-error", "usage-error"])
    def test_child_ends_as_main_returns(self, capsys, argv):
        try:
            code = main(["--format", "machine", *argv])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        proc = run_child(*argv)
        assert code != 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out, captured.err)

    def test_script_and_module_run_the_same_entry(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        entry = re.search(r'^mullsem = "mullsem\.cli:(\w+)"$', pyproject,
                          re.MULTILINE).group(1)
        assert callable(getattr(cli, entry))
        # statements at module level and in a module-level if block (the
        # __main__ guard) that call a function
        for path in (Path(SRC) / "mullsem" / "__main__.py",
                     Path(cli.__file__)):
            body = ast.parse(path.read_text()).body
            stmts = [stmt for node in body for stmt in
                     (node.body if isinstance(node, ast.If) else [node])]
            calls = [stmt.value.func.id for stmt in stmts
                     if isinstance(stmt, ast.Expr)
                     and isinstance(stmt.value, ast.Call)]
            assert calls == [entry], path.name
