import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskvar.bounds import Branch
from diskvar.cli import cli_main
from diskvar.extremal import _DEFAULTS, KINDS, ExtremalKind, kind_for_branch, kind_spec, make_extremal
from diskvar.functions import complex_to_pair, eval_jet, function_from_json
from diskvar.moebius import Jet2


SRC = Path(__file__).resolve().parents[1] / "src"
SZASZ_GOLDEN = '{"value":3.78125,"branch":"szasz","extremal":{"theta":"arbitrary"}}\n'


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_disk_second_golden(capsys):
    code, out, err = run(
        capsys, "disk", "second", "--z0", "0.5,0", "--delta0", "0.3,0", "--delta1", "0.2,0"
    )
    assert code == 0 and err == ""
    assert out == '{"center":[0.2847288888888889,0.0],"radius":3.106133333333333}\n'


def test_disk_subcommands(capsys):
    code, doc = run_json(capsys, "disk", "schwarz-pick", "--z0", "0.5,0", "--delta0", "0,0")
    assert code == 0
    assert doc == {"center": [0.0, 0.0], "radius": pytest.approx(4.0 / 3.0)}

    code, doc = run_json(capsys, "disk", "rogosinski", "--z0", "0.5,0", "--delta1", "0,0")
    assert code == 0
    assert doc == {"center": [0.0, 0.0], "radius": 0.25}

    code, doc = run_json(capsys, "disk", "mercer", "--z0", "0.5,0", "--w0", "0.25,0", "--z", "0.8,0")
    assert code == 0
    assert doc == {"center": [pytest.approx(0.32), 0.0], "radius": pytest.approx(0.32)}

    code, doc = run_json(capsys, "disk", "dieudonne", "--z0", "0.5,0", "--w0", "0.25,0")
    assert code == 0
    assert doc == {"center": [0.5, 0.0], "radius": 0.5}

    code, doc = run_json(
        capsys, "disk", "dieudonne2", "--z0", "0.5,0", "--w0", "0.25,0", "--delta1", "0.3,0"
    )
    assert code == 0
    assert doc["w1"] == [pytest.approx(0.65), 0.0]
    assert doc["center"] == [pytest.approx(0.74), 0.0]
    assert doc["radius"] == pytest.approx(1.2133333333333333)


def test_bound_szasz_golden(capsys):
    code, out, err = run(capsys, "bound", "szasz", "--r", "0.5")
    assert code == 0 and err == ""
    assert out == SZASZ_GOLDEN


def test_python_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "diskvar.cli", "bound", "szasz", "--r", "0.5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, SZASZ_GOLDEN, "")


def test_bound_thm31_accepts_point_or_magnitude(capsys):
    code, by_mag = run_json(capsys, "bound", "thm31", "--r", "0.5", "--R", "0.9")
    assert code == 0
    assert by_mag["branch"] == "deg1"
    # leading minus needs the = form, as usual with argparse
    code, by_point = run_json(capsys, "bound", "thm31", "--z0", "0,0.5", "--delta0=-0.9,0")
    assert code == 0
    assert by_point["value"] == pytest.approx(by_mag["value"])


def test_bound_requires_r_or_z0(capsys):
    code, out, err = run(capsys, "bound", "thm31", "--R", "0.5")
    assert code == 2
    assert "--r or --z0" in err


def test_point_magnitude_consistency_is_checked(capsys):
    for argv, message in (
        (("thm31", "--r", "0.5", "--R", "0.25", "--z0", "0.4,0"), "|z0| = 0.4 does not match r = 0.5"),
        (("thm31", "--r", "0.5", "--R", "0.25", "--delta0", "0,0.3"), "|delta0| = 0.3 does not match R = 0.25"),
        (("szasz", "--r", "0.5", "--z0", "0.6,0"), "|z0| = 0.6 does not match r = 0.5"),
        (("szasz", "--r", "0.5", "--z0=1.5e308,1.5e308"), "|z0| = inf does not match r = 0.5"),
    ):
        code, out, err = run(capsys, "bound", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bound_extremal_params_are_the_trees(capsys):
    # the extremal's parameters and its tree come from one derivation, so they
    # agree to the last bit (two derivations differed in the last bits here)
    code, doc = run_json(
        capsys, "bound", "thm31", "--z0=-0.30717511844492196,0.5191566660983072",
        "--delta0=0.34804785653693915,-0.49773647587528946", "--emit-function",
    )
    assert code == 0 and doc["branch"] == "deg2"
    inner = doc["function"]["outer"]["child"]["right"]
    assert doc["extremal"]["delta1"] == inner["a"]
    assert doc["extremal"]["alpha"] == inner["child"]["left"]["c"]


def _sharp_bound_cases():
    """(argv, data) of ``bound thm31`` at z0 = 0, delta0 = 0, both and
    neither, and of ``bound szasz`` at z0 = 0 and not, each at a real point
    and a rotated one."""
    turns = (1.0, 1.0), (cmath.exp(0.6j), cmath.exp(-1.2j))
    for r, R in ((0.0, 0.25), (0.5, 0.0), (0.0, 0.0), (0.5, 0.25), (0.5, 0.9)):
        for z0, d0 in ((r * t0, R * t1) for t0, t1 in turns):
            argv = ["thm31", f"--z0={z0.real!r},{z0.imag!r}", f"--delta0={d0.real!r},{d0.imag!r}"]
            yield argv, {"z0": complex(z0), "delta0": complex(d0)}
    for z0 in (0j, 0.5 + 0j, 0.5 * cmath.exp(0.6j)):
        yield ["szasz", f"--z0={z0.real!r},{z0.imag!r}"], {"z0": z0}


def _printed(value):
    return complex_to_pair(value) if isinstance(value, complex) else value


def test_bound_prints_arbitrary_exactly_for_the_values_theta_moves(capsys):
    # every theta attains the bound: a printed value is the same at theta = 0
    # and 1.3, and each value printed "arbitrary" differs between them
    kinds = set()
    for argv, data in _sharp_bound_cases():
        code, doc = run_json(capsys, "bound", *argv)
        kind = kind_for_branch(Branch(doc["branch"]))
        spec = kind_spec(kind)
        kinds.add(kind)
        turns = [{name: theta for name, _ in spec.free} for theta in (0.0, 1.3)]
        at_zero, turned = (spec.params(**data, **turn) for turn in turns)
        assert code == 0 and list(doc["extremal"]) == list(at_zero), argv
        for name, printed in doc["extremal"].items():
            if printed == "arbitrary":
                assert turned[name] != at_zero[name], (argv, name)
            else:
                assert printed == _printed(at_zero[name]) == _printed(turned[name]), (argv, name)
        for turn in turns:
            jet = make_extremal(kind, **data, **turn).jet(data["z0"])
            assert abs(abs(jet.f2) - doc["value"]) <= 1e-12 * doc["value"], (argv, turn)
    assert kinds == {ExtremalKind.SHARP_DEG1, ExtremalKind.SHARP_DEG2, ExtremalKind.SZASZ}


def test_bound_thm31_at_delta0_zero_prints_theta_delta1_and_alpha_arbitrary(capsys):
    # with delta1 = 0.25 only alpha = 1 reaches the bound: they turn together
    arbitrary = {"theta": "arbitrary", "delta1": "arbitrary", "alpha": "arbitrary"}
    for r in ("0.5", "0"):
        code, out, err = run(capsys, "bound", "thm31", "--r", r, "--R", "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["extremal"] == (arbitrary if r == "0.5" else arbitrary | {"delta1": [0.0, 0.0]})


def test_bound_emit_function_attains(capsys):
    code, doc = run_json(
        capsys, "bound", "thm31", "--z0", "0.3,0.1", "--delta0", "0.2,-0.4", "--emit-function"
    )
    assert code == 0
    g = function_from_json(json.dumps(doc["function"]))
    jet = eval_jet(g, 0.3 + 0.1j)
    assert abs(jet.f2) == pytest.approx(doc["value"], rel=1e-10)


def test_bound_ruscheweyh(capsys):
    code, doc = run_json(capsys, "bound", "ruscheweyh", "--n", "2", "--r", "0.5", "--R", "0.25")
    assert code == 0
    assert doc["value"] == pytest.approx(2.0 * (1.0 - 0.0625) / (0.5**2 * 1.5))
    assert doc["branch"] == "ruscheweyh"


def test_bound_table_csv_and_json(capsys):
    code, out, err = run(capsys, "bound", "table", "--r-grid", "0.5", "--R-grid", "0,0.9", "--csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "r,R,thm31,ruscheweyh2,szasz,branch"
    assert len(lines) == 3

    code, rows = run_json(capsys, "bound", "table", "--r-grid", "0.5", "--R-grid", "0,0.9")
    assert code == 0
    assert [row["branch"] for row in rows] == ["deg2-zero", "deg1"]
    assert all(row["dominates"] for row in rows)


def test_extremal_emit_roundtrip(capsys):
    code, doc = run_json(
        capsys,
        "extremal", "emit",
        "--kind", "second-boundary",
        "--z0", "0.4,0", "--delta0", "0.2,0", "--delta1", "0.3,0", "--alpha", "1,0",
    )
    assert code == 0
    assert doc["kind"] == "second-boundary"
    g = function_from_json(json.dumps(doc["function"]))
    jet = eval_jet(g, 0.4 + 0j)
    assert isinstance(jet, Jet2)
    assert jet.f0 == pytest.approx(0.2 + 0j, abs=1e-12)


def test_extremal_verify_pass_and_fail(capsys):
    args = (
        "extremal", "verify",
        "--kind", "schwarz-pick",
        "--z0", "0.3,0", "--delta0", "0.1,0",
    )
    code, doc = run_json(capsys, *args, "--alpha", "1,0")
    assert code == 0
    assert doc["passed"] is True and doc["distance"] < 1e-12

    # interior alpha lands strictly inside the disk: verification fails
    code, doc = run_json(capsys, *args, "--alpha", "0.5,0")
    assert code == 1
    assert doc["passed"] is False


def test_extremal_verify_nan_tol_is_an_input_error(capsys):
    code, out, err = run(capsys, "extremal", "verify", "--kind", "szasz", "--z0", "0.5,0", "--tol", "nan")
    assert (code, out, err) == (2, "", "error: tol must be non-negative\n")


def test_an_infinite_tol_is_an_input_error(capsys):
    # it would pass every check
    for argv in (
        ("verify", "membership", "--samples", "5"),
        ("verify", "attainment", "--kinds", "szasz"),
        ("verify", "tightness", "--samples", "5", "--r", "0.5", "--R", "0.25"),
        ("extremal", "verify", "--kind", "schwarz-pick", "--z0", "0.3,0", "--delta0", "0.1,0", "--alpha", "0.5,0"),
    ):
        code, out, err = run(capsys, *argv, "--tol", "inf")
        assert (code, out, err) == (2, "", "error: tol must be finite, got inf\n")


def test_a_repeated_family_or_kind_is_an_input_error(capsys):
    for argv, what in (
        (("verify", "membership", "--families", "second,second", "--samples", "5"), "families, got second,second"),
        (("verify", "attainment", "--kinds", "szasz,szasz,sharp-deg1"), "kinds, got szasz,szasz,sharp-deg1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f" needs one or more distinct {what}\n")


def test_an_empty_family_or_kind_list_is_an_input_error(capsys):
    # an empty value selects nothing, as "," does; it never means "all"
    for argv, what in (
        (("verify", "membership", "--families", "", "--samples", "5"), "membership needs one or more distinct families"),
        (("verify", "attainment", "--kinds="), "attainment needs one or more distinct kinds"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {what}, got none\n")


def test_a_sharp_deg1_zero_rounded_onto_the_circle_is_an_input_error(capsys):
    # |a| = (r + R) / (1 + r R) rounds to 1 when r or R is an ulp below 1
    one = "0.9999999999999999"
    for argv in (
        ("bound", "thm31", "--r", "0.5", "--R", one, "--emit-function"),
        ("extremal", "verify", "--kind", "sharp-deg1", "--z0", f"{one},0", "--delta0", "0.5,0"),
        ("verify", "tightness", "--samples", "5", "--r", one, "--R", "0.5"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: sharp-deg1 zero a must lie in the open unit disk, |a| = 1.0\n"
    # the bound itself needs no tree
    code, doc = run_json(capsys, "bound", "thm31", "--r", "0.5", "--R", one)
    assert code == 0 and doc["branch"] == "deg1"


def test_extremal_theta_must_be_finite(capsys):
    code, out, err = run(
        capsys, "extremal", "emit", "--kind", "sharp-deg2", "--z0", "0.5,0", "--delta0", "0.25,0", "--theta", "inf"
    )
    assert (code, out) == (2, "")
    assert err == "error: theta must be a finite real number, got inf\n"


def test_extremal_verify_missing_parameter(capsys):
    code, out, err = run(capsys, "extremal", "verify", "--kind", "schwarz-pick", "--z0", "0.3,0")
    assert code == 2
    assert "requires parameter" in err


def test_extremal_rejects_parameters_the_kind_does_not_take(capsys):
    code, out, err = run(
        capsys, "extremal", "emit", "--kind", "szasz", "--z0", "0.5,0", "--alpha", "5,0", "--delta0", "0.9,0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "does not take parameter delta0" in err
    code, out, err = run(
        capsys, "extremal", "verify", "--kind", "schwarz-pick", "--z0", "0.3,0", "--delta0", "0.1,0",
        "--alpha", "1,0", "--theta", "0.5",
    )
    assert code == 2 and out == ""
    assert err == "error: schwarz-pick does not take parameter theta\n"


def test_malformed_complex_literal(capsys):
    code, out, err = run(capsys, "disk", "schwarz-pick", "--z0", "zebra", "--delta0", "0,0")
    assert code == 2
    assert "RE,IM" in err
    code, out, err = run(capsys, "disk", "second", "--z0=a,b", "--delta0=0,0", "--delta1=0,0")
    assert (code, out) == (2, "")
    assert "expected 're,im' with float parts, got 'a,b'" in err
    code, out, err = run(capsys, "bound", "table", "--r-grid=0.1,x")
    assert (code, out) == (2, "")
    assert "expected comma-separated floats, got '0.1,x'" in err


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "disk", "dieudonne", "--z0", "0.5,0", "--w0", "0.6,0")
    assert code == 2
    assert err.startswith("error:")
    assert "|w0| < |z0|" in err


@pytest.mark.parametrize(
    "kind, given",
    [
        ("dieudonne", ("--alpha", "1,0")),
        ("dieudonne2-degenerate", ("--delta1", "1,0")),
        ("dieudonne2-boundary", ("--delta1", "0.5,0", "--alpha", "1,0")),
    ],
)
@pytest.mark.parametrize("command", ["emit", "verify"])
def test_a_w0_beyond_z0_is_refused_in_the_kinds_name(capsys, kind, given, command):
    code, out, err = run(capsys, "extremal", command, "--kind", kind, "--z0", "0.5,0", "--w0", "0.6,0", *given)
    assert (code, out, err) == (2, "", f"error: {kind} requires |w0| < |z0|\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("disk second --z0=1.5e308,1.5e308 --delta0 0,0 --delta1 0,0", "z0 must lie in the open unit disk, |z0| = inf"),
        ("disk schwarz-pick --z0=0.1,0 --delta0=1.5e308,1.5e308", "delta0 must lie in the open unit disk, |delta0| = inf"),
        ("disk mercer --z0=0.5,0 --w0=0.1,0 --z=1.5e308,-1.5e308", "z must lie in the open unit disk, |z| = inf"),
        ("disk dieudonne --z0=0.5,0 --w0=1.5e308,1.5e308", "dieudonne_disk requires |w0| < |z0|"),
        ("bound thm31 --z0=1.5e308,1.5e308 --R 0.5", "r must be a finite real number, got inf"),
        ("bound szasz --z0=1.5e308,1.5e308", "r must be a finite real number, got inf"),
        (
            "extremal verify --kind schwarz-pick --z0=0.3,0 --delta0=0.1,0 --alpha=1.5e308,1.5e308",
            "alpha must lie in the closed unit disk, |alpha| = inf",
        ),
    ],
)
def test_a_finite_point_whose_modulus_overflows_is_an_input_error(capsys, argv, message):
    # x*x + y*y and CPython's abs() of these finite points overflow: each is
    # an input error with one line on stderr, never an OverflowError
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_membership_exit_zero(capsys):
    code, doc = run_json(capsys, "verify", "membership", "--samples", "60", "--seed", "3")
    assert code == 0
    assert doc["suite"] == "membership:second+dieudonne+mercer"
    assert doc["violations"] == 0


def test_verify_membership_families_subset(capsys):
    code, doc = run_json(
        capsys, "verify", "membership", "--samples", "40", "--families", "mercer"
    )
    assert code == 0
    assert doc["suite"] == "membership:mercer"


def test_verify_attainment_kinds_filter(capsys):
    code, doc = run_json(capsys, "verify", "attainment", "--kinds", "szasz")
    assert code == 0
    assert doc["details"]["kinds"] == ["szasz"]
    assert doc["violations"] == 0


def test_verify_attainment_takes_no_sampling_options(capsys):
    # the grids are fixed: --seed, --samples and --parallel would change nothing
    for option in (("--seed", "3"), ("--samples", "100"), ("--parallel",)):
        code, out, err = run(capsys, "verify", "attainment", "--kinds", "szasz", *option)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err


def test_tiny_z0_in_the_dieudonne_forms_is_an_input_error(capsys):
    for argv in (
        ("disk", "dieudonne", "--z0", "1e-200,0", "--w0", "0,0"),
        ("disk", "dieudonne2", "--z0", "1e-200,0", "--w0", "0,0", "--delta1", "0.5,0"),
        ("extremal", "verify", "--kind", "dieudonne2-boundary", "--z0", "1e-200,0", "--w0", "0,0",
         "--delta1", "0.5,0", "--alpha", "1,0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: dieudonne_disk requires") and err.count("\n") == 1


def test_a_z0_whose_modulus_rounds_to_one_is_refused_by_the_dieudonne_disk(capsys):
    # x*x + y*y < 1, so the validators accept z0, but |z0| rounds to 1 and
    # the radius divides by 1 - |z0|^2
    code, out, err = run(capsys, "disk", "dieudonne", "--z0=0.8827680124242574,-0.46980914874076907", "--w0=0.3,0")
    assert (code, out, err) == (2, "", "error: z0 must lie in the open unit disk\n")


def test_a_delta1_rounded_past_the_circle_gives_radius_zero(capsys):
    # |delta1| = 1 + 1e-13 is inside the closed disk's 1e-12 slack: 1 - |delta1|^2
    # is clamped at 0 rather than giving a negative radius
    delta1 = ("--delta1", "1.0000000000001,0")
    for argv in (
        ("disk", "second", "--z0", "0.3,0", "--delta0", "0.2,0", *delta1),
        ("disk", "dieudonne2", "--z0", "0.3,0", "--w0", "0.1,0", *delta1),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["radius"] == 0.0 and math.copysign(1.0, doc["radius"]) == 1.0
    argv = ("extremal", "verify", "--kind", "second-degenerate", "--z0", "0.3,0", "--delta0", "0.2,0", *delta1)
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["passed"]
    assert doc["target"].endswith(", radius=0.0)")


def test_verify_tol_must_be_positive(capsys):
    code, out, err = run(capsys, "verify", "tightness", "--r", "0.5", "--R", "0.25", "--tol", "0")
    assert (code, out, err) == (2, "", "error: tol must be positive\n")


def test_verify_tightness(capsys):
    code, doc = run_json(
        capsys, "verify", "tightness", "--samples", "200", "--r", "0.5", "--R", "0.25"
    )
    assert code == 0
    assert doc["details"]["gap"] <= 1e-6


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "disk.json"
    code, out, err = run(
        capsys,
        "disk", "dieudonne", "--z0", "0.5,0", "--w0", "0.25,0", "--out", str(path),
    )
    assert code == 0 and out == "" and err == ""
    assert json.loads(path.read_text()) == {"center": [0.5, 0.0], "radius": 0.5}


def test_out_to_a_directory_is_an_input_error(capsys, tmp_path):
    code, out, err = run(
        capsys, "disk", "dieudonne", "--z0", "0.5,0", "--w0", "0.25,0", "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_attainment_kind_is_an_input_error(capsys):
    code, out, err = run(capsys, "verify", "attainment", "--kinds", "nope")
    assert code == 2 and out == ""
    assert err == "error: unknown extremal kind 'nope'\n"


def test_non_integer_threads_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("THREADS", "abc")
    code, out, err = run(capsys, "verify", "membership", "--samples", "20", "--parallel")
    assert code == 2 and out == ""
    assert err == "error: THREADS must be an integer, got 'abc'\n"


def test_repeated_invocations_are_byte_identical(capsys):
    argv = ("verify", "membership", "--samples", "50", "--seed", "11")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "disk" in out and "bound" in out and "verify" in out


@pytest.mark.parametrize("action", ["emit", "verify"])
def test_extremal_help_lists_each_kind_with_its_parameters(capsys, action):
    code, out, err = run(capsys, "extremal", action, "--help")
    assert (code, err) == (0, "")
    lines = out.split("\n")
    for spec in KINDS.values():
        flags = [f"[--{name}]" if name in _DEFAULTS else f"--{name}" for name, _ in spec.data + spec.free]
        assert [line.split() for line in lines if line.split()[:1] == [spec.kind.value]] == [[spec.kind.value, *flags]]
    assert "[--theta]" in out and "theta defaults to 0.0" in out
