"""System file serialization and command-line interface tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

import sdedisc
from sdedisc import sysfile
from sdedisc.cli import main
from sdedisc.models import ContinuousModel
from sdedisc.modelgen import constant_velocity, EnsembleSpec, \
    gen_random_system
from sdedisc.sysfile import SystemFileError


# ---------------------------------------------------------------- sysfile


def test_round_trip_bit_exact():
    m = gen_random_system(EnsembleSpec(n=4, m=4, p=0, seed=2))
    text = sysfile.dumps(m, name="sample")
    back = sysfile.loads(text)
    assert np.array_equal(back.a, m.a)
    assert np.array_equal(back.s, m.s)


def test_round_trip_via_file(tmp_path):
    m = constant_velocity()
    path = tmp_path / "cv.txt"
    sysfile.write(path, m)
    back = sysfile.read(path)
    assert np.array_equal(back.a, m.a)
    assert np.array_equal(back.s, m.s)


def test_loads_rejects_asymmetric_noise():
    text = "n 2\na\n0 1\n0 0\ns\n1 0.5\n0 1\n"
    with pytest.raises(SystemFileError):
        sysfile.loads(text)


@pytest.mark.parametrize("text", [
    "",
    "n 0\na\ns\n",
    "n 2\na\n1 2\n3 4\n",                       # missing s block
    "n 2\na\n1 2\n3\ns\n1 0\n0 1\n",            # short row
    "n 2\na\n1 2\n3 x\ns\n1 0\n0 1\n",          # non-numeric
    "n 2\na\n1 2\n3 4\ns\n1 0\n0 1\nextra\n",   # trailing garbage
])
def test_loads_rejects_malformed(text):
    with pytest.raises(SystemFileError):
        sysfile.loads(text)


def test_comments_and_name_skipped():
    text = "# comment\nname thing\nn 1\na\n-1\ns\n2\n"
    m = sysfile.loads(text)
    assert m.a[0, 0] == -1.0 and m.s[0, 0] == 2.0


# -------------------------------------------------------------------- cli


@pytest.fixture()
def cv_file(tmp_path):
    path = tmp_path / "cv.txt"
    sysfile.write(path, constant_velocity(), name="constant-velocity")
    return str(path)


@pytest.fixture()
def scalar_file(tmp_path):
    path = tmp_path / "scalar.txt"
    sysfile.write(path, ContinuousModel(np.array([[-1.0]]),
                                        np.array([[2.0]])))
    return str(path)


def test_cli_discretize_golden(cv_file, capsys):
    assert main(["discretize", cv_file, "--t", "1",
                 "--method", "proposed"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    qi = lines.index("q")
    q = np.array([[float(v) for v in lines[qi + r].split()]
                  for r in (1, 2)])
    assert np.allclose(q, [[1.0 / 3.0, 0.5], [0.5, 1.0]], rtol=1e-12)
    assert "integrator_count 2" in out


def test_cli_discretize_zero_horizon(scalar_file, capsys):
    assert main(["discretize", scalar_file, "--t", "0"]) == 0
    out = capsys.readouterr().out
    assert "f\n1\nq\n0\n" in out


def test_cli_method_failure_exit_3(cv_file, capsys):
    assert main(["discretize", cv_file, "--t", "1",
                 "--method", "lyap-q"]) == 3
    err = capsys.readouterr().err
    assert "MethodNotApplicableError" in err


def test_cli_parse_failure_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(SystemExit) as exc:
        main(["discretize", missing, "--t", "1"])
    assert exc.value.code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("n 1\na\nhello\ns\n1\n")
    with pytest.raises(SystemExit) as exc:
        main(["discretize", str(bad), "--t", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    (["discretize", "{cv}", "--t", "-1"], "finite number >= 0"),
    (["discretize", "{cv}", "--t", "nan"], "finite number >= 0"),
    (["discretize", "{cv}", "--t", "inf"], "finite number >= 0"),
    (["discretize", "{cv}", "--t", "soon"], "finite number >= 0"),
    (["check", "{cv}", "--t", "-1"], "finite number >= 0"),
    (["check", "{cv}", "--t", "nan"], "finite number >= 0"),
    (["check", "{cv}", "--t", "inf"], "finite number >= 0"),
    (["bench", "--out", "{out}", "--runs", "0"], "runs must be >= 1"),
    (["bench", "--out", "{out}", "--n", "3", "--m", "4", "--p", "2"],
     "need n = m + p"),
    (["gen", "--out", "{out}", "--n", "3", "--m", "4", "--p", "2"],
     "need n = m + p"),
    (["gen", "--out", "{out}", "--seed", "-1"], "seed must be >= 0"),
    (["gen", "--out", "{out}", "--stream", "-1"], "stream must be >= 0"),
    (["bench", "--out", "{out}", "--seed", "-1"], "seed must be >= 0"),
    (["discretize", "{cv}", "--t", "1", "--method", "oracle", "--tol", "-1"],
     "finite number > 0"),
    (["discretize", "{cv}", "--t", "1", "--method", "oracle", "--tol", "0"],
     "finite number > 0"),
    (["discretize", "{cv}", "--t", "1", "--method", "oracle", "--tol", "nan"],
     "finite number > 0"),
    (["check", "{cv}", "--t", "1", "--tol", "nan"], "finite number > 0"),
    (["check", "{cv}", "--t", "1", "--tol", "inf"], "finite number > 0"),
    (["bench", "--out", "{out}", "--tol", "-1"], "finite number > 0"),
    (["bench", "--out", "{out}", "--tol", "tight"], "finite number > 0"),
])
def test_cli_bad_arguments_exit_2(args, message, cv_file, tmp_path, capsys):
    args = [a.format(cv=cv_file, out=str(tmp_path / "run")) for a in args]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.glob("run*")) == []


def test_cli_check_scalar_all_ok(scalar_file, capsys):
    assert main(["check", scalar_file, "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("method,lemma2_residual,semigroup_residual,status")
    assert "naive-b" in out and "informational" in out


def test_cli_check_mixed_marks_not_applicable(cv_file, capsys):
    assert main(["check", cv_file, "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "lyap-q,,,not-applicable" in out
    assert "proposed" in out and "vanloan" in out


def test_cli_gen_fixture_and_discretize(tmp_path, capsys):
    out_path = str(tmp_path / "gen.txt")
    assert main(["gen", "--fixture", "constant-velocity",
                 "--out", out_path]) == 0
    m = sysfile.read(out_path)
    assert np.array_equal(m.a, constant_velocity().a)


def test_cli_gen_ensemble_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    args = ["gen", "--n", "4", "--m", "3", "--p", "1", "--seed", "7"]
    assert main(args + ["--out", p1]) == 0
    assert main(args + ["--out", p2]) == 0
    assert open(p1).read() == open(p2).read()


def test_cli_bench_writes_csvs(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    assert main(["bench", "--out", prefix, "--runs", "2",
                 "--n", "3", "--m", "3", "--p", "0"]) == 0
    records = open(prefix + "_records.csv").read()
    summary = open(prefix + "_summary.csv").read()
    assert records.splitlines()[0] == "system_id,method,t,epsilon,status"
    assert summary.splitlines()[0] == "method,t,median_eps,q1,q3,fail_rate"
    assert len(records.splitlines()) == 1 + 2 * 20 * 2
    out = capsys.readouterr().out
    assert "t=100" in out


def test_cli_width_flags(scalar_file, capsys):
    assert main(["discretize", scalar_file, "--t", "1", "--f32"]) == 0
    out32 = capsys.readouterr().out
    assert main(["discretize", scalar_file, "--t", "1", "--f64"]) == 0
    out64 = capsys.readouterr().out
    q32 = float(out32.splitlines()[3])
    q64 = float(out64.splitlines()[3])
    assert q32 == pytest.approx(q64, rel=1e-5)
    assert q32 != q64  # binary32 rounding is visible at 17 digits


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: importing the package and its CLI
    # must not pull it in
    src = os.path.dirname(os.path.dirname(sdedisc.__file__))
    code = ("import sys, sdedisc, sdedisc.cli; "
            "print('scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
