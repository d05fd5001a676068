import argparse
import errno
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rgpert import cli, mathieu, numeric
from rgpert import potential as potential_mod
from rgpert.cli import build_parser, main
from rgpert.registry import EXAMPLES

from conftest import in_a_child


ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden"
TWO_PERIODS = "12.566370614359172"       # repr(4 * math.pi)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_examples_listing(capsys):
    code, out = run(capsys, "examples")
    assert code == 0
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names == ["duffing", "mathieu", "nonauto", "rayleigh", "vdp"]


@pytest.mark.parametrize("name,argv", [
    ("vdp_expand_order3.txt",
     ["expand", "--example", "vdp", "--order", "3"]),
    ("vdp_polar_order8.txt",
     ["polar", "--example", "vdp", "--order", "8"]),
    ("vdp_limit_cycle_order7.txt",
     ["limit-cycle", "--example", "vdp", "--order", "7"]),
    ("duffing_polar_order5.txt",
     ["polar", "--example", "duffing", "--bind", "g=1", "--order", "5"]),
    ("rayleigh_polar_order6.txt",
     ["polar", "--example", "rayleigh", "--order", "6"]),
    ("nonauto_polar_order4.txt",
     ["polar", "--example", "nonauto", "--order", "4"]),
    ("nonauto_rg_order4.txt",
     ["rg", "--example", "nonauto", "--order", "4"]),
    ("mathieu_order5.txt",
     ["mathieu", "--order", "5"]),
    ("mathieu_crosscheck_order5_N40.txt",
     ["mathieu", "--order", "5", "--crosscheck",
      "eps=" + ":".join(f"{0.01 * i:.2f}" for i in range(1, 51)) + ",N=40"]),
    # two periods, 401 rows: every float of the RK4 kernels, the
    # expansion and the CSV writer
    ("nonauto_compare_order4.csv",
     ["compare", "--example", "nonauto", "--order", "4", "--eps", "0.25",
      "--R0", "0.2", "--theta0", "-0.1", "--rg-order", "2",
      "--tmax", TWO_PERIODS]),
    ("vdp_flow_order4.csv",
     ["simulate", "--example", "vdp", "--order", "4", "--eps", "0.1",
      "--R0", "0.5", "--theta0", "0", "--rg-order", "4",
      "--tmax", TWO_PERIODS]),
    ("vdp_ode.csv",
     ["simulate", "--example", "vdp", "--eps", "0.1", "--y0", "2",
      "--dy0", "0", "--tmax", TWO_PERIODS]),
])
def test_golden_outputs(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


# the orders of CI's high-order smoke step, which compares the same files
@pytest.mark.parametrize("name,argv", [
    ("vdp_limit_cycle_order19.txt",
     ["limit-cycle", "--example", "vdp", "--order", "19"]),
    ("vdp_polar_order19.txt",
     ["polar", "--example", "vdp", "--order", "19"]),
    ("mathieu_order13.txt",
     ["mathieu", "--order", "13"]),
    ("rayleigh_polar_order11.txt",
     ["polar", "--example", "rayleigh", "--order", "11"]),
    ("mathieu_order19.txt",
     ["mathieu", "--order", "19"]),
])
def test_high_order_golden_outputs(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_high_order_expand_digest(capsys):
    # 227 KB and 172 KB of stdout, each kept as the line of `sha256sum`
    # over it; nonauto transports the flow on a z-dependent potential
    for name in ("vdp", "nonauto"):
        code, out = run(capsys, "expand", "--example", name, "--order", "12")
        assert code == 0
        want = (GOLDEN / f"{name}_expand_order12.sha256").read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == want.split()[0]


def test_high_order_mathieu_digest(capsys):
    # 1.04 MB of stdout, kept as the line of `sha256sum` over it
    code, out = run(capsys, "mathieu", "--order", "25")
    assert code == 0
    want = (GOLDEN / "mathieu_order25.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_high_order_limit_cycle_digest(capsys):
    # the line of `sha256sum` over the stdout, checked once against
    # oracles.poincare_lindstedt at K = 40
    code, out = run(capsys, "limit-cycle", "--example", "vdp", "--order",
                    "40")
    assert code == 0
    want = (GOLDEN / "vdp_limit_cycle_order40.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == want


#: repr(400 * math.pi): 200 periods, 40,001 rows, the benchmark's size
TWO_HUNDRED_PERIODS = "1256.6370614359173"


#: the benchmark's headline compare and the direct ODE of van der Pol
COMPARE_200 = ["compare", "--example", "nonauto", "--order", "4", "--eps",
               "0.25", "--R0", "0.2", "--theta0", "-0.1", "--rg-order", "2",
               "--tmax", TWO_HUNDRED_PERIODS]
SIMULATE_200 = ["simulate", "--example", "vdp", "--eps", "0.1", "--y0", "2",
                "--dy0", "0", "--tmax", TWO_HUNDRED_PERIODS]
COMPARE_200_DIGEST = "nonauto_compare_order4_200periods.sha256"
#: the benchmark's other two long runs: the van der Pol amplitude flow at
#: 200 periods and its compare at 100 periods
FLOW_200 = ["simulate", "--example", "vdp", "--order", "4", "--eps", "0.1",
            "--R0", "0.5", "--theta0", "0", "--rg-order", "4", "--tmax",
            TWO_HUNDRED_PERIODS]
COMPARE_VDP_100 = ["compare", "--example", "vdp", "--order", "4", "--eps",
                   "0.1", "--R0", "1", "--theta0", "0", "--rg-order", "4",
                   "--expansion-order", "4", "--tmax", "628.3185307179587"]


@pytest.mark.parametrize("name,argv", [
    # 2.4, 2.3, 2.3 and 1.6 MB of CSV, each kept as the line of `sha256sum`
    (COMPARE_200_DIGEST, COMPARE_200),
    ("vdp_ode_200periods.sha256", SIMULATE_200),
    ("vdp_flow_order4_200periods.sha256", FLOW_200),
    ("vdp_compare_order4_100periods.sha256", COMPARE_VDP_100),
])
@pytest.mark.parametrize("to_file", [False, True])
def test_long_csv_digest(capsys, tmp_path, name, argv, to_file):
    want = (GOLDEN / name).read_text().split()[0]
    out_file = tmp_path / "out.csv"
    code, out = run(capsys, *argv, *(["--out", str(out_file)] if to_file
                                     else []))
    assert code == 0
    text = out_file.read_bytes() if to_file else out.encode()
    assert hashlib.sha256(text).hexdigest() == want


def _compare_200_digest(capfd):
    """sha256 of the headline compare's stdout through main, after
    checking that only its metrics went to stderr."""
    code = main(COMPARE_200)
    out, err = capfd.readouterr()
    assert code == 0
    assert err.startswith("# max_abs_diff = ") and err.count("\n") == 2
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("cpus,children", [({0, 1}, 1), ({0}, 0)],
                         ids=["two cpus", "one cpu"])
def test_compare_bytes_do_not_depend_on_the_path(forks, monkeypatch, capfd,
                                                 cpus, children):
    # two CPUs: the direct ODE, then CSV chunks as the flow makes them, in
    # one forked helper
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    want = (GOLDEN / COMPARE_200_DIGEST).read_text().split()[0]
    assert _compare_200_digest(capfd) == want
    assert len(forks) == children


def _memory_error():
    raise MemoryError


def test_failed_ode_child_gives_the_same_csv(forks, monkeypatch, capfd):
    monkeypatch.setattr(numeric, "integrate_ode", in_a_child(
        numeric.integrate_ode, _memory_error))
    want = (GOLDEN / COMPARE_200_DIGEST).read_text().split()[0]
    assert _compare_200_digest(capfd) == want
    assert len(forks) == 1


def test_interrupted_compare_reaps_the_ode_child(forks, monkeypatch, capfd):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(numeric, "_signal", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(COMPARE_200)
    assert len(forks) == 1
    assert capfd.readouterr() == ("", "")


#: a potential with complex coefficients: its flow prints (a+b*i),
#: (a-b*i), b*i and -b*i terms, which no real example reaches
COMPLEX_FLOW = "(1/2+i)*y^2*y' - i*y^3 + y'*cos(2t)"


@pytest.mark.parametrize("name,fmt", [("complex_rg_order3.txt", "text"),
                                      ("complex_rg_order3.json", "json")])
def test_complex_coefficient_golden(capsys, name, fmt):
    code, out = run(capsys, "rg", "--potential", COMPLEX_FLOW, "--order",
                    "3", "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name,argv", [
    # 289 KB and 244 KB of JSON, each kept as the line of `sha256sum`
    ("mathieu_order13_json.sha256", ["mathieu", "--order", "13"]),
    ("vdp_expand_order8_json.sha256",
     ["expand", "--example", "vdp", "--order", "8"]),
])
def test_json_digest(capsys, name, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    want = (GOLDEN / name).read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_expand_json(capsys):
    code, out = run(capsys, "expand", "--example", "vdp", "--order", "2",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert "1" in data["table"] and "-1" in data["table"]


def test_polar_json(capsys):
    code, out = run(capsys, "polar", "--example", "vdp", "--order", "3",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"d log R/dt", "d theta/dt"}


def test_inline_potential_with_params(capsys):
    code, out = run(capsys, "polar", "--potential", "-y' - g*y^3",
                    "--params", "g", "--bind", "g=1", "--order", "2")
    assert code == 0
    assert "d log R/dt" in out


def test_bind_to_a_trivial_potential_is_an_error(capsys):
    # duffing at g = 0 is -y', outside the class: --bind says so as the
    # parser does, with exit 1 and the same message
    errs = []
    for source in (["--example", "duffing", "--bind", "g=0"],
                   ["--potential=-y'-g*y^3", "--params", "g", "--bind",
                    "g=0"],
                   ["--potential=-y'"]):
        assert main(["polar", *source, "--order", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs == ["error: potential reduces to the removable "
                    "linear/driving form\n"] * 3


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "--example", "rayleigh", "--order", "3")
    assert code == 0
    assert out.count("pass") == 4


def test_verify_at_printed_order(capsys):
    # the identity checks reach the orders the golden polar output prints
    start = time.perf_counter()
    code, out = run(capsys, "verify", "--example", "vdp", "--order", "8")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.splitlines() == [
        f"{name} @K=8: pass" for name in
        ("functional_relation", "inversion", "residual", "secular_free")]
    assert elapsed < 10.0


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["expand"])            # no potential given
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


SIM_ODE = ["simulate", "--example", "vdp", "--eps", "0.1", "--y0", "1",
           "--dy0", "0"]
SIM_FLOW = ["simulate", "--example", "vdp", "--order", "2", "--eps", "0.1",
            "--R0", "1", "--theta0", "0"]
COMPARE = ["compare", "--example", "vdp", "--order", "2", "--eps", "0.1",
           "--R0", "1", "--theta0", "0"]
MATHIEU_CROSSCHECK = ["mathieu", "--order", "3", "--crosscheck",
                      "eps=0.1,N=6"]


@pytest.mark.parametrize("argv", [
    ["polar", "--example", "duffing", "--bind", "g=abc"],
    ["polar", "--example", "duffing", "--bind", "g=1/0"],
    ["polar", "--example", "duffing", "--bind", "h=1"],
    ["expand", "--example", "vdp", "--order", "-1"],
    ["mathieu", "--order", "-1"],
    ["rg", "--example", "vdp", "--format", "csv"],
    ["rg", "--example", "vdp", "--format", "table"],
    ["polar", "--example", "duffing", "--bind", "g"],
    ["simulate", "--example", "duffing", "--eps", "0.1", "--y0", "1",
     "--dy0", "0"],
    ["simulate", "--example", "vdp", "--eps", "0.1"],
    ["compare", "--example", "vdp", "--eps", "0.1", "--theta0", "0"],
    SIM_FLOW + ["--rg-order", "-1"],
    SIM_FLOW + ["--rg-order", "3"],
    ["compare", "--example", "vdp", "--order", "2", "--eps", "0.1",
     "--R0", "1", "--theta0", "0", "--expansion-order", "3"],
    COMPARE + ["--expansion-order", "-2"],
    SIM_ODE + ["--dt", "0"],
    SIM_ODE + ["--dt", "-0.1"],
    SIM_ODE + ["--dt", "nan"],
    SIM_ODE + ["--dt", "inf"],
    SIM_ODE + ["--tmax", "-1"],
    SIM_ODE + ["--tmax", "inf"],
    SIM_ODE + ["--tmax", "nan"],
    ["polar", "--example", "vdp", "--params", "a,b"],
    ["polar", "--example", "duffing", "--bind", "g=1", "--bind", "g=2"],
    ["compare", "--example", "vdp", "--order", "2", "--eps", "0.1",
     "--R0", "1", "--theta0", "0", "--tmax", "1",
     "--out", str(GOLDEN / "mathieu_order5.txt" / "x.csv")],
    SIM_ODE + ["--tmax", "1", "--out", str(GOLDEN)],
    COMPARE + ["--y0", "5"],
    COMPARE + ["--dy0", "7"],
    SIM_FLOW + ["--rg-order", "2", "--y0", "5"],
    SIM_ODE + ["--R0", "3", "--theta0", "0"],
    SIM_ODE + ["--format", "json"],
    COMPARE + ["--format", "text"],
    SIM_FLOW + ["--expansion-order", "1"],
    SIM_ODE + ["--order", "3"],
    SIM_ODE + ["--rg-order", "1"],
    MATHIEU_CROSSCHECK + ["--format", "json"],
], ids=["bind-not-rational", "bind-zero-denominator", "bind-undeclared",
        "negative-order", "mathieu-negative-order", "format-csv",
        "format-table", "bind-malformed", "numerics-unbound-parameter",
        "simulate-no-state", "compare-no-R0", "rg-order-negative",
        "rg-order-above-order", "expansion-order-above-order",
        "expansion-order-negative", "dt-zero", "dt-negative", "dt-nan",
        "dt-inf", "tmax-negative", "tmax-inf", "tmax-nan",
        "params-with-example", "bind-repeated", "out-under-a-file",
        "out-is-a-directory", "compare-y0-without-dy0",
        "compare-dy0-without-y0", "simulate-flow-with-y0",
        "simulate-both-starts", "simulate-format", "compare-format",
        "simulate-expansion-order", "simulate-direct-order",
        "simulate-direct-rg-order", "mathieu-crosscheck-format-json"])
def test_bad_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["polar", "--example", "vdp", "--params", "a,b"],
     "--params applies only to --potential"),
    (["polar", "--example", "duffing", "--bind", "g=1", "--bind", "g=2"],
     "--bind g: given more than once"),
    (COMPARE + ["--y0", "5"], "--y0 needs --dy0"),
    (COMPARE + ["--dy0", "7"], "--dy0 needs --y0"),
    (SIM_FLOW + ["--y0", "5"], "--y0 needs --dy0"),
    (SIM_ODE + ["--R0", "3", "--theta0", "0"],
     "simulate takes --y0/--dy0 (direct) or --R0/--theta0 (amplitude "
     "flow), not both"),
    (SIM_ODE + ["--order", "3"],
     "--order applies only to the amplitude flow (--R0/--theta0)"),
    (SIM_ODE + ["--rg-order", "1"],
     "--rg-order applies only to the amplitude flow (--R0/--theta0)"),
    (MATHIEU_CROSSCHECK + ["--format", "json"],
     "--format json does not apply to --crosscheck, which prints CSV"),
])
def test_ignored_input_is_named(capsys, argv, message):
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("command,out,strerror", [
    ("compare", GOLDEN / "mathieu_order5.txt" / "x.csv", "Not a directory"),
    ("simulate", GOLDEN, "Is a directory"),
], ids=["under-a-file", "a-directory"])
def test_unwritable_out_is_named(capsys, command, out, strerror):
    with pytest.raises(SystemExit):
        main([command, "--example", "vdp", "--order", "2", "--eps", "0.1",
              "--R0", "1", "--theta0", "0", "--tmax", "1", "--out", str(out)])
    assert capsys.readouterr().err.endswith(
        f"error: --out {out}: {strerror}\n")


@pytest.mark.parametrize("argv", [
    COMPARE + ["--y0", "5"],
    SIM_ODE + ["--R0", "3", "--theta0", "0"],
], ids=["compare-y0-without-dy0", "simulate-both-starts"])
def test_dropped_start_fails_before_out_is_opened(capsys, tmp_path, argv):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    SIM_ODE + ["--tmax", "6000"],
    SIM_FLOW + ["--tmax", "6000"],
    ["compare", "--example", "vdp", "--order", "2", "--eps", "0.1",
     "--R0", "1", "--theta0", "0", "--tmax", "6000"],
], ids=["simulate-direct", "simulate-flow", "compare"])
def test_unwritable_out_fails_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(numeric, "integrate_ode", no_work)
    monkeypatch.setattr(numeric, "integrate_rg", no_work)
    monkeypatch.setattr(cli, "normal_form", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(GOLDEN)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: --out {GOLDEN}: Is a directory\n")


@pytest.mark.parametrize("argv", [
    ["rg", "--potential", "y'", "--bind=--"],
    ["polar", "--potential", "y'", "--params=--"],
    ["expand", "--example", "vdp", "--order=--"],
    SIM_ODE + ["--tmax=--"],
    COMPARE + ["--eps=--"],
    ["mathieu", "--crosscheck=--"],
])
def test_option_given_dashes_is_a_usage_error(capsys, argv):
    # argparse would store an empty list as the value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    name = argv[-1].partition("=")[0]
    assert capsys.readouterr().err.endswith(
        f"error: argument {name}: expected one argument\n")


DEV_FULL = pathlib.Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(),
                                    reason="no /dev/full on this system")
NO_SPACE = os.strerror(errno.ENOSPC)


@needs_dev_full
@pytest.mark.parametrize("argv", [SIM_ODE, COMPARE],
                         ids=["simulate", "compare"])
def test_out_failing_past_its_first_buffer_is_a_usage_error(capsys, argv):
    # 4,001 rows: the write fails in write_csv, not in the last flush
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tmax", "200", "--out", str(DEV_FULL)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: --out {DEV_FULL}: {NO_SPACE}\n")


def test_zero_denominator_exit_1(capsys):
    assert main(["polar", "--potential", "1/0*y'"]) == 1
    assert "zero denominator" in capsys.readouterr().err


def test_no_polar_form_names_where(capsys):
    # resonant forcing gives the flow a term with no amplitude factor:
    # the Cartesian flow exists, its polar form does not
    forced = ["--potential", "y^3 + cos(1t)", "--order", "2"]
    assert main(["polar", *forced]) == 1
    assert capsys.readouterr().err == (
        "error: dAr/dt has the term -1/4*i with no Ar or Br at eps^1: no "
        "polar form\n")
    assert main(["rg", *forced]) == 0


SIM_ARGS = {"--eps": "0.1", "--y0": "1", "--dy0": "0", "--R0": "1",
            "--theta0": "0"}


@pytest.mark.parametrize("command,option", [
    ("simulate", "--eps"), ("simulate", "--y0"), ("simulate", "--dy0"),
    ("simulate", "--R0"), ("simulate", "--theta0"), ("compare", "--eps"),
    ("compare", "--R0"), ("compare", "--theta0")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_is_a_usage_error(capsys, command, option, value):
    # the ODE start (y0, dy0) or the flow start (R0, theta0), not both
    start = (("--y0", "--dy0") if option in ("--y0", "--dy0")
             else ("--R0", "--theta0"))
    argv = [command, "--example", "vdp", "--order", "2", "--tmax", "1"]
    for name in ("--eps",) + start:
        argv.append(f"{name}={value if name == option else SIM_ARGS[name]}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: expected a finite number" in \
        capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ("eps=0.1,N=0", "N must be >= 3"),
    ("eps=0.1,N=-3", "N must be >= 3"),
    ("eps=0.1,N=2", "N must be >= 3"),
    ("eps=nan,N=12", "must be finite"),
    ("eps=0.05:inf,N=12", "must be finite"),
    ("eps=-inf,N=12", "must be finite"),
    ("eps=0.1,eps=0.2,N=6", "--crosscheck eps: given more than once"),
    ("eps=0.1,N=6,N=7", "--crosscheck N: given more than once"),
])
def test_mathieu_crosscheck_bad_values_are_usage_errors(capsys, spec,
                                                         message):
    with pytest.raises(SystemExit) as exc:
        main(["mathieu", "--order", "3", "--crosscheck", spec])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec,key", [
    ("eps=0.1,n=40", "'n'"),
    ("eps=0.1,N=12,grid=10", "'grid'"),
    ("eps=0.1,12", "'12'"),
])
def test_mathieu_crosscheck_unknown_key_is_a_usage_error(capsys, spec, key):
    with pytest.raises(SystemExit) as exc:
        main(["mathieu", "--order", "3", "--crosscheck", spec])
    assert exc.value.code == 2
    assert f"unknown key {key}" in capsys.readouterr().err


def test_mathieu_crosscheck_order_budget(capsys, monkeypatch):
    def no_determinant(*args):
        raise AssertionError("determinant evaluated")

    monkeypatch.setattr(mathieu, "hill_determinant", no_determinant)
    code = main(["mathieu", "--order", "3", "--crosscheck",
                 f"eps=0.1,N={mathieu.MAX_HILL_N + 1}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "budget" in captured.err


def test_mathieu_crosscheck_overflowing_eps_exit_1(capsys):
    code = main(["mathieu", "--order", "3", "--crosscheck",
                 "eps=0.1:1e200,N=40"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "overflows a float at eps = 1e+200" in captured.err


def test_mathieu_crosscheck_order_budget_before_the_analysis(capsys,
                                                            monkeypatch):
    def no_analysis(*args):
        raise AssertionError("symbolic analysis ran")

    monkeypatch.setattr(mathieu, "analyze", no_analysis)
    code = main(["mathieu", "--order", "11", "--crosscheck",
                 "eps=0.1,N=2000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "budget" in captured.err


def test_mathieu_crosscheck_non_finite_determinant_exit_1(capsys):
    # e2 = 1e100 overflows the recurrence: nan at all 401 grid points
    code = main(["mathieu", "--order", "5", "--crosscheck", "eps=1e50,N=40"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not finite anywhere in (0.5, 1.5) at eps = 1e+50" in captured.err


@pytest.mark.parametrize("order", ["0", "2"])
def test_mathieu_crosscheck_below_the_band_edges_exit_1(capsys, monkeypatch,
                                                        order):
    # below order 3 the series has one branch '0', which has no Hill
    # determinant; it is refused before any determinant is evaluated
    def no_determinant(*args):
        raise AssertionError("determinant evaluated")

    monkeypatch.setattr(mathieu, "hill_determinant", no_determinant)
    code = main(["mathieu", "--order", order, "--crosscheck", "eps=0.1,N=12"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: the crosscheck needs the band edges + "
                            "and -, got the branches ['0']\n")
    # no '+' branch at order 1: the header alone
    code, out = run(capsys, "mathieu", "--order", "1", "--branch", "+",
                    "--crosscheck", "eps=0.1,N=12")
    assert code == 0
    assert out == "eps,branch,a_series,a_determinant,deviation\n"


@pytest.mark.parametrize("argv,header", [
    (["--example", "vdp", "--order", "4", "--R0", "0.5", "--theta0", "0",
      "--rg-order", "2"], "t,R,theta"),
    (["--potential=y'-y^3+eps^2*y^3", "--y0", "1", "--dy0", "0"], "t,y,dy"),
], ids=["flow", "ode"])
def test_simulate_overflowing_eps_power_is_truncated(capsys, argv, header):
    # eps^2 = 1e400 overflows a float: its coefficient is inf, and the
    # first step turns nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--eps", "1e200", "--tmax", "1", *argv])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == header
    assert captured.out.splitlines()[-1] == "0.031415926535897934,nan,nan"
    assert captured.err == "# trajectory diverged and was truncated\n"


def test_compare_overflowing_eps_power_exit_1(capsys):
    code = main(["compare", "--example", "vdp", "--order", "4", "--eps",
                 "1e200", "--R0", "0.5", "--theta0", "0", "--rg-order", "2",
                 "--tmax", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(
        "error: the amplitude flow diverged at t = 0.031415926535897934")


@pytest.mark.parametrize("R0", ["1e200", "-1e120"])
def test_compare_huge_amplitude_reports_the_flow(capsys, R0):
    # the start of the direct ODE, computed before the flow, overflows a
    # complex power: not an OverflowError, and the flow is named first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compare", "--example", "vdp", "--order", "2",
                     "--eps", "0.1", "--R0", R0, "--theta0", "0.5",
                     "--tmax", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(
        "error: the amplitude flow diverged at t = 0.031415926535897934")


@pytest.mark.parametrize("potential,message", [
    ("y^100000", "exponent bound"),
    ("y^400*y'", "degree 401"),
    # a power whose constant would have 983 million bits, refused before
    # it is built
    ("(2^32767)^30000*y^3", "budget of 1048576 bits (at position 10)"),
])
def test_symbolic_budgets_exit_1_before_solving(capsys, monkeypatch,
                                                potential, message):
    def no_composition(*args):
        raise AssertionError("V(y) composed")

    monkeypatch.setattr(potential_mod, "Composition", no_composition)
    code = main(["polar", "--potential", potential, "--order", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "budget" in captured.err and message in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["polar", "--potential", "2^20000*y^3"],
    ["polar", "--example", "duffing", "--bind", "g=1e4300"],
], ids=["literal", "bind"])
def test_too_long_to_print_exit_1(capsys, argv, fmt):
    # a coefficient past the interpreter's int-to-str limit: a budget
    # error, and no line of the output before it; g = 10^4300 is within
    # the limit for --bind, its 4,301 digits are not for printing
    code = main(argv + ["--order", "1", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: an exact number of ")
    assert captured.err.endswith(" digits exceeds the interpreter's limit "
                                 "of 4300 digits for printing an integer\n")


def test_too_long_to_parse_exit_1(capsys):
    code = main(["polar", "--potential", "E(" + "1" * 5000 + ")*y^3"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: a number of 5000 digits exceeds the interpreter's limit of "
        "4300 digits (at position 2)\n")


@pytest.mark.parametrize("potential,err", [
    ("y^2^3*y'", "trailing input '^' (at position 3)"),
    ("cos(1x)*y", "expected 't' inside cos(..)/sin(..) (at position 5)"),
])
def test_parse_error_exit_1(capsys, potential, err):
    code = main(["polar", "--potential", potential])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("value", ["1e100000", "-2.5E-0004301",
                                   "1" * 4301 + "/3", "1_0e+99_999"],
                         ids=["exponent", "negative-exponent", "digits",
                              "underscores"])
def test_bind_past_the_digit_limit_is_a_usage_error(capsys, value):
    # refused before Fraction computes 10^exponent, whose time grows with
    # it: 1e100000 alone takes milliseconds, 1e999999999 would take hours
    with pytest.raises(SystemExit) as exc:
        main(["polar", "--example", "duffing", "--bind", f"g={value}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: --bind g: the value has more digits, or an exponent larger, "
        "than the interpreter's limit of 4300 digits\n")


DIVERGING = [
    (["--R0", "2", "--theta0", "0", "--rg-order", "2"], "amplitude flow"),
    (["--R0", "0.1", "--theta0", "0", "--rg-order", "0", "--y0", "30",
      "--dy0", "0"], "direct ODE"),
]


@pytest.mark.parametrize("argv,name", DIVERGING, ids=["flow", "ode"])
def test_compare_diverging_trajectory_exit_1(capsys, argv, name):
    # the truncated trajectory is named, with no numpy warning from
    # evaluating the expansion on non-finite amplitudes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compare", "--potential", "y'^3", "--eps", "1",
                     "--order", "2", "--tmax", "50", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: the {name} diverged at t = ")


@pytest.mark.parametrize("argv,name", DIVERGING, ids=["flow", "ode"])
def test_diverging_compare_reaps_the_ode_child(forks, capsys, argv, name):
    # 300 is 9,549 steps, so the direct ODE runs in a child: killed when
    # the flow diverges first, read when it diverges itself
    code = main(["compare", "--potential", "y'^3", "--eps", "1",
                 "--order", "2", "--tmax", "300", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: the {name} diverged at t = ")
    assert len(forks) == 1


#: a flow that stays in its box while R^39 of the order-19 expansion
#: overflows a float, and a direct ODE that diverges
OVERFLOWING_EXPANSION = ["compare", "--example", "vdp", "--order", "19",
                         "--expansion-order", "19", "--rg-order", "1",
                         "--eps", "1e-300", "--R0", "9.9e7", "--theta0", "0"]


@pytest.mark.parametrize("argv,residue,message", [
    # the flow first, whatever else fails
    (DIVERGING[0][0] + ["--y0", "30", "--dy0", "0"], True,
     "the amplitude flow diverged"),
    # then the reconstructed signal: not finite, or not real
    (OVERFLOWING_EXPANSION, False, "the reconstructed signal overflows"),
    (DIVERGING[1][0], True, "imaginary residue"),
    # then the direct ODE
    (DIVERGING[1][0], False, "the direct ODE diverged"),
], ids=["flow", "not finite", "not real", "ode"])
def test_compare_error_precedence(forks, monkeypatch, capsys, tmp_path,
                                  argv, residue, message):
    # 300 is 9,549 steps, so the helper runs; with ``residue`` every
    # signal counts as not real.  Nothing reaches --out.
    if residue:
        monkeypatch.setattr(numeric, "IMAG_TOL_EXPANSION", -1.0)
    if argv[1] != "--example":
        argv = ["compare", "--potential", "y'^3", "--eps", "1", "--order",
                "2", *argv]
    out_file = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--tmax", "300", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert out_file.read_text() == ""
    assert len(forks) == 1


@pytest.mark.parametrize("argv,k", [
    (["simulate", "--potential", "2^1100*y^3 + y'", "--eps", "1e-300",
      "--y0", "1", "--dy0", "0"], 0),
    (["compare", "--potential", "2^1100*y^3 - y'", "--order", "1", "--eps",
      "0.1", "--R0", "1", "--theta0", "0"], 1),
], ids=["simulate", "compare"])
def test_coefficient_past_a_float_exit_1(capsys, tmp_path, argv, k):
    # 2^1100 is exact, but no float holds it: simulate compiles V at
    # eps-order 0, compare the amplitude equations at eps-order 1
    out_file = tmp_path / "out.csv"
    code = main([*argv, "--tmax", "1", "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"error: a coefficient at eps-order {k} "
                            "overflows a float\n")
    assert out_file.read_text() == ""


def test_overflowing_expansion_warns_nothing():
    # the typed error alone on stderr: no numpy RuntimeWarning before it
    proc = subprocess.run(
        [sys.executable, "-m", "rgpert.cli", *OVERFLOWING_EXPANSION,
         "--tmax", "1"], env=_src_env(), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: the reconstructed signal overflows a "
                           "float at t = 0.0\n")


@pytest.mark.parametrize("text,name", [
    ("(A - y^2)*y'", "A"),              # would be read as the amplitude A
    ("(1 - y^2)*y' + eps*y^3", "eps"),  # would be read as the eps order
], ids=["A", "eps"])
def test_reserved_parameter_name_exit_1(capsys, text, name):
    code = main(["rg", "--potential", text, "--params", name,
                 "--order", "2"])
    assert code == 1
    assert "reserved" in capsys.readouterr().err


def test_unbound_parameter_in_the_radial_equation_is_named(capsys):
    code = main(["limit-cycle", "--potential", "(a - y^2)*y'",
                 "--params", "a", "--order", "2"])
    assert code == 1
    assert "other than R: a" in capsys.readouterr().err
    code, out = run(capsys, "limit-cycle", "--potential", "(a - y^2)*y'",
                    "--params", "a", "--bind", "a=4", "--order", "2")
    assert code == 0
    assert out.splitlines()[0] == "R_c = 2"


def test_u_is_a_parameter_name(capsys):
    def limit_cycle(name):
        return run(capsys, "limit-cycle", "--potential",
                   f"({name} - y^2)*y'", "--params", name,
                   "--bind", f"{name}=4", "--order", "3")
    code, out = limit_cycle("u")
    assert code == 0
    assert (code, out) == limit_cycle("a")


def test_domain_error_exit_1(capsys):
    # Duffing has no limit cycle: the failure is reported, not raised
    code = main(["limit-cycle", "--example", "duffing",
                 "--bind", "g=1", "--order", "3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_mathieu_crosscheck_csv(capsys):
    code, out = run(capsys, "mathieu", "--order", "7",
                    "--crosscheck", "eps=0.05:0.1,N=12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eps,branch,a_series,a_determinant,deviation"
    assert len(lines) == 5
    assert all(float(line.split(",")[4]) < 1e-5 for line in lines[1:])


def test_compare_csv_contract(capsys, tmp_path):
    out_file = tmp_path / "cmp.csv"
    code, _ = run(capsys, "compare", "--example", "nonauto", "--order", "3",
                  "--eps", "0.25", "--R0", "0.2", "--theta0", "-0.1",
                  "--tmax", "6.28", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,y_numeric,y_rg,diff"
    assert len(lines) > 100


@pytest.mark.parametrize("rg_order,expansion_order", [(2, 1), (1, 2)])
def test_compare_solves_only_the_orders_it_reads(capsys, monkeypatch,
                                                 rg_order, expansion_order):
    # --order bounds --rg-order and --expansion-order; the solve stops at
    # the larger of the two, so the CSV is the same at every --order
    caps = []
    solve = cli.normal_form

    def counted(V, K, *args, **kwargs):
        caps.append(K)
        return solve(V, K, *args, **kwargs)

    monkeypatch.setattr(cli, "normal_form", counted)
    argv = ["compare", "--example", "nonauto", "--eps", "0.25", "--R0", "0.2",
            "--theta0", "-0.1", "--rg-order", str(rg_order),
            "--expansion-order", str(expansion_order), "--tmax", "6.28"]
    outs = [run(capsys, *argv, "--order", order) for order in ("2", "4", "6")]
    assert caps == [2, 2, 2]
    assert outs[0][0] == 0
    assert outs[0] == outs[1] == outs[2]


def test_simulate_stdout(capsys):
    code, out = run(capsys, "simulate", "--example", "vdp", "--eps", "0.1",
                    "--y0", "0.5", "--dy0", "0.0", "--tmax", "1.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,y,dy"
    assert lines[1].startswith("0.0,0.5,")


@pytest.mark.parametrize("rg_order", [1, 2])
def test_simulate_solves_only_the_orders_it_reads(capsys, monkeypatch,
                                                  rg_order):
    # --order bounds --rg-order; the solve stops at --rg-order, so the
    # CSV is the same at every --order
    caps = []
    solve = cli.normal_form

    def counted(V, K, *args, **kwargs):
        caps.append(K)
        return solve(V, K, *args, **kwargs)

    monkeypatch.setattr(cli, "normal_form", counted)
    argv = ["simulate", "--example", "vdp", "--eps", "0.1", "--R0", "0.5",
            "--theta0", "0", "--rg-order", str(rg_order), "--tmax", "10"]
    outs = [run(capsys, *argv, "--order", order) for order in ("2", "5", "9")]
    assert caps == [rg_order] * 3
    assert outs[0][0] == 0
    assert outs[0] == outs[1] == outs[2]


def test_simulate_flow_defaults_to_order_3_and_rg_order_1(capsys):
    # simulate leaves --order and --rg-order unset so that the direct
    # mode can refuse them; the flow resolves them to 3 and 1
    flow = ["simulate", "--example", "vdp", "--eps", "0.1", "--R0", "1",
            "--theta0", "0", "--tmax", "1"]
    assert run(capsys, *flow) == \
        run(capsys, *flow, "--order", "3", "--rg-order", "1")
    assert run(capsys, *flow) != run(capsys, *flow, "--rg-order", "2")


def test_step_longer_than_tmax_gives_the_initial_state(capsys):
    code, out = run(capsys, *SIM_ODE, "--dt", "5", "--tmax", "1")
    assert code == 0
    assert out.splitlines() == ["t,y,dy", "0.0,1.0,0.0"]
    code, out = run(capsys, *SIM_FLOW, "--tmax", "0")
    assert code == 0
    assert out.splitlines() == ["t,R,theta", "0.0,1.0,0.0"]


@pytest.mark.parametrize("sim", [SIM_ODE, SIM_FLOW], ids=["ode", "flow"])
def test_huge_tmax_fails_fast_without_allocating(capsys, sim):
    # 3e13 steps would need a 232 TiB grid; the budget check runs first
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(sim + ["--tmax", "1e12"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "budget" in capsys.readouterr().err
    assert peak < 16 * 2 ** 20
    assert time.perf_counter() - start < 5.0


def test_complex_potential_exit_1(capsys):
    code = main(["simulate", "--potential", "E(1)*y", "--eps", "0.1",
                 "--y0", "1", "--dy0", "0", "--tmax", "1"])
    assert code == 1
    assert "not real" in capsys.readouterr().err


COMPLEX = ["--potential", "E(1)*y + y'", "--eps", "0.1", "--tmax", "1"]


@pytest.mark.parametrize("argv", [
    ["simulate", *COMPLEX, "--order", "2", "--R0", "0.5", "--theta0", "0"],
    ["simulate", *COMPLEX, "--y0", "0", "--dy0", "0"],
    ["compare", *COMPLEX, "--order", "2", "--R0", "0.5", "--theta0", "0"],
], ids=["simulate-flow", "simulate-at-rest", "compare"])
def test_complex_potential_fails_before_integrating(capsys, monkeypatch,
                                                    argv):
    # the amplitude flow, the ODE at rest and compare of a potential that
    # is not real on real states are refused before any RK4 step
    def no_rk4(*args):
        raise AssertionError("integration started")

    monkeypatch.setattr(numeric, "_rk4", no_rk4)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not real" in captured.err


def test_byte_identical_reruns(capsys):
    _, a = run(capsys, "polar", "--example", "vdp", "--order", "6")
    _, b = run(capsys, "polar", "--example", "vdp", "--order", "6")
    assert a == b


def test_verify_json(capsys):
    code, out = run(capsys, "verify", "--example", "vdp", "--order", "3",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"name": name, "cap": 3, "passed": True} for name in
        ("functional_relation", "inversion", "residual", "secular_free")]


def test_mathieu_json(capsys):
    code, out = run(capsys, "mathieu", "--order", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["omega2"]["cap"] == 4
    assert data["branches"] == [{"label": "-", "a": ["1", "0", "-1/3"]},
                                {"label": "+", "a": ["1", "0", "5/3"]}]


@pytest.mark.parametrize("branch,other", [("+", "-"), ("-", "+")])
def test_mathieu_branch_selects_one_boundary(capsys, branch, other):
    code, out = run(capsys, "mathieu", "--order", "3", "--branch", branch)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("omega^2 = ")
    assert [line.split(" = ")[0] for line in lines[1:]] == [f"a{branch}"]
    code, out = run(capsys, "mathieu", "--order", "3", "--branch", branch,
                    "--crosscheck", "eps=0.05:0.1,N=8")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0.05", branch), ("0.1", branch)]
    code, both = run(capsys, "mathieu", "--order", "3",
                     "--crosscheck", "eps=0.05:0.1,N=8")
    assert [line for line in both.splitlines()
            if f",{other}," not in line] == out.splitlines()


def test_compare_with_explicit_initial_state(capsys):
    # --y0/--dy0 start the ODE; the amplitude flow still starts at R0
    code, out = run(capsys, "compare", "--example", "vdp", "--order", "2",
                    "--eps", "0.1", "--R0", "1", "--theta0", "0",
                    "--y0", "1.5", "--dy0", "0", "--tmax", "0.1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,y_numeric,y_rg,diff"
    assert lines[1] == "0.0,1.5,2.0,-0.5"


@pytest.mark.parametrize("command,option,value", [
    ("simulate", "--eps", "-1e-3"), ("simulate", "--y0", "-1e-1"),
    ("simulate", "--dy0", "-2E-1"), ("simulate", "--R0", "-5e-1"),
    ("simulate", "--theta0", "-1e-1"), ("compare", "--eps", "-1e-2"),
    ("compare", "--R0", "-5e-1"), ("compare", "--theta0", "-1e+0")])
def test_negative_value_in_exponent_form(capsys, command, option, value):
    # argparse reads "-1e-3" as an option unless it is joined by "="
    start = (("--y0", "--dy0") if option in ("--y0", "--dy0")
             else ("--R0", "--theta0"))

    def argv(joined):
        out = [command, "--example", "vdp", "--tmax", "0.1"]
        if start == ("--R0", "--theta0"):
            # the direct ODE of simulate takes no --order
            out += ["--order", "2"]
        for name in ("--eps",) + start:
            v = value if name == option else SIM_ARGS[name]
            out += [f"{name}={v}"] if joined else [name, v]
        return out

    code, out = run(capsys, *argv(joined=False))
    assert code == 0
    assert run(capsys, *argv(joined=True)) == (0, out)


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one call, SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REUSE_SEQUENCE = [
    ["polar", "--example", "duffing", "--bind", "g=1"],
    # the --bind list of the call before must not leak into this one
    ["simulate", "--example", "duffing", "--eps", "0.1", "--y0", "1",
     "--dy0", "0"],
    ["polar", "--potential", "-y' - a*y^3", "--params", "a", "--bind", "a=4"],
    ["examples"],
    ["expand", "--example", "vdp", "--order", "-1"],
    ["verify", "--help"],
    ["--help"],
    ["polar", "--example", "duffing", "--bind", "g=1"],
]


def test_reused_parser_leaves_no_state(capsys):
    build_parser.cache_clear()
    shared = [outcome(capsys, argv) for argv in REUSE_SEQUENCE]
    # one parser per command named first, and the full one for --help
    assert build_parser.cache_info().misses == len(
        {argv[0] for argv in REUSE_SEQUENCE})
    fresh = []
    for argv in REUSE_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 2, 0, 0, 0]
    assert "bind the parameters g" in shared[1][2]
    assert shared[5][1].startswith("usage: rgpert verify ")
    assert shared[6][1].startswith("usage: rgpert ")


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "examples")[0] == 0
    assert built == ["rgpert", "rgpert examples"]   # its subparser only
    built.clear()
    build_parser(None)
    assert built.count("rgpert") == 1
    assert len(built) == 1 + len(cli.COMMANDS)       # one per subcommand


#: for each command: a valid argv, a usage error of its subparser and one
#: of its handler (None where it has none)
ONE_COMMAND_CASES = {
    "expand": (["--example", "vdp", "--order", "2"], ["--order", "-1"],
               ["--example", "vdp", "--params", "a"]),
    "rg": (["--potential", "y'", "--format", "json"], ["--format", "csv"],
           []),
    "polar": (["--example", "duffing", "--bind", "g=1"],
              ["--example", "nope"], ["--example", "duffing", "--bind", "g"]),
    "limit-cycle": (["--example", "vdp"], ["--order", "x"],
                    ["--example", "vdp", "--bind", "a=1"]),
    "verify": (["--example", "vdp", "--order", "2"],
               ["--example", "vdp", "--potential", "y'"], []),
    "mathieu": (["--order", "3", "--branch", "+"], ["--branch", "0"],
                ["--crosscheck", "eps=0.1,M=3"]),
    "simulate": (SIM_FLOW[1:] + ["--dt", "0.1"], SIM_ODE[1:] + ["--dt", "0"],
                 SIM_ODE[1:] + ["--order", "3"]),
    "compare": (COMPARE[1:] + ["--expansion-order", "2"], ["--eps", "x"],
                COMPARE[1:] + ["--y0", "5"]),
    "examples": ([], None, None),
}


@pytest.mark.parametrize("name", ONE_COMMAND_CASES)
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch,
                                                    name):
    assert list(ONE_COMMAND_CASES) == list(cli.COMMANDS)
    valid, sub_error, handler_error = ONE_COMMAND_CASES[name]
    full, one = build_parser(None), build_parser(name)
    assert one.parse_args([name] + valid) == full.parse_args([name] + valid)
    cases = [["--help"], ["--order", "1", "extra"]]   # extra: top-level error
    cases += [case for case in (sub_error, handler_error) if case is not None]
    for args in cases:
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda command: full)
            want = outcome(capsys, [name] + args)
        assert outcome(capsys, [name] + args) == want
        assert want[0] == (0 if args == ["--help"] else 2)
    assert want[2].startswith("usage: rgpert [-h]\n              {expand,rg,")


def _src_env():
    """The environment, with this checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import rgpert.cli\n"
             "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


#: main with stdout and stderr as the caller gives them: the forks are
#: counted into the file named first, and two CPUs are reported whatever
#: the host has; the exit status is main's, or 3 if a child is left
PIPE_PROBE = """
import os, sys
from rgpert import cli
forks = []
fork = os.fork
def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counting_fork
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    code = 3
with open(sys.argv[1], "w") as fh:
    fh.write(str(len(forks)))
sys.exit(code)
"""


@needs_dev_full
@pytest.mark.parametrize("argv,children", [
    (["examples"], 0),
    (SIMULATE_200, 1),
    (["expand", "--example", "vdp", "--order", "16"], 0),
    (COMPARE_200, 1),
], ids=["examples", "simulate", "expand", "compare"])
def test_full_stdout_is_named(tmp_path, argv, children):
    # like `> /dev/full`: exit 1, one error line, every child reaped
    counted = tmp_path / "forks"
    with open(DEV_FULL, "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", PIPE_PROBE, str(counted), *argv],
            env=_src_env(), stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"error: stdout: {NO_SPACE}\n".encode()
    assert counted.read_text() == str(children)


@pytest.mark.parametrize("argv,children", [
    (SIMULATE_200, 1),
    (["expand", "--example", "vdp", "--order", "16"], 0),   # 844 KB
    (COMPARE_200, 1),
], ids=["simulate", "expand", "compare"])
def test_closed_stdout_ends_quietly(tmp_path, argv, children):
    # like `| head -c 50`: exit 1, no traceback, every child reaped
    counted = tmp_path / "forks"
    proc = subprocess.Popen(
        [sys.executable, "-c", PIPE_PROBE, str(counted), *argv],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        # stderr to its end: every process holding it has closed it
        err = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert err == b""
    assert counted.read_text() == str(children)


# Option values through main: each command from a valid call, with some of
# its options given again, last wins, with values from negatives, nan, inf,
# 1e309, empty strings, junk text and long digit strings.  Orders stay at
# most 2 (mathieu's at most 5) and --tmax/--dt at most 2,000 steps: a
# larger order or run is slow, not wrong.

#: text no float or integer reads: it holds no decimal digit
JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
#: values any option may be given, drawn for about half of them
SPECIAL = st.sampled_from(["", "nan", "-nan", "inf", "-inf", "1e309",
                           "-1e309", "1/0", "=", "--", " "])
#: neither a nonnegative integer nor a finite float
INVALID = st.one_of(
    SPECIAL,
    st.integers(310, 5000).map(lambda k: "-" + "9" * k),
    JUNK,
)
#: a float past the largest one: an infinity, not an order
HUGE = st.integers(310, 5000).map(lambda k: "9" * k)
NUMBER = st.one_of(
    INVALID,
    HUGE,
    st.floats().map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.text(max_size=8),
    st.integers(1, 400).map(lambda k: "0." + "0" * k + "1"),
)


def _order_values(top):
    return st.one_of(
        st.integers(0, top).map(str),
        st.integers(1, 400).map(lambda k: "0" * k + "1"),   # long digits
        st.integers(-10 ** 6, -1).map(str),
        st.floats(0, top).map(repr),
        INVALID,
    )


ORDER = _order_values(2)
#: at most 60 time units: 1,910 steps at the default step
TMAX = st.one_of(st.floats(0, 60).map(repr), st.floats(max_value=0).map(repr),
                 INVALID, HUGE)
#: at least 0.03 with --tmax 60: 2,000 steps
DT = st.one_of(st.floats(0.03, 1e300).map(repr),
               st.floats(max_value=0).map(repr), INVALID, HUGE)
POTENTIAL = st.one_of(
    st.sampled_from(sorted(EXAMPLES)).map(lambda name: ["--example", name]),
    st.sampled_from(["y^3", "(1-y^2)*y'", "-y' - a*y^3", "y^3+y*cos(2t)",
                     "y'^2*y", "2^40*y^3"]).map(lambda v: ["--potential", v]),
)
FORMAT = st.one_of(st.sampled_from(["text", "json"]), JUNK)
POTENTIAL_OPTIONS = {
    "--example": st.one_of(st.sampled_from(sorted(EXAMPLES)), JUNK),
    "--potential": st.one_of(JUNK, st.text(max_size=8)),
    "--params": st.one_of(st.sampled_from(["a", "a,b", "", ","]), JUNK),
    "--bind": st.one_of(
        st.tuples(st.sampled_from(["g", "a", "mu", ""]), NUMBER).map(
            "=".join),
        NUMBER),
    "--order": ORDER,
}
NUMERIC_OPTIONS = {**POTENTIAL_OPTIONS, "--eps": NUMBER, "--tmax": TMAX,
                   "--dt": DT, "--rg-order": ORDER, "--R0": NUMBER,
                   "--theta0": NUMBER, "--y0": NUMBER, "--dy0": NUMBER,
                   "--out": st.sampled_from(["", str(GOLDEN)])}
CROSSCHECK = st.tuples(
    st.lists(NUMBER, min_size=1, max_size=3).map(":".join),
    st.one_of(st.integers(3, 10).map(str), INVALID,
              st.integers(-10, 2).map(str), st.just("99999")),
).map(lambda p: f"eps={p[0]},N={p[1]}")
SIMULATE_START = st.sampled_from([["--y0", "1", "--dy0", "0"],
                                  ["--R0", "1", "--theta0", "0"]])
#: each command's valid call, as a strategy, and the values of its options
FUZZ = {
    **{name: (POTENTIAL, {**POTENTIAL_OPTIONS, "--format": FORMAT})
       for name in ("expand", "rg", "polar", "limit-cycle", "verify")},
    "mathieu": (st.just(["--order", "3"]),
                {"--order": _order_values(5),
                 "--branch": st.one_of(st.sampled_from(["+", "-"]), JUNK),
                 "--crosscheck": st.one_of(CROSSCHECK, NUMBER),
                 "--format": FORMAT}),
    "simulate": (st.tuples(POTENTIAL, SIMULATE_START).map(
        lambda p: p[0] + p[1] + ["--eps", "0.1", "--tmax", "6"]),
        NUMERIC_OPTIONS),
    "compare": (POTENTIAL.map(lambda p: p + COMPARE[3:] + ["--tmax", "6"]),
                {**NUMERIC_OPTIONS, "--expansion-order": ORDER}),
    "examples": (st.just([]), {}),
}


@st.composite
def fuzz_argv(draw, command):
    valid, options = FUZZ[command]
    argv = [command] + draw(valid)
    for name in draw(st.lists(st.sampled_from(sorted(options)), max_size=3,
                              unique=True) if options else st.just([])):
        value = draw(st.one_of(SPECIAL, options[name]))
        argv += ([f"{name}={value}"] if draw(st.booleans())
                 else [name, value])
    return argv


@pytest.mark.parametrize("command", FUZZ)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_option_values_end_in_an_exit_code(capsys, monkeypatch, tmp_path,
                                           command, data):
    assert list(FUZZ) == list(cli.COMMANDS)
    monkeypatch.chdir(tmp_path)   # an --out drawn as "nan" is a file name
    argv = data.draw(fuzz_argv(command), label="argv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = outcome(capsys, argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
