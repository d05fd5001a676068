"""Command-line interface.

Exit codes: 0 success, 1 failed verification, 2 usage error.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .algebra import Rat, GaussianRational
from .errors import RgpertError
from .potential import parse_potential
from .perturbation import expand
from .rg import derive_rg, normal_form, to_polar, limit_cycle
from .verify import run_identity_suite
from . import mathieu as mathieu_mod
from . import numeric
from .registry import EXAMPLES, get_example


def _order(text):
    """Argument type of a truncation order: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _finite(text):
    """Argument type of a state or parameter value: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


#: Options whose value may be negative.  argparse reads only "-<digits>"
#: and "-<digits>.<digits>" as negative numbers, so it would take the
#: value of "--eps -1e-3" for an option; main joins such a pair into
#: "--eps=-1e-3".
_SIGNED = ("--eps", "--R0", "--theta0", "--y0", "--dy0")


def _join_signed(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def _step(text):
    """Argument type of a time step: a positive finite float."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def _duration(text):
    """Argument type of an integration time: a finite float >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return value


def _add_potential_args(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--example", choices=sorted(EXAMPLES),
                   help="built-in oscillator name")
    g.add_argument("--potential", help="potential in the expression DSL")
    p.add_argument("--params", default="",
                   help="comma-separated symbolic parameter names")
    p.add_argument("--bind", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="bind a parameter to a rational value")
    p.add_argument("--order", type=_order, default=3, metavar="K",
                   help="truncation order in eps (default 3)")


def _digit_limit():
    """The interpreter's int-to-str limit, or its default where the limit
    is lifted (0): an exponent still needs a bound."""
    return (sys.get_int_max_str_digits()
            or sys.int_info.default_max_str_digits)


def _too_long(value):
    """Whether the number text ``value`` has more digits, or an exponent
    of larger magnitude, than ``_digit_limit``: Fraction computes
    10^exponent before any check, in time that grows with it."""
    limit = _digit_limit()
    mantissa, _, exponent = value.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    return (sum(c.isdecimal() for c in mantissa) > limit
            or len(exponent) > len(str(limit))
            or exponent.isdecimal() and int(exponent) > limit)


def _resolve_potential(args, parser):
    if args.example:
        if args.params:
            parser.error("--params applies only to --potential")
        spec = get_example(args.example)
        V = spec.potential()
    elif args.potential:
        params = tuple(s for s in args.params.split(",") if s)
        V = parse_potential(args.potential, params)
    else:
        parser.error("one of --example or --potential is required")
    bindings = {}
    for item in args.bind:
        name, _, value = item.partition("=")
        if not _ or not name:
            parser.error(f"--bind expects NAME=VALUE, got {item!r}")
        if name in bindings:
            parser.error(f"--bind {name}: given more than once")
        if _too_long(value):
            parser.error(f"--bind {name}: the value has more digits, or an "
                         "exponent larger, than the interpreter's limit of "
                         f"{_digit_limit()} digits")
        try:
            bindings[name] = GaussianRational(Rat(value))
        except (ValueError, ZeroDivisionError):
            parser.error(f"--bind {name}: {value!r} is not a rational")
        if name not in V.params:
            parser.error(f"--bind {name}: not a declared parameter")
    if bindings:
        V = V.bind(bindings)
    return V


def _numeric_potential(args, parser):
    V = _resolve_potential(args, parser)
    if V.params:
        parser.error(f"bind the parameters {', '.join(V.params)} "
                     "with --bind for numerics")
    numeric.check_real(V)
    return V


def _print_series(pairs, fmt):
    if fmt == "json":
        print(json.dumps({k: v.to_json() for k, v in pairs}, indent=2))
    else:
        # the whole text first: a number too long to print fails the run
        # before any line is written
        print("\n".join(f"{k} = {v}" for k, v in pairs))


def cmd_expand(args, parser):
    V = _resolve_potential(args, parser)
    Y = expand(V, args.order)
    rows = [Y.row(k) for k in range(Y.cap + 1)]
    harmonics = sorted(set().union(*rows))
    if args.format == "json":
        data = {"order": Y.cap,
                "harmonics": harmonics,
                "table": {str(n): {str(k): row[n].to_json()
                                   for k, row in enumerate(rows) if n in row}
                          for n in harmonics}}
        print(json.dumps(data, indent=2))
        return 0
    # table layout: rows = eps order, columns = harmonic; the whole text
    # first, as in _print_series
    lines = []
    for k, row in enumerate(rows):
        if row:
            lines.append(f"eps^{k}:")
            lines += [f"  f[{n},{k}] = {row[n]}" for n in sorted(row)]
    print("\n".join(lines))
    return 0


def cmd_rg(args, parser):
    V = _resolve_potential(args, parser)
    sysc = normal_form(V, args.order, expansion=False)
    _print_series([("dAr/dt", sysc.rhs_A),
                   ("dBr/dt", sysc.rhs_B)], args.format)
    return 0


def cmd_polar(args, parser):
    V = _resolve_potential(args, parser)
    pol = to_polar(normal_form(V, args.order, expansion=False))
    _print_series([("d log R/dt", pol.dlogR_dt),
                   ("d theta/dt", pol.dtheta_dt)], args.format)
    if pol.theta_free() and args.format != "json":
        print("# phase-free radial equation")
    return 0


def cmd_limit_cycle(args, parser):
    V = _resolve_potential(args, parser)
    R_c, dtheta_c = limit_cycle(V, args.order)
    _print_series([("R_c", R_c),
                   ("2*R_c", R_c * GaussianRational(2)),
                   ("(d theta/dt)_c", dtheta_c)], args.format)
    return 0


def cmd_verify(args, parser):
    V = _resolve_potential(args, parser)
    Y = expand(V, args.order)
    reports = run_identity_suite(Y, derive_rg(Y))
    if args.format == "json":
        print(json.dumps([{"name": r.name, "cap": r.cap,
                           "passed": r.passed} for r in reports], indent=2))
    else:
        for r in reports:
            print(r)
    return 0 if all(r.passed for r in reports) else 1


def cmd_mathieu(args, parser):
    if args.crosscheck:
        opts = {}
        for part in args.crosscheck.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("eps", "N"):
                parser.error(f"--crosscheck: unknown key {key!r}; "
                             "expected eps=v1:v2:...,N=n")
            if key in opts:
                parser.error(f"--crosscheck {key}: given more than once")
            opts[key] = value
        try:
            eps_list = [float(x) for x in opts["eps"].split(":")]
            N = int(opts.get("N", 12))
        except (KeyError, ValueError):
            parser.error("--crosscheck expects eps=v1:v2:...,N=n")
        if not all(math.isfinite(eps) for eps in eps_list):
            parser.error("--crosscheck eps values must be finite")
        if N < 3:
            parser.error(f"--crosscheck N must be >= 3, got {N}")
        mathieu_mod.check_hill_order(N)
    omega2, branches = mathieu_mod.analyze(args.order)
    if args.branch:
        branches = [b for b in branches if b.label == args.branch]
    if args.crosscheck:
        rows = mathieu_mod.boundary_crosscheck(branches, eps_list, N)
        print("eps,branch,a_series,a_determinant,deviation")
        for r in rows:
            print(f"{r.eps!r},{r.branch},{r.a_series!r},"
                  f"{r.a_determinant!r},{r.deviation!r}")
    elif args.format == "json":
        print(json.dumps(
            {"omega2": mathieu_mod.in_parameters(omega2).to_json(),
             "branches": [{"label": b.label,
                           "a": b.a_texts()}
                          for b in branches]}, indent=2))
    else:
        print("\n".join([f"omega^2 = {mathieu_mod.in_parameters(omega2)}"]
                        + [f"a{b.label} = {b.a_series_str()}"
                           for b in branches]))
    return 0


def _common_sim_args(p):
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--tmax", type=_duration, default=25 * 2 * math.pi)
    p.add_argument("--dt", type=_step, default=numeric.DEFAULT_STEP)
    p.add_argument("--rg-order", type=_order, default=1)
    p.add_argument("--R0", type=_finite)
    p.add_argument("--theta0", type=_finite)
    p.add_argument("--y0", type=_finite)
    p.add_argument("--dy0", type=_finite)
    p.add_argument("--out", help="CSV output path (default stdout)")


def _check_orders(args, parser, *names):
    """The amplitude flow and the expansion are truncations of the series
    computed to --order; a higher order would be cut silently."""
    for name in names:
        if getattr(args, name) > args.order:
            parser.error(f"--{name.replace('_', '-')} "
                         f"{getattr(args, name)} exceeds --order {args.order}")


def _direct_start(args, parser):
    """Whether --y0 and --dy0 give the ODE's start; one without the other
    would be dropped, so it is a usage error."""
    if (args.y0 is None) != (args.dy0 is None):
        given, missing = (("--y0", "--dy0") if args.dy0 is None
                          else ("--dy0", "--y0"))
        parser.error(f"{given} needs {missing}")
    return args.y0 is not None


def _open_out(args, parser):
    """The --out file, opened before any work so that an unwritable path
    is a usage error at once, or stdout."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w")
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")


def _emit_rows(args, parser, out, header, rows):
    """The CSV to ``out``; a failed write or close of the --out file is
    a usage error, like a failed open."""
    if not args.out:
        numeric.write_csv(out, rows, header)
        return
    try:
        numeric.write_csv(out, rows, header)
        out.close()
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")
    print(f"wrote {len(rows)} rows to {args.out}")


def cmd_simulate(args, parser):
    """The direct ODE or the amplitude flow.  Its parser leaves --order
    and --rg-order unset, so that the direct mode can refuse them; the
    flow mode resolves them to the defaults 3 and 1."""
    V = _numeric_potential(args, parser)
    direct = _direct_start(args, parser)
    if direct:
        if args.R0 is not None or args.theta0 is not None:
            parser.error("simulate takes --y0/--dy0 (direct) or "
                         "--R0/--theta0 (amplitude flow), not both")
        for name in ("order", "rg_order"):
            if getattr(args, name) is not None:
                parser.error(f"--{name.replace('_', '-')} applies only to "
                             "the amplitude flow (--R0/--theta0)")
    else:
        if args.R0 is None or args.theta0 is None:
            parser.error("simulate needs --y0/--dy0 (direct) or "
                         "--R0/--theta0 (amplitude flow)")
        if args.order is None:
            args.order = 3
        if args.rg_order is None:
            args.rg_order = 1
        _check_orders(args, parser, "rg_order")
    with _open_out(args, parser) as out:
        if not direct:
            # the order read; --order only bounds it
            pol = to_polar(normal_form(V, args.rg_order, expansion=False))
        with numeric.CSVRows(args.tmax, args.dt, 3) as rows:
            if direct:
                traj = numeric.integrate_ode(V, args.y0, args.dy0, args.eps,
                                             args.tmax, args.dt,
                                             each=rows.chunk)
            else:
                traj = numeric.integrate_rg(pol, args.eps, args.rg_order,
                                            args.tmax, args.dt, R0=args.R0,
                                            theta0=args.theta0,
                                            each=rows.chunk)
            _emit_rows(args, parser, out, "t," + ",".join(traj.columns),
                       rows)
    if traj.truncated:
        print("# trajectory diverged and was truncated", file=sys.stderr)
    return 0


def cmd_compare(args, parser):
    V = _numeric_potential(args, parser)
    if args.R0 is None or args.theta0 is None:
        parser.error("compare needs --R0 and --theta0")
    direct = _direct_start(args, parser)
    _check_orders(args, parser, "rg_order", "expansion_order")
    with _open_out(args, parser) as out:
        # the orders read; --order only bounds them
        sysc = normal_form(V, max(args.rg_order, args.expansion_order))
        pol = to_polar(sysc)
        if direct:
            y0, dy0 = args.y0, args.dy0
        else:
            Ar0 = args.R0 * complex(math.cos(args.theta0),
                                    math.sin(args.theta0))
            y0, dy0 = numeric.expansion_initial_conditions(
                sysc, args.eps, args.rg_order, args.expansion_order,
                Ar0=Ar0, Br0=Ar0.conjugate())
        # the direct ODE needs only its start, so it runs beside the flow;
        # a diverging flow is still reported first
        with numeric.Comparison(V, y0, dy0, sysc, args.eps,
                                args.expansion_order, args.tmax,
                                args.dt) as rows:
            amp = numeric.integrate_rg(pol, args.eps, args.rg_order,
                                       args.tmax, args.dt, R0=args.R0,
                                       theta0=args.theta0, each=rows.chunk)
            numeric.require_whole(amp, "the amplitude flow")
            metrics = rows.metrics()
            _emit_rows(args, parser, out, "t,y_numeric,y_rg,diff", rows)
    print(f"# max_abs_diff = {metrics['max_abs_diff']!r}", file=sys.stderr)
    print(f"# rms_diff = {metrics['rms_diff']!r}", file=sys.stderr)
    return 0


def cmd_examples(args, parser):
    for name in sorted(EXAMPLES):
        spec = EXAMPLES[name]
        print(f"{name}: {spec.dsl}"
              + (f"  (params: {','.join(spec.params)})" if spec.params else "")
              + f"  -- {spec.note}")
    return 0


@functools.cache
def build_parser():
    """The parser and the handler map, built once per process on the
    first call; parsing leaves no state on them."""
    parser = argparse.ArgumentParser(
        prog="rgpert",
        description="Exact renormalization-group perturbation theory "
                    "for weakly nonlinear oscillators y'' + y = eps*V.")
    sub = parser.add_subparsers(dest="command", required=True)

    handlers = {}

    def add(name, fn, sim=False):
        """A potential command; the numeric ones (sim) print only CSV."""
        p = sub.add_parser(name)
        _add_potential_args(p)
        if sim:
            _common_sim_args(p)
        else:
            p.add_argument("--format", default="text",
                           choices=["text", "json"], help="output format")
        handlers[name] = fn
        return p

    add("expand", cmd_expand)
    add("rg", cmd_rg)
    add("polar", cmd_polar)
    add("limit-cycle", cmd_limit_cycle)
    add("verify", cmd_verify)
    pm = sub.add_parser("mathieu")
    pm.add_argument("--order", type=_order, default=5)
    pm.add_argument("--branch", choices=["+", "-"])
    pm.add_argument("--crosscheck", metavar="eps=v1:v2,N=n")
    pm.add_argument("--format", default="text", choices=["text", "json"])
    handlers["mathieu"] = cmd_mathieu
    add("simulate", cmd_simulate, sim=True).set_defaults(order=None,
                                                         rg_order=None)
    add("compare", cmd_compare, sim=True).add_argument(
        "--expansion-order", type=_order, default=1)
    sub.add_parser("examples")
    handlers["examples"] = cmd_examples
    return parser, handlers


def main(argv=None):
    parser, handlers = build_parser()
    args = parser.parse_args(
        _join_signed(sys.argv[1:] if argv is None else argv))
    try:
        code = handlers[args.command](args, parser)
        sys.stdout.flush()
        return code
    except RgpertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone, as with `| head`: the rest goes
        # to the null device, so that the flush at exit raises nothing
        # (the "Note on SIGPIPE" of the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
