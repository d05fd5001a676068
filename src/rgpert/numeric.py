"""Fixed-step RK4 integration and the numeric-vs-RG comparison.

Everything is deliberately deterministic: fixed step, no adaptivity, both
systems sampled on the same uniform grid so comparisons never interpolate.
The RK4 runs a CSV chunk of rows at a time, so that ``CSVRows`` can have
each chunk formatted, in a second process, while the next is integrated;
the floats and the bytes are those of one whole run.
"""

import gc
import math
import mmap
import os
import signal
import struct
import tempfile
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, ComplexPotential, Diverged, NotReal,
                     SeriesOverflow)
from .potential import HARMONIC, harmonic, harmonics
from .rg import PHASE

DEFAULT_STEP = 2 * math.pi / 200
DIVERGENCE_LIMIT = 1e8
#: Most steps (t_max/h) one integration may take: 15x the longest run in
#: the tests and 25x the benchmark's.  Such a run peaks at about 26 MB
#: (tracemalloc): the grid and the float64 buffer of two states a step.
MAX_STEPS = 10 ** 6
IMAG_TOL_EXPANSION = 1e-10


@dataclass
class Trajectory:
    """Uniformly sampled numeric solution."""
    t: np.ndarray
    columns: tuple
    values: np.ndarray          # shape (len(t), len(columns))
    truncated: bool = False

    def column(self, name):
        return self.values[:, self.columns.index(name)]

    def __len__(self):
        return len(self.t)


def _grid(t_max, h):
    if not 0 < h < math.inf:
        raise ValueError("step must be positive and finite")
    if not 0 <= t_max < math.inf:
        raise ValueError("t_max must be finite and nonnegative")
    if t_max / h > MAX_STEPS:
        raise BudgetExceeded(f"t_max/h = {t_max / h:.3g} steps exceed the "
                             f"budget of {MAX_STEPS}")
    # the largest n*h <= t_max, up to a relative rounding slack: 5 periods
    # at DEFAULT_STEP are 999.9999999999999 steps and must stay 1000
    n = math.floor(t_max / h * (1 + 1e-9))
    return np.arange(n + 1) * h


class _RHS:
    """Right-hand side of an RK4 system as straight-line Python source.

    At each stage the real state scalars are bound to the names
    ``states`` and the stage time to ``t``; ``time_lines`` (which read
    only ``t``) run once per distinct stage time, then ``lines`` run in
    order and ``derivs`` are the derivatives.  Coefficients and
    parameters are names bound through ``consts``, never source text, so
    inf and nan values compile and no input string reaches ``exec``.
    """

    def __init__(self, states):
        self.states = states
        self.lines = []
        self.time_lines = []
        self.derivs = ()
        self.consts = {}
        self.powers = {}

    def const(self, value):
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def power(self, var, p):
        """Name of the state ``var ** p``, p != 0, computed once per stage."""
        if p == 1:
            return var
        name = self.powers.get((var, p))
        if name is None:
            name = self.powers[var, p] = f"_p{len(self.powers)}"
            # float ** int raises OverflowError where a float64 gives
            # +-inf; take the inf and let the divergence check see it
            self.lines += [f"try: {name} = {var} ** {int(p)}",
                           f"except OverflowError: "
                           f"{name} = _f64({var}) ** {int(p)}"]
        return name

    def trig(self, fn, phi, n):
        """Name of ``fn(n * phi)`` for fn cos or sin, computed once per
        stage, or once per stage time for phi = t; nan where the angle is
        infinite."""
        name = self.powers.get((fn, phi, n))
        if name is None:
            name = self.powers[fn, phi, n] = f"_{fn}{len(self.powers)}"
            # a float literal: float * float is the interpreter's fast
            # path, int * float a slower one with the same product
            arg = phi if n == 1 else f"{float(n)!r} * {phi}"
            lines = self.time_lines if phi == "t" else self.lines
            lines += [f"try: {name} = {fn}({arg})",
                      f"except ValueError: {name} = nan"]
        return name

    def add_real_sum(self, target, terms, phi, *names):
        """A line computing ``target = Re _evaluate(terms, e^{i phi},
        *names)`` on real ``phi`` and states ``names``, in float
        arithmetic over ``_fold(terms)``: each group is
        ``(a*cos(n phi) + b*sin(n phi)) * monomial``, and a zero a or b
        is no part of it."""
        parts = []
        for mono, n, a, b in _fold(terms):
            if n:
                trig = [f"{self.const(x)} * {self.trig(fn, phi, n)}"
                        for x, fn in ((a, "cos"), (b, "sin")) if x]
                factors = [trig[0] if len(trig) == 1 else
                           f"({trig[0]} + {trig[1]})"]
            else:
                factors = [self.const(a)]
            factors += [self.power(v, p) for v, p in zip(names, mono) if p]
            parts.append(" * ".join(factors))
        self.lines.append(f"{target} = {' + '.join(parts) or '0.0'}")


def _fold(terms):
    """Real part of compiled terms whose first variable is a unit phase
    e^{i phi}: [(exponents of the other variables, n >= 0, a, b)] with
    Re sum c e^{i k phi} m = sum (a cos(n phi) + b sin(n phi)) m, the
    terms grouped by the real monomial m and n = |k| across eps-orders.
    b is 0 for n = 0, and groups with a = b = 0 are left out."""
    groups = {}
    for (k, *mono), c in terms:
        ab = groups.setdefault((tuple(mono), abs(k)), [0.0, 0.0])
        ab[0] += c.real
        if k > 0:
            ab[1] -= c.imag
        elif k < 0:
            ab[1] += c.imag
    return [(mono, n, a, b) for (mono, n), (a, b) in groups.items()
            if a or b]


def _kernel_source(rhs):
    """One function running the ``_n`` RK4 steps ``_i0 ... _i0 + _n - 1``
    of ``rhs`` with inlined stages; stages 2 and 3 share their time and
    so their ``time_lines``.  Step i starts at ``_t0 = i * h``, the float
    of the grid's ``np.arange(n + 1) * h``, made only if ``time_lines``
    read it.  Each step appends the floats of its state, one at a time,
    through ``_append``; the 2 of the update is the float 2.0 (see
    ``_RHS.trig``)."""
    s = [f"_s{i}" for i in range(len(rhs.states))]
    src = [f"def _kernel({', '.join(s)}, _i0, _n, _append):",
           "    for _i in range(_i0, _i0 + _n):"]
    if rhs.time_lines:
        src.append("_t0 = _i * _h")
    stages = (("_t0", None), ("_t0 + _h2", "_h2"), (None, "_h2"),
              ("_t0 + _h", "_h"))
    for j, (t, a) in enumerate(stages):
        if t is not None and rhs.time_lines:
            src += [f"t = {t}"] + rhs.time_lines
        for i, name in enumerate(rhs.states):
            src.append(f"{name} = {s[i]}" if a is None else
                       f"{name} = {s[i]} + {a} * _k{j - 1}_{i}")
        src += rhs.lines
        src += [f"_k{j}_{i} = {d}" for i, d in enumerate(rhs.derivs)]
    src += [f"{x} = {x} + _h6 * (_k0_{i} + 2.0 * _k1_{i} + 2.0 * _k2_{i}"
            f" + _k3_{i})" for i, x in enumerate(s)]
    src += [f"_append({x})" for x in s]
    src += ["if " + " or ".join(f"not abs({x}) <= _limit" for x in s)
            + ":",
            "    return True"]
    return "\n".join(src[:2] + ["        " + line for line in src[2:]]
                     + ["    return False"])


def _rk4(rhs, state0, grid, each=None):
    """Classical RK4 of the system ``rhs`` over a uniform grid: the states
    as one float64 array, a row per sample, viewing the one float64
    buffer that the kernel appends to, and whether the run was
    truncated.  Stops after the first step that leaves the box
    |x| <= DIVERGENCE_LIMIT, or turns nan, and reports it as truncated,
    with fewer rows than the grid.

    The kernel runs a chunk of CSV_CHUNK_ROWS rows at a time; after each
    chunk, ``each(start, values, truncated)``, if given, gets the index
    of the chunk's first row, a copy of its states and whether the run
    stops there truncated."""
    k = len(state0)
    flat = array("d", state0)
    truncated = False
    if len(grid) > 1:
        h = float(grid[1] - grid[0])
        namespace = dict(rhs.consts, _h=h, _h2=h / 2, _h6=h / 6,
                         _limit=DIVERGENCE_LIMIT, _f64=np.float64,
                         cos=math.cos, sin=math.sin, nan=math.nan)
        exec(compile(_kernel_source(rhs), "<rk4 kernel>", "exec"),
             namespace)
    rows = 1
    for start in range(0, len(grid), CSV_CHUNK_ROWS):
        end = min(start + CSV_CHUNK_ROWS, len(grid))
        if end > rows:
            # overflow to inf or nan is caught by the kernel's divergence
            # check
            with np.errstate(over="ignore", invalid="ignore"):
                truncated = namespace["_kernel"](*flat[-k:], rows - 1,
                                                 end - rows, flat.append)
            rows = len(flat) // k
        if each is not None:
            each(start, np.frombuffer(flat[start * k:]).reshape(-1, k),
                 truncated)
        if truncated:
            break
    return np.frombuffer(flat).reshape(-1, k), truncated


def check_real(V):
    """Raise ComplexPotential unless V is real on real states and times,
    exactly: C_klmn == conj(C_{-k,l,m,n})."""
    if not V.is_conjugation_symmetric():
        raise ComplexPotential(
            "potential is not real on real states: some coefficient of "
            "e^{ikt} is not the conjugate of that of e^{-ikt}")


def integrate_ode(V, y0, dy0, eps, t_max, h=DEFAULT_STEP, each=None):
    """RK4 on y'' + y = eps*V for real initial data; ``each`` as in
    ``_rk4``."""
    check_real(V)
    grid = _grid(t_max, h)
    series = V.series()
    rhs = _RHS(("y", "yp"))
    rhs.add_real_sum("_v", _compile(series, eps, series.cap, HARMONIC, "y",
                                    "y'"), "t", "y", "yp")
    rhs.derivs = ("yp", f"-y + {rhs.const(eps)} * _v")
    values, truncated = _rk4(rhs, (float(y0), float(dy0)), grid, each)
    return Trajectory(grid[:len(values)], ("y", "dy"), values,
                      truncated=truncated)


def _compile(series, eps, order, *names):
    """[(exponents of ``names``, complex coefficient * eps^k)] over the
    eps-orders k <= order of a series in the variables ``names``, each
    order's terms sorted by exponent tuple: the floats and the order of
    every float sum built on them depend on the exact values only, not
    on the order in which the terms of a polynomial were made.
    SeriesOverflow where a coefficient is past the range of a float."""
    terms = []
    for k in range(min(order, series.cap) + 1):
        c = series.coeffs[k]
        unbound = set(c.vars) - set(names)
        if unbound:
            raise ValueError(f"unbound variables {sorted(unbound)}; "
                             "bind them to numbers first")
        try:
            epsk = eps ** k
        except OverflowError:
            # the +-inf of a float64, as a float: see _RHS.power
            epsk = math.copysign(math.inf, eps) ** k
        try:
            terms += [(exps, coeff.as_constant().to_complex() * epsk)
                      for exps, coeff in sorted(c.split(names).items())]
        except OverflowError:
            raise SeriesOverflow(f"a coefficient at eps-order {k} overflows "
                                 "a float") from None
    return terms


def _evaluate(terms, *values, powers=None):
    """Value of compiled terms at ``values``: complex scalars or numpy
    arrays.  ``powers`` caches each ``values[i] ** p`` and may be shared
    by calls on the same values."""
    if powers is None:
        powers = {}
    out = 0j
    for exps, c in terms:
        for i, p in enumerate(exps):
            vp = powers.get((i, p))
            if vp is None:
                try:
                    vp = values[i] ** p
                except OverflowError:
                    # complex ** int raises where a complex128 gives
                    # inf or nan; take those, as _RHS.power does
                    with np.errstate(all="ignore"):
                        vp = complex(np.complex128(values[i]) ** p)
                powers[i, p] = vp
            c = c * vp
        out += c
    return out


def integrate_rg(polar, eps, order, t_max, h=DEFAULT_STEP, *, R0, theta0,
                 each=None):
    """RK4 on the truncated polar amplitude equation from (R0, theta0);
    ``each`` as in ``_rk4``."""
    grid = _grid(t_max, h)
    rhs = _RHS(("R", "theta"))
    rhs.add_real_sum("_dlogR", _compile(polar.dlogR_dt, eps, order, PHASE,
                                        "R"), "theta", "R")
    rhs.add_real_sum("_dtheta", _compile(polar.dtheta_dt, eps, order, PHASE,
                                         "R"), "theta", "R")
    rhs.derivs = ("R * _dlogR", "_dtheta")
    values, truncated = _rk4(rhs, (float(R0), float(theta0)), grid, each)
    return Trajectory(grid[:len(values)], ("R", "theta"), values,
                      truncated=truncated)


def evaluate_expansion(system, amplitudes, eps, expansion_order):
    """y_RG(t) from the expansion of the Cartesian RGSystem along the
    polar flow: Ar^a Br^b = R^(a+b) w^(a-b) at Ar = R*w, Br = R/w."""
    t = amplitudes.t
    signal = _signal(_expansion_terms(system, eps, expansion_order), t,
                     amplitudes.column("R"), amplitudes.column("theta"))
    _require_real(t, signal.real, signal.imag)
    return Trajectory(t, ("y",), signal.real.reshape(-1, 1))


def _expansion_terms(system, eps, expansion_order):
    """[(n, compiled terms in (R, w))] of each harmonic e^{int} of the
    expansion of the Cartesian RGSystem."""
    out = []
    for n in harmonics(system.expansion):
        terms = [((a + b, a - b), c) for (a, b), c in _compile(
            harmonic(system.expansion, n), eps, expansion_order, "Ar", "Br")]
        if terms:
            out.append((n, terms))
    return out


def _signal(terms, t, R, theta):
    """The complex signal of ``_expansion_terms`` at the samples (t, R,
    theta), each array power computed once for all harmonics; a value
    that overflows is left inf or nan for ``_require_real``."""
    signal = np.zeros(len(t), dtype=complex)
    powers = {}
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(1j * theta)
        for n, ts in terms:
            signal += _evaluate(ts, R, w, powers=powers) * np.exp(1j * n * t)
    return signal


def _require_real(t, real, imag):
    """Raise SeriesOverflow where the signal real + i*imag at the times
    ``t`` is not finite, or NotReal where its imaginary residue is not
    negligible; a nan would pass the residue test."""
    finite = np.isfinite(real) & np.isfinite(imag)
    if not finite.all():
        raise SeriesOverflow("the reconstructed signal overflows a float "
                             f"at t = {float(t[np.argmin(finite)])!r}")
    resid = np.max(np.abs(imag)) if len(imag) else 0.0
    if resid > IMAG_TOL_EXPANSION * max(1.0, np.max(np.abs(real))):
        raise NotReal(f"imaginary residue {resid} in reconstructed signal")


def expansion_initial_conditions(system, eps, rhs_order, expansion_order,
                                 Ar0, Br0):
    """(y(0), y'(0)) of the truncated expansion, including amplitude drift.

    ``system`` is the Cartesian RGSystem and (Ar0, Br0) the amplitudes at
    t = 0.  Lets the direct ODE integration start from exactly the same
    state as the RG reconstruction.
    """
    Ar, Br = complex(Ar0), complex(Br0)

    def num(series, order):
        return _evaluate(_compile(series, eps, order, "Ar", "Br"), Ar, Br)

    rhs_a = num(system.rhs_A, rhs_order)
    rhs_b = num(system.rhs_B, rhs_order)
    y = 0j
    dy = 0j
    for n in harmonics(system.expansion):
        series = harmonic(system.expansion, n)
        pn = num(series, expansion_order)
        dpn = sum(num(series.diff(name), expansion_order) * rhs
                  for name, rhs in (("Ar", rhs_a), ("Br", rhs_b)))
        y += pn
        dy += dpn + 1j * n * pn
    return y.real, dy.real


def require_whole(traj, name):
    """Raise Diverged if ``traj`` was truncated, naming it and the t of
    its last sample."""
    if traj.truncated:
        raise Diverged(f"{name} diverged at t = {float(traj.t[-1])!r}: a "
                       f"state left |x| <= {DIVERGENCE_LIMIT:g} or turned "
                       "nan")


#: Rows formatted per string operation, and rows integrated per kernel
#: call: large enough to amortise the call, small enough that the text
#: of one chunk stays well under a MiB.  A CSV of at least two chunks is
#: formatted while it is computed, in a second process.
CSV_CHUNK_ROWS = 4096
#: Two int64 on a pipe: a chunk of rows to format (start, end); the
#: helper's first report (truncated, rows); a chunk it formatted (start,
#: bytes of text).  Each write is whole and at most PIPE_BUF (4 KiB, 256
#: tokens; MAX_STEPS makes at most 245 chunks), so it is atomic and each
#: reader of a pipe gets whole tokens.
_PAIR = struct.Struct("=qq")


def csv_lines(rows):
    """CSV text of a 2-D float array in chunks of whole lines; ``%r``
    gives repr's shortest exact digits."""
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    for i in range(0, len(rows), CSV_CHUNK_ROWS):
        chunk = rows[i:i + CSV_CHUNK_ROWS]
        yield (line * len(chunk)) % tuple(chunk.ravel().tolist())


def _two_processes(n):
    """Whether a CSV of ``n`` rows is worth a second process and one may
    be forked safely: at least two chunks, two CPUs and no other
    thread."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    return (n >= 2 * CSV_CHUNK_ROWS and hasattr(os, "fork") and cpus >= 2
            and threading.active_count() == 1)


def _reap(pid, kill=False):
    """Exit status of the child ``pid``, killed first if ``kill``."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


class CSVRows:
    """The rows of one CSV on the grid of ``t_max`` and ``h``, formatted
    while they are computed, as a context manager::

        with CSVRows(t_max, h, 3) as rows:
            traj = integrate_ode(V, y0, dy0, eps, t_max, h, each=rows.chunk)
            write_csv(out, rows, "t,y,dy")

    ``values`` holds the rows, t first, as a float64 array in one shared
    anonymous mmap.  The caller fills them a chunk at a time and ``send``s
    each chunk.  Under ``_two_processes``, a helper forked on entry runs
    ``first`` (if a subclass defines it), then pulls the chunks from a
    pipe and formats them into an unlinked temporary file.  ``write_csv``
    pulls from the same pipe what is left, then writes the header and the
    chunks in order: this process's text, the helper's, or, where there
    is no helper or it failed, text formatted here.  The one process that
    formats a chunk reads it through ``rows``; the bytes are the same
    either way.  A helper still running when the block is left is killed;
    every helper is reaped before it ends.
    """

    first = None

    def __init__(self, t_max, h, columns):
        self.grid = _grid(t_max, h)
        self.values = np.frombuffer(
            mmap.mmap(-1, len(self.grid) * columns * 8)).reshape(
                len(self.grid), columns)
        self.values[:, 0] = self.grid
        self.sent = []
        self.texts = {}
        self.reported = None
        self.pid = self.tmp = None
        self.fds = {}

    def __enter__(self):
        if _two_processes(len(self.grid)):
            self._fork()
        return self

    def _fork(self):
        try:
            self.tmp = tempfile.TemporaryFile()
            self.fds["tokens_r"], self.fds["tokens_w"] = os.pipe()
            self.fds["status_r"], self.fds["status_w"] = os.pipe()
            pid = os.fork()
        except OSError:
            self._close()
            return
        if pid:
            self.pid = pid
            os.close(self.fds.pop("status_w"))
            return
        # leave only through _exit: no buffer of the parent is flushed twice
        # and no atexit hook runs; no collection runs a finaliser of an
        # object the parent owns
        code = 1
        try:
            gc.disable()
            os.close(self.fds["tokens_w"])
            os.close(self.fds["status_r"])
            self._help(self.fds["tokens_r"], self.fds["status_w"])
            code = 0
        finally:
            os._exit(code)

    def _help(self, tokens, status):
        if self.first is not None:
            os.write(status, _PAIR.pack(*self.first()))
        index = []
        while token := os.read(tokens, _PAIR.size):
            start, end = _PAIR.unpack(token)
            text = "".join(csv_lines(self.rows(start, end))).encode("ascii")
            self.tmp.write(text)
            index.append(_PAIR.pack(start, len(text)))
        self.tmp.flush()
        os.write(status, b"".join(index))

    def chunk(self, start, values, truncated):
        """The ``each`` of ``_rk4``: the states of a chunk of rows as the
        columns after t, sent to be formatted."""
        self.values[start:start + len(values), 1:] = values
        self.send(start, start + len(values))

    def send(self, start, end):
        """Rows ``start:end``, now final, to be formatted."""
        self.sent.append((start, end))
        if self.pid is not None:
            os.write(self.fds["tokens_w"], _PAIR.pack(start, end))

    def report(self):
        """What ``first`` returned, from the helper or, where there is none
        or it failed, run here."""
        if self.reported is None:
            if self.pid is not None:
                token = os.read(self.fds["status_r"], _PAIR.size)
                if len(token) == _PAIR.size:
                    self.reported = _PAIR.unpack(token)
            if self.reported is None:
                self.reported = self.first()
        return self.reported

    def rows(self, start, end):
        """Rows ``start:end`` as they are formatted."""
        return self.values[start:end]

    def __len__(self):
        return self.sent[-1][1] if self.sent else 0

    def lines(self):
        """The CSV text of the sent rows in chunks of whole lines: the
        chunks left on the pipe are formatted here, then the helper is
        reaped and its text read back where it exited 0."""
        index = {}
        if self.pid is not None:
            os.close(self.fds.pop("tokens_w"))
            while token := os.read(self.fds["tokens_r"], _PAIR.size):
                start, end = _PAIR.unpack(token)
                self.texts[start] = "".join(csv_lines(self.rows(start, end)))
            data = b"".join(iter(lambda: os.read(self.fds["status_r"],
                                                 1 << 16), b""))
            if _reap(self.pid) == 0:
                index = dict(_PAIR.iter_unpack(data))
            self.pid = None
            self.tmp.seek(0)
        for start, end in self.sent:
            if start in self.texts:
                yield self.texts.pop(start)
            elif start in index:
                # the helper's chunks, in the order it pulled them
                yield self.tmp.read(index[start]).decode("ascii")
            else:
                yield from csv_lines(self.rows(start, end))

    def _close(self):
        for fd in self.fds.values():
            os.close(fd)
        self.fds.clear()
        if self.tmp is not None:
            self.tmp.close()

    def __exit__(self, *exc):
        if self.pid is not None:
            _reap(self.pid, kill=True)
            self.pid = None
        self._close()


class Comparison(CSVRows):
    """The rows t, y_numeric, y_rg, diff of ``compare``, as a CSVRows.

    The helper first integrates the direct ODE from (y0, dy0) into the
    y_numeric column.  ``chunk`` is the ``each`` of the amplitude flow:
    it evaluates y_RG of the expansion of the Cartesian RGSystem on each
    chunk and sends it at once.  ``rows`` fills a chunk's diff where it
    is formatted, once the direct ODE is in: the helper runs it before it
    pulls a chunk, and this process formats only after ``metrics``.
    ``metrics`` checks the full columns and raises in the order of
    ``evaluate_expansion`` then ``require_whole`` of the direct ODE.
    """

    def __init__(self, V, y0, dy0, system, eps, expansion_order, t_max,
                 h=DEFAULT_STEP):
        super().__init__(t_max, h, 4)
        self.ode_args = (V, y0, dy0, eps, t_max, h)
        self.terms = _expansion_terms(system, eps, expansion_order)
        self.imag = np.empty(len(self.grid))

    def first(self):
        traj = integrate_ode(*self.ode_args)
        self.values[:len(traj), 1] = traj.values[:, 0]
        return traj.truncated, len(traj)

    def chunk(self, start, values, truncated):
        if truncated:
            return          # the flow's Diverged comes first
        end = start + len(values)
        signal = _signal(self.terms, self.grid[start:end], values[:, 0],
                         values[:, 1])
        self.values[start:end, 2] = signal.real
        self.imag[start:end] = signal.imag
        self.send(start, end)

    def rows(self, start, end):
        v = self.values[start:end]
        v[:, 3] = v[:, 1] - v[:, 2]
        return v

    def metrics(self):
        """max_abs_diff and rms_diff, once the whole flow is in."""
        v = self.values
        _require_real(self.grid, v[:, 2], self.imag)
        truncated, n = self.report()
        require_whole(Trajectory(self.grid[:n], ("y",), v[:n, 1:2],
                                 truncated), "the direct ODE")
        diff = v[:, 1] - v[:, 2]
        return {"max_abs_diff": float(np.max(np.abs(diff))),
                "rms_diff": float(np.sqrt(np.mean(diff ** 2)))}


def write_csv(out, rows, header="t,y_numeric,y_rg,diff"):
    """The header line and the CSV lines of the CSVRows ``rows`` to the
    open text file ``out``."""
    out.write(header + "\n")
    out.writelines(rows.lines())
