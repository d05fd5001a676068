"""Span tracing of rgpert's layers from outside the package.

The tracer replaces public functions and methods of rgpert with wrappers
that record one span per call: name, start, end, parent span and job id,
plus an optional work count (term pairs of a polynomial multiply, RK4
steps).  Spans are kept in flat arrays in memory and written out once the
run ends.  Nothing under ``src/`` changes; ``uninstall`` restores every
original binding.

Two binding rules of the package matter here:

* modules such as ``cli.py`` and ``mathieu.py`` bind names with
  ``from .x import f``, so a function wrapper replaces the name in every
  ``rgpert`` module namespace that holds the same object;
* ``*`` and ``+`` resolve through the class, so the class attribute is
  wrapped, together with every alias of it (``__rmul__ = __mul__``).
"""

import functools
import gzip
import sys
from array import array
from time import perf_counter


def _poly_pairs(args):
    """Gaussian-rational multiplies done by ParamPolynomial.__mul__."""
    a, b = args
    if hasattr(b, "terms"):
        return len(a.terms) * len(b.terms)
    if hasattr(b, "coeffs"):     # a series: NotImplemented, then __rmul__
        return 0
    return len(a.terms)          # a scalar: one multiply per term


def _rk4_steps(args):
    return len(args[2]) - 1


# (span name, module, attribute path, work counter).  Every layer of the
# package from the coefficient kernel up to the CLI entry point.
TARGETS = (
    ("algebra.poly.mul", "rgpert.algebra.poly", "ParamPolynomial.__mul__",
     _poly_pairs),
    ("algebra.poly.add", "rgpert.algebra.poly", "ParamPolynomial.__add__",
     None),
    ("algebra.poly.subs", "rgpert.algebra.poly", "ParamPolynomial.subs",
     None),
    ("algebra.series.mul", "rgpert.algebra.series", "EpsilonSeries.__mul__",
     None),
    ("algebra.series.substitute", "rgpert.algebra.series", "substitute",
     None),
    ("algebra.series.solve_root", "rgpert.algebra.series",
     "series_solve_root", None),
    ("potential.parse", "rgpert.potential", "parse_potential", None),
    ("potential.eval_potential", "rgpert.potential", "eval_potential", None),
    ("potential.harmonic_mul", "rgpert.potential", "HarmonicSeries.mul",
     None),
    ("perturbation.expand", "rgpert.perturbation", "expand", None),
    ("perturbation.particular_solution", "rgpert.perturbation",
     "particular_solution", None),
    ("rg.derive_rg", "rgpert.rg", "derive_rg", None),
    ("rg.to_polar", "rgpert.rg", "to_polar", None),
    ("rg.limit_cycle", "rgpert.rg", "limit_cycle", None),
    ("verify.functional_relation", "rgpert.verify",
     "check_functional_relation", None),
    ("verify.inversion", "rgpert.verify", "check_inversion", None),
    ("verify.residual", "rgpert.verify", "check_residual", None),
    ("verify.secular_free", "rgpert.verify", "check_secular_free", None),
    ("mathieu.analyze", "rgpert.mathieu", "analyze", None),
    ("mathieu.boundary_crosscheck", "rgpert.mathieu", "boundary_crosscheck",
     None),
    ("mathieu.hill_determinant", "rgpert.mathieu", "hill_determinant", None),
    ("numeric.integrate_ode", "rgpert.numeric", "integrate_ode", None),
    ("numeric.integrate_rg", "rgpert.numeric", "integrate_rg", None),
    ("numeric.rk4", "rgpert.numeric", "_rk4", _rk4_steps),
    ("numeric.evaluate_expansion", "rgpert.numeric", "evaluate_expansion",
     None),
    ("numeric.write_csv", "rgpert.numeric", "write_csv", None),
    ("cli.main", "rgpert.cli", "main", None),
)


class Tracer:
    """Records spans for the calls into TARGETS while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.job = array("i")
        self.parent = array("l")
        self.nested = array("b")     # a same-name span is already open
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.current_job = -1
        self._stack = []
        self._depth = [0] * len(TARGETS)
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        for nid, (_, modname, path, counter) in enumerate(TARGETS):
            module = sys.modules[modname]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(nid, original, counter)
                # every alias in the class body, e.g. __rmul__ = __mul__
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._replace(owner, key, original, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(nid, original, counter)
                # every `from .x import f` binding inside the package
                for mname, mod in list(sys.modules.items()):
                    if mod is None or not (mname == "rgpert"
                                           or mname.startswith("rgpert.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)
        return self

    def _replace(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, nid, fn, counter):
        stack = self._stack
        depth = self._depth
        name_id, job, parent = self.name_id, self.job, self.parent
        nested, start, end, work = (self.nested, self.start, self.end,
                                    self.work)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            job.append(self.current_job)
            parent.append(stack[-1] if stack else -1)
            d = depth[nid]
            nested.append(1 if d else 0)
            work.append(counter(args) if counter is not None else 0)
            end.append(0.0)
            depth[nid] = d + 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[nid] = d

        return traced

    # -- aggregation ------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, work.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice.  Self time is a span's
        duration minus the time its direct child spans cover.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row["work"] += self.work[i]
            if not self.nested[i]:
                row["s"] += dur
        return out

    def write(self, path):
        """All spans as gzip CSV: name,job,parent,start,end,work."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,job,parent,start,end,work\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.job[i]},"
                         f"{self.parent[i]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.work[i]}\n")
