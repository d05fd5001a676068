"""No dead API: every module-level function and class in src/rgpert is
referred to somewhere in src/, or is on an explicit allowlist of names
used only from outside the package."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rgpert"

#: Called by the demos only.
DEMO_NAMES = {"write_gnuplot", "count_envelope_peaks", "example_expansion",
              "find_boundary_root"}
#: Wrapped by name by the benchmark's span tracer (perfbench/spans.py).
#: particular_solution is also the step of the order-by-order oracle
#: (tests/oracles.naive_expand): no code in src/ may solve in t order by
#: order now that expand transports the normal form.
TRACER_NAMES = {"HarmonicSeries", "particular_solution"}


def _names(node):
    """Every name that a Name, Attribute, import or ``__all__`` entry
    under ``node`` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in sub.names)
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in sub.targets)):
            out.update(elt.value for elt in sub.value.elts)
    return out


def _scan():
    """({module-level def or class name: defining files}, the names that
    src/ refers to outside their own definition)."""
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            names = _names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, []).append(
                    str(path.relative_to(SRC)))
                names.discard(node.name)
            used |= names
    return defined, used


def test_every_module_level_name_is_used():
    defined, used = _scan()
    dead = {name: files for name, files in defined.items()
            if name not in used and name not in DEMO_NAMES | TRACER_NAMES}
    assert dead == {}


def test_the_allowlist_names_live_code_used_elsewhere():
    defined, used = _scan()
    allowed = DEMO_NAMES | TRACER_NAMES
    # a deleted or newly used name leaves the allowlist with it
    assert allowed <= set(defined) and not allowed & used
    demos = "".join(p.read_text() for p in (ROOT / "demos").glob("*.py"))
    spans = (ROOT / "perfbench" / "spans.py").read_text()
    for names, text in ((DEMO_NAMES, demos), (TRACER_NAMES, spans)):
        for name in names:
            assert re.search(rf"\b{name}\b", text), name
