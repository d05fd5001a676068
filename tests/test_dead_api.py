"""No dead API: every module-level function and class, and every method
of a module-level class, in src/rgpert is referred to somewhere in src/,
or is on an explicit allowlist of names used only from outside the
package.  Special methods (``__add__`` and the like) are called by the
language, not by name, and are not checked."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rgpert"

#: Wrapped by name by the benchmark's span tracer (perfbench/spans.py).
#: particular_solution is also the step of the order-by-order oracle
#: (tests/oracles.naive_expand): no code in src/ may solve in t order by
#: order now that expand transports the normal form.  evaluate_expansion
#: is y_RG of a whole flow for the tests; compare evaluates the same
#: signal a chunk at a time.
TRACER_NAMES = {"HarmonicSeries", "HarmonicSeries.mul", "particular_solution",
                "evaluate_expansion"}

#: Overrides that a library calls by name: argparse's help action calls
#: the parser's print_help.
HOOK_NAMES = {"_Parser.print_help"}


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


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _scan():
    """({name or Class.method: defining files}, the names that src/
    refers to outside their own definition)."""
    defined, used = {}, set()

    def define(key, path):
        defined.setdefault(key, []).append(str(path.relative_to(SRC)))

    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not _is_def(node):
                used |= _names(node)
                continue
            define(node.name, path)
            if not isinstance(node, ast.ClassDef):
                used |= _names(node) - {node.name}
                continue
            # a class: the bases, decorators and each statement of its
            # body, every method without its own name
            for part in (*node.bases, *node.keywords, *node.decorator_list):
                used |= _names(part)
            for stmt in node.body:
                names = _names(stmt)
                if _is_def(stmt):
                    names.discard(stmt.name)
                    if not (stmt.name.startswith("__")
                            and stmt.name.endswith("__")):
                        define(f"{node.name}.{stmt.name}", path)
                used |= names - {node.name}
    return defined, used


def _is_used(key, used):
    return key.rpartition(".")[2] in used


def test_every_module_level_name_is_used():
    defined, used = _scan()
    dead = {key: files for key, files in defined.items()
            if not _is_used(key, used)
            and key not in TRACER_NAMES | HOOK_NAMES}
    assert dead == {}


def test_the_allowlist_names_live_code_used_elsewhere():
    defined, used = _scan()
    # a deleted or newly used name leaves the allowlist with it
    assert TRACER_NAMES <= set(defined)
    assert not any(_is_used(key, used) for key in TRACER_NAMES)
    spans = (ROOT / "perfbench" / "spans.py").read_text()
    for key in TRACER_NAMES:
        assert re.search(rf"\b{re.escape(key)}\b", spans), key


def test_the_hook_names_are_defined_and_unused_in_src():
    defined, used = _scan()
    # a deleted or newly used name leaves the allowlist with it
    assert HOOK_NAMES <= set(defined)
    assert not any(_is_used(key, used) for key in HOOK_NAMES)
