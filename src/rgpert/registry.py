"""Built-in example oscillators addressable by name."""

from dataclasses import dataclass
from functools import lru_cache

from .potential import parse_potential
from .perturbation import expand


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    dsl: str
    params: tuple
    note: str

    def potential(self):
        return parse_potential(self.dsl, self.params)


EXAMPLES = {
    "vdp": ExampleSpec(
        "vdp", "(1 - y^2)*y'", (),
        "van der Pol oscillator"),
    "mathieu": ExampleSpec(
        "mathieu", "(g + 2*cos(1t))*(-y)", ("g",),
        "parametric resonance with detuning g"),
    "duffing": ExampleSpec(
        "duffing", "-y' - g*y^3", ("g",),
        "damped Duffing oscillator"),
    "rayleigh": ExampleSpec(
        "rayleigh", "y' - 1/3*y'^3", (),
        "Rayleigh oscillator"),
    "nonauto": ExampleSpec(
        "nonauto", "2*y*y'*cos(1t)", (),
        "nonautonomous oscillator with periodic forcing"),
}


def get_example(name):
    try:
        return EXAMPLES[name]
    except KeyError:
        raise KeyError(
            f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")


@lru_cache(maxsize=None)
def _expand_cached(name, order, bindings):
    V = get_example(name).potential()
    if bindings:
        V = V.bind(dict(bindings))
    return expand(V, order)


def example_expansion(name, order, bindings=None):
    """Naive series of a registry example; results are cached."""
    items = tuple(sorted((bindings or {}).items()))
    return _expand_cached(name, order, items)
