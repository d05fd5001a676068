"""Built-in example oscillators addressable by name."""

from dataclasses import dataclass

from .potential import parse_potential


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
