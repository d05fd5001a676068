"""The benchmark's workloads: lists of rgpert CLI commands.

Each job is one ``rgpert.cli.main(argv)`` call together with the oracle
that checks its output.  No job goes through
``rgpert.registry.example_expansion``, whose cache would serve repeats
from memory: every job is a plain CLI call, and every run of a job list
starts in a fresh process.

The seeded DSL potentials come from this file's own generator, not from
``rgpert.verify.random_potential``, so that a change to the package
cannot silently change the workload.
"""

import math
import random
from dataclasses import dataclass

from rgpert.errors import NotInClass, TrivialLinear
from rgpert.potential import parse_potential

PERIOD = 2 * math.pi


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``check`` names the oracle in checks.py."""
    id: str
    argv: tuple
    check: str                  # golden | digest | seeded_polar | verify | numeric
    headline: bool = False
    potential: str | None = None    # seeded jobs: the generated DSL string
    order: int | None = None        # seeded jobs: the truncation order


def _argv(text):
    return tuple(text.split())


# Jobs whose argv matches a tests/golden entry; the id is the file name.
GOLDEN = (
    ("vdp_expand_order3.txt", "expand --example vdp --order 3"),
    ("vdp_polar_order8.txt", "polar --example vdp --order 8"),
    ("vdp_limit_cycle_order7.txt", "limit-cycle --example vdp --order 7"),
    ("duffing_polar_order5.txt",
     "polar --example duffing --bind g=1 --order 5"),
    ("rayleigh_polar_order6.txt", "polar --example rayleigh --order 6"),
    ("nonauto_polar_order4.txt", "polar --example nonauto --order 4"),
    ("nonauto_rg_order4.txt", "rg --example nonauto --order 4"),
    ("mathieu_order5.txt", "mathieu --order 5"),
)

# The root search in rg.limit_cycle costs about sqrt(|c|) trial divisions
# for this coefficient; this job is where that cost shows.
LARGE_COEFF = "(100000000000000 - y^2)*y'"


# ---------------------------------------------------------------------------
# Seeded potentials
# ---------------------------------------------------------------------------

COEFFS = ("1", "2", "3", "1/2", "3/2", "1/3", "2/3", "1/4", "3/4")

# Term shapes as (|k|, l+m): an autonomous cubic term and a linear term
# with a cos/sin(2t) factor.  Both give harmonic growth rate 2, which keeps
# the cost of one job within about +-15% across seeds.
SHAPE = ((0, 3), (2, 1))


def _term(rng, k, degree):
    l = rng.randint(0, degree)
    m = degree - l
    factors = [rng.choice(COEFFS)]
    if l:
        factors.append("y" if l == 1 else f"y^{l}")
    if m:
        factors.append("y'" if m == 1 else f"y'^{m}")
    if k:
        factors.append(f"{rng.choice(('cos', 'sin'))}({k}t)")
    return rng.choice("+-"), "*".join(factors)


def random_potential(rng, rejected):
    """A real-coefficient DSL string in the admissible class.

    Coefficients are small rationals, |k| <= 2 and l+m <= 3.  A string the
    parser rejects with a typed error is recorded in ``rejected`` and
    drawn again.
    """
    while True:
        terms = [_term(rng, k, degree) for k, degree in SHAPE]
        sign, first = terms[0]
        text = ("-" if sign == "-" else "") + first
        text += "".join(f" {s} {t}" for s, t in terms[1:])
        try:
            parse_potential(text)
        except (TrivialLinear, NotInClass) as exc:
            rejected.append(f"{text}: {type(exc).__name__}")
            continue
        return text


def _seeded(rng, rejected, command, order, count):
    jobs = []
    for i in range(count):
        text = random_potential(rng, rejected)
        check = "seeded_polar" if command == "polar" else "verify"
        jobs.append(Job(f"seeded-{command}-{order}-{i}",
                        (command, f"--potential={text}", "--order",
                         str(order)),
                        check, potential=text, order=order))
    return jobs


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

def _golden_jobs():
    return [Job(name, _argv(text), "golden") for name, text in GOLDEN]


def series_high_order(rng, rejected, tiny):
    if tiny:
        return [Job(GOLDEN[0][0], _argv(GOLDEN[0][1]), "golden",
                    headline=True),
                Job("limit-cycle-vdp-3",
                    _argv("limit-cycle --example vdp --order 3"), "digest"),
                *_seeded(rng, rejected, "polar", 3, 1)]
    return [*_golden_jobs(),
            Job("mathieu-7", _argv("mathieu --order 7"), "digest"),
            Job("limit-cycle-vdp-9",
                _argv("limit-cycle --example vdp --order 9"), "digest",
                headline=True),
            Job("limit-cycle-large-coeff",
                ("limit-cycle", f"--potential={LARGE_COEFF}", "--order", "3"),
                "digest"),
            *_seeded(rng, rejected, "polar", 5, 2)]


def identity_verify(rng, rejected, tiny):
    if tiny:
        return [Job("verify-vdp-2", _argv("verify --example vdp --order 2"),
                    "verify", headline=True),
                *_seeded(rng, rejected, "verify", 2, 1)]
    return [Job("verify-vdp-5", _argv("verify --example vdp --order 5"),
                "verify", headline=True),
            Job("verify-rayleigh-4",
                _argv("verify --example rayleigh --order 4"), "verify"),
            Job("verify-duffing-4",
                _argv("verify --example duffing --bind g=1 --order 4"),
                "verify"),
            Job("verify-nonauto-4",
                _argv("verify --example nonauto --order 4"), "verify"),
            Job("verify-mathieu-4",
                _argv("verify --example mathieu --bind g=1 --order 4"),
                "verify"),
            # K=3: at K=4 one seeded potential of SHAPE costs 6-10 s.
            *_seeded(rng, rejected, "verify", 3, 2)]


def _tmax(periods):
    return repr(periods * PERIOD)


def numeric_compare(rng, rejected, tiny):
    # ``{out}`` is replaced by a fresh CSV path when the job runs.
    periods = 5 if tiny else 200
    jobs = [
        Job(f"compare-nonauto-{periods}", (
            "compare", "--example", "nonauto", "--order", "4",
            "--eps", "0.25", "--R0", "0.2", "--theta0", "-0.1",
            "--rg-order", "2", "--tmax", _tmax(periods), "--out", "{out}"),
            "numeric", headline=True)]
    if tiny:
        jobs.append(Job("mathieu-crosscheck-tiny", _argv(
            "mathieu --order 3 --crosscheck eps=0.1:0.2,N=6"), "numeric"))
        return jobs
    eps = ":".join(f"{0.01 * i:.2f}" for i in range(1, 51))
    return jobs + [
        Job("compare-vdp-limit-cycle", _argv(
            "compare --example vdp --order 4 --eps 0.1 --R0 1 --theta0 0 "
            f"--rg-order 4 --expansion-order 4 --tmax {_tmax(100)} "
            "--out {out}"), "numeric"),
        Job("simulate-vdp-direct", _argv(
            "simulate --example vdp --eps 0.1 --y0 2 --dy0 0 "
            f"--tmax {_tmax(200)} --out {{out}}"), "numeric"),
        Job("simulate-vdp-flow", _argv(
            "simulate --example vdp --order 4 --eps 0.1 --R0 0.5 "
            f"--theta0 0 --rg-order 4 --tmax {_tmax(200)} --out {{out}}"),
            "numeric"),
        Job("mathieu-crosscheck", _argv(
            f"mathieu --order 5 --crosscheck eps={eps},N=40"), "numeric"),
    ]


WORKLOADS = {
    "series-high-order": series_high_order,
    "identity-verify": identity_verify,
    "numeric-compare": numeric_compare,
}


def build(workload, seed, tiny=False):
    """(jobs, rejected potentials) of one workload for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    rejected = []
    jobs = WORKLOADS[workload](rng, rejected, tiny)
    return jobs, rejected
