"""rgpert benchmark: three workloads of rgpert CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one table
    python3 perfbench/run.py --record         # re-record references.json

Each run of a job list happens in a fresh single-threaded process
(worker.py), so no state carries across runs or workloads.  With
``--trace 0`` the job list runs again, each time in a new process, while
another run still fits in ``--seconds``; the end-to-end metrics are
medians over those runs, and set-up is also timed in a few processes that
only set up.  Times are scaled to a nominal host speed sampled while each
job runs (speed.py), because the host's speed drifts by tens of percent
within seconds; the unscaled figures go to the results file and the
table.  With ``--trace 1`` one untraced and one traced run give the
per-layer metrics, unscaled, and the tracing overhead.

Every job's output is checked (checks.py).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The per-job times, the generated potentials and the run metadata go to
``perfbench/results/`` and to the line before it; a metric table goes to
stderr.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCES = HERE / "references.json"
WORKLOADS = ("series-high-order", "identity-verify", "numeric-compare")

RUN_LIMIT_S = 170         # a run must end within 180 s
SETUP_ONLY_RUNS = 9       # extra set-up samples per measurement

WORKER_ENV = {
    "PYTHONHASHSEED": "0",            # same set iteration order in every run
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("headline_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# (metric, unit, span name, field of Tracer.summary)
SPAN_METRICS = (
    ("algebra.poly.mul.calls", "count", "algebra.poly.mul", "calls"),
    ("algebra.poly.mul.term_pairs", "count", "algebra.poly.mul", "work"),
    ("algebra.poly.mul.self_s", "s", "algebra.poly.mul", "self_s"),
    ("algebra.poly.add.calls", "count", "algebra.poly.add", "calls"),
    ("algebra.poly.add.self_s", "s", "algebra.poly.add", "self_s"),
    ("algebra.poly.subs.calls", "count", "algebra.poly.subs", "calls"),
    ("algebra.poly.subs.self_s", "s", "algebra.poly.subs", "self_s"),
    ("algebra.series.mul.calls", "count", "algebra.series.mul", "calls"),
    ("algebra.series.mul.self_s", "s", "algebra.series.mul", "self_s"),
    ("algebra.series.substitute.calls", "count",
     "algebra.series.substitute", "calls"),
    ("algebra.series.substitute.self_s", "s",
     "algebra.series.substitute", "self_s"),
    ("algebra.series.solve_root.s", "s", "algebra.series.solve_root", "s"),
    ("potential.parse.s", "s", "potential.parse", "s"),
    ("potential.eval_potential.calls", "count",
     "potential.eval_potential", "calls"),
    ("potential.eval_potential.self_s", "s",
     "potential.eval_potential", "self_s"),
    ("potential.harmonic_mul.calls", "count",
     "potential.harmonic_mul", "calls"),
    ("potential.harmonic_mul.self_s", "s",
     "potential.harmonic_mul", "self_s"),
    ("perturbation.expand.s", "s", "perturbation.expand", "s"),
    ("perturbation.particular_solution.self_s", "s",
     "perturbation.particular_solution", "self_s"),
    ("rg.derive_rg.s", "s", "rg.derive_rg", "s"),
    ("rg.to_polar.s", "s", "rg.to_polar", "s"),
    ("rg.limit_cycle.s", "s", "rg.limit_cycle", "s"),
    ("verify.functional_relation.s", "s", "verify.functional_relation", "s"),
    ("verify.inversion.s", "s", "verify.inversion", "s"),
    ("verify.residual.s", "s", "verify.residual", "s"),
    ("verify.secular_free.s", "s", "verify.secular_free", "s"),
    ("mathieu.analyze.s", "s", "mathieu.analyze", "s"),
    ("mathieu.boundary_crosscheck.s", "s", "mathieu.boundary_crosscheck",
     "s"),
    ("mathieu.hill_determinant.calls", "count", "mathieu.hill_determinant",
     "calls"),
    ("numeric.integrate_ode.s", "s", "numeric.integrate_ode", "s"),
    ("numeric.integrate_rg.s", "s", "numeric.integrate_rg", "s"),
    ("numeric.rk4.steps", "count", "numeric.rk4", "work"),
    ("numeric.evaluate_expansion.s", "s", "numeric.evaluate_expansion", "s"),
    ("numeric.write_csv.s", "s", "numeric.write_csv", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)

# Per-layer metrics derived from more than one span field or from outputs.
DERIVED_METRICS = (
    ("algebra.poly.mul.ns_per_pair", "ns"),
    ("algebra.rationals.den_bits_max", "bits"),
    ("numeric.rk4.us_per_step", "us"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


class RunError(Exception):
    """A worker process failed; the run prints no result."""


def run_worker(workload, seed, deadline, tiny=False, references=REFERENCES,
               mode="run", trace_out=None):
    """Start one fresh worker and wait for it; returns (result, setup_s)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--references", str(references),
           "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RunError("no time left for another worker")
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT,
                              env={**os.environ, **WORKER_ENV})
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} worker did not finish within "
                       f"{timeout:.0f} s")
    if proc.returncode != 0:
        raise RunError(f"{workload} worker exited with {proc.returncode}:\n"
                       f"{proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunError(f"{workload} worker printed no result:\n"
                       f"{proc.stdout[-500:]}{proc.stderr[-1500:]}")
    setup_s = result["ready_at"] - spawned_at
    return result, {"raw": setup_s, "scaled": setup_s * result["setup_scale"]}


def wall_time(rep):
    return sum(job["time_s"] for job in rep["jobs"])


def end_to_end(reps, setups, kind):
    """Medians over the runs of one job list; wall_s sums per-job medians.

    ``kind`` is "scaled" (times at the probe's nominal host speed, the
    reported metrics) or "raw" (seconds as the clock read them).
    """
    key = "scaled_s" if kind == "scaled" else "time_s"
    per_job = {}
    for rep in reps:
        for job in rep["jobs"]:
            per_job.setdefault(job["id"], []).append(job[key])
    headline = [job[key] for rep in reps for job in rep["jobs"]
                if job["headline"]]
    return {
        "setup_s": statistics.median(s[kind] for s in setups),
        "wall_s": sum(statistics.median(t) for t in per_job.values()),
        "headline_s": statistics.median(headline),
        "peak_rss_mib": statistics.median(
            rep["peak_rss_kib"] for rep in reps) / 1024,
    }


def per_layer(traced, untraced):
    layers = traced["layers"]
    out = {name: layers[span][field]
           for name, _, span, field in SPAN_METRICS}
    pairs = out["algebra.poly.mul.term_pairs"]
    steps = out["numeric.rk4.steps"]
    out.update({
        "algebra.poly.mul.ns_per_pair":
            out["algebra.poly.mul.self_s"] * 1e9 / pairs if pairs else 0.0,
        "algebra.rationals.den_bits_max": traced["den_bits_max"],
        "numeric.rk4.us_per_step":
            layers["numeric.rk4"]["s"] * 1e6 / steps if steps else 0.0,
        "cli.output_bytes": sum(j["output_bytes"] for j in traced["jobs"]),
        "trace.overhead_ratio": wall_time(traced) / wall_time(untraced),
    })
    return out


def metadata(rep):
    commit = None
    if (ROOT / ".git").exists():      # not an enclosing repository's commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "rgpert").rglob("*.py")))
    return {**rep["meta"], "nproc": os.cpu_count(), "commit": commit,
            "src_rgpert_lines": src_lines}


def run_workload(workload, seed, seconds, trace, tiny=False,
                 references=REFERENCES):
    """Measure one workload; returns the full result record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    kw = {"tiny": tiny, "references": references}
    raw = {}
    if trace:
        untraced, s1 = run_worker(workload, seed, deadline, **kw)
        traced, s2 = run_worker(workload, seed, deadline,
                                trace_out=RESULTS / f"{stem}.spans.csv.gz",
                                **kw)
        reps, setups = [untraced, traced], [s1, s2]
        units = {name: unit for name, unit, *_ in SPAN_METRICS}
        units.update(DERIVED_METRICS)
        values = per_layer(traced, untraced)
    else:
        reps, setups = [], []
        began = time.perf_counter()
        while True:
            rep_began = time.perf_counter()
            rep, setup = run_worker(workload, seed, deadline, **kw)
            reps.append(rep)
            setups.append(setup)
            now = time.perf_counter()
            if now - began + (now - rep_began) > seconds:
                break
        for _ in range(SETUP_ONLY_RUNS):
            setups.append(run_worker(workload, seed, deadline,
                                     mode="setup", **kw)[1])
        units = dict(END_TO_END)
        values = end_to_end(reps, setups, "scaled")
        raw = end_to_end(reps, setups, "raw")

    jobs = [job for rep in reps for job in rep["jobs"]]
    failed = [job for job in jobs if job["failure"]]
    summary = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
        "meta": metadata(reps[0]),
        "runs": len(reps),
        "unscaled_metrics": raw,
        "setup_samples_s": setups,
        "failed_ratio": len(failed) / len(jobs),
        "failures": [{"id": j["id"], "reason": j["failure"]} for j in failed],
        "potentials": reps[0]["potentials"],
        "rejected_potentials": reps[0]["rejected"],
        "job_times_s": [{j["id"]: j["time_s"] for j in rep["jobs"]}
                        for rep in reps],
        "job_scaled_times_s": [{j["id"]: j["scaled_s"] for j in rep["jobs"]}
                               for rep in reps],
        "speed_samples": [rep["speed_samples"] for rep in reps],
        "result": summary,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def print_table(records):
    for rec in records:
        res = rec["result"]
        print(f"{rec['workload']} (seed {rec['seed']}, {rec['runs']} runs, "
              f"{rec['meta']['rational_backend']} backend)", file=sys.stderr)
        for name, m in res["metrics"].items():
            unscaled = rec["unscaled_metrics"].get(name)
            note = (f"  (unscaled {unscaled:.6g})"
                    if unscaled is not None and name != "peak_rss_mib"
                    else "")
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{note}",
                  file=sys.stderr)
        print(f"  {'failed_ratio':42s} {rec['failed_ratio']:>14.6g} "
              f"fraction ({res['failed']}/{res['attempted']})",
              file=sys.stderr)
        for f in rec["failures"]:
            print(f"  FAILED {f['id']}: {f['reason']}", file=sys.stderr)


def record_references():
    """Run every job list once and store its digests and fingerprints."""
    deadline = time.perf_counter() + 3600
    refs = {}
    RESULTS.mkdir(exist_ok=True)
    empty = RESULTS / "no-references.json"
    empty.write_text("{}")
    for workload in WORKLOADS:
        for tiny in (False, True):
            rep, _ = run_worker(workload, 0, deadline, tiny=tiny,
                                references=empty, mode="record")
            bad = [j for j in rep["jobs"] if j["failure"]]
            if bad:
                raise RunError(f"{workload}: cannot record over failures "
                               f"{[(j['id'], j['failure']) for j in bad]}")
            refs.update(rep["observed"])
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} references in {REFERENCES}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny job lists, for the self-test")
    ap.add_argument("--references", type=pathlib.Path, default=REFERENCES)
    ap.add_argument("--record", action="store_true",
                    help="re-record the reference digests and fingerprints")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record_references()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(name, args.seed, args.seconds, args.trace,
                                args.tiny, args.references)
                   for name in names]
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_table(records)
    for rec in records:
        print(json.dumps({"workload": rec["workload"], "meta": rec["meta"],
                          "potentials": rec["potentials"]}))
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({rec["workload"]: rec["result"] for rec in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
