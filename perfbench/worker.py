"""One fresh process that runs one workload's job list once.

    python3 perfbench/worker.py --workload NAME --seed N --references PATH
        [--tiny] [--mode run|setup|record] [--trace-out SPANS.csv.gz]

run.py starts this script; it is not meant to be called by hand.  Set-up
ends when rgpert is imported and the workload's inputs are generated and
parsed; the script reports that instant as ``ready_at`` on the
system-wide monotonic clock, so the caller can time set-up from the
moment it started the process.  With ``--mode setup`` it stops there.

Otherwise every job runs in turn through ``rgpert.cli.main(argv)`` with
stdout and stderr captured, and is timed from the call until it returns.
The output checks run after the last job, outside the timed region.  The
result is one JSON object on stdout.

Every job's time is also reported scaled to a nominal host speed, which
a sampler measures while the job runs (speed.py).  The sampler is off in
traced runs.
"""

import argparse
import contextlib
import gc
import io
import json
import pathlib
import platform
import resource
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
sys.path.insert(0, str(SRC))

import rgpert                                         # noqa: E402
import rgpert.cli                                     # noqa: E402

if not pathlib.Path(rgpert.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"rgpert imported from {rgpert.__file__}, not {SRC}")

import numpy                                          # noqa: E402
from rgpert.algebra import rationals                  # noqa: E402

import checks                                         # noqa: E402
import speed                                          # noqa: E402
import workloads                                      # noqa: E402
from spans import Tracer                              # noqa: E402


def run_job(job, tmpdir, index):
    """Run one CLI call; its time excludes capture set-up and checks."""
    csv_path = None
    argv = list(job.argv)
    if "{out}" in argv:
        csv_path = pathlib.Path(tmpdir) / f"job{index}.csv"
        argv[argv.index("{out}")] = str(csv_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            code = rgpert.cli.main(argv)
        except SystemExit as exc:               # argparse usage errors
            code = exc.code
        except Exception:                       # a crash fails this job only
            code = -1
            traceback.print_exc()
        t1 = time.perf_counter()
    csv_text = None
    if csv_path is not None and csv_path.exists():
        csv_text = csv_path.read_text()
        csv_path.unlink()
    return (t0, t1), {"code": code, "stdout": stdout.getvalue(),
                      "stderr": stderr.getvalue(), "csv": csv_text}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--references", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--mode", default="run", choices=["run", "setup", "record"])
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    jobs, rejected = workloads.build(args.workload, args.seed, args.tiny)
    ready_at = time.perf_counter()
    # Set-up is too short for the timer: sample the speed right after it.
    sampler = speed.Sampler()
    sampler.extra(speed.MIN_SAMPLES)
    result = {"ready_at": ready_at,
              "setup_scale": sampler.window(ready_at, time.perf_counter())[1]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = Tracer().install() if args.trace_out else None
    if not tracer:
        sampler.start()
    outputs, spans = [], []
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "results") as tmp:
        for i, job in enumerate(jobs):
            if tracer:
                tracer.current_job = i
            span, out = run_job(job, tmp, i)
            outputs.append(out)
            spans.append(span)
    sampler.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows = []
    for job, out, (t0, t1) in zip(jobs, outputs, spans):
        probing, scale = sampler.window(t0, t1)
        rows.append({"id": job.id, "time_s": t1 - t0 - probing,
                     "scaled_s": (t1 - t0 - probing) * scale,
                     "code": out["code"], "headline": job.headline,
                     "output_bytes": len(out["stdout"].encode())
                     + len(out["stderr"].encode())})
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace_out)
        result["layers"] = tracer.summary()

    refs = json.loads(pathlib.Path(args.references).read_text())
    if args.mode == "record":
        result["observed"] = {}
        for job, out in zip(jobs, outputs):
            ref = checks.observed_reference(job, out)
            if ref is not None:
                result["observed"][job.id] = refs[job.id] = ref
    for job, out, row in zip(jobs, outputs, rows):
        row["failure"] = checks.check(job, out, refs, GOLDEN_DIR)

    result.update({
        "jobs": rows,
        "peak_rss_kib": peak_kib,
        "speed_samples": len(sampler.took),
        "den_bits_max": checks.den_bits_max(
            out["stdout"] for job, out in zip(jobs, outputs)
            if job.check != "numeric"),
        "potentials": [job.potential for job in jobs if job.potential],
        "rejected": rejected,
        "meta": {"rational_backend": rationals.Rat.__module__,
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
