"""Self-test of the benchmark on tiny job lists.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, that an untraced run prints
every end-to-end metric and a traced run every per-layer metric, each
with its declared unit; that the exact work counts repeat between two
traced runs; and that corrupting one recorded reference makes the run
report a failed job.  Exits 0 when every check holds.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("algebra.poly.mul.calls", "algebra.poly.mul.term_pairs",
                "potential.eval_potential.calls", "numeric.rk4.steps",
                "mathieu.hill_determinant.calls")
# (workload, reference id, path into the reference, corrupted value)
CORRUPTIONS = (
    ("series-high-order", "limit-cycle-vdp-3", ("sha256",), "0" * 64),
    ("numeric-compare", "compare-nonauto-5",
     ("fingerprint", "max_abs_diff"), 1.0),
)


def bench(workload, trace, seed=1, references=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    if references:
        cmd += ["--references", str(references)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(result, declared, what):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{what}: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: metrics {got} != declared {want}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)),
               f"{what}: {name} is not a number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        result = bench(name, 0)
        check_metrics(result, spec["end_to_end"], f"{name} untraced")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{name}: an end-to-end metric is 0")
        first = bench(name, 1)
        check_metrics(first, spec["per_layer"], f"{name} traced")
        second = bench(name, 1)
        for count in EXACT_COUNTS:
            a = first["metrics"][count]["value"]
            b = second["metrics"][count]["value"]
            expect(a == b, f"{name}: {count} differs between runs: {a} {b}")
        print(f"ok  {name}: metrics, units and exact counts")

    refs = json.loads((HERE / "references.json").read_text())
    (HERE / "results").mkdir(exist_ok=True)
    for workload, ref_id, path, value in CORRUPTIONS:
        corrupt = json.loads(json.dumps(refs))
        node = corrupt[ref_id]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = HERE / "results" / "corrupt-references.json"
        bad.write_text(json.dumps(corrupt))
        result = bench(workload, 0, references=bad)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: corrupt reference {ref_id} went unnoticed")
        print(f"ok  {workload}: corrupt reference {ref_id} fails "
              f"{result['failed']}/{result['attempted']} jobs")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
