"""Output oracles for the benchmark's jobs.

* ``golden``: stdout equals the tests/golden file byte for byte.
* ``digest``: the SHA-256 of stdout equals the digest recorded in
  references.json.
* ``seeded_polar``: an exact library recomputation passes
  ``verify.check_residual`` and ``verify.check_secular_free``, and the
  printed equations are the recomputed ones.
* ``verify``: the command exits 0 and prints only ``pass`` lines.
* ``numeric``: the command exits 0, warns of no truncation, and its
  numbers stay within ``REL_TOL`` of the recorded fingerprint.

Every job must also exit 0.  The checks run outside the timed region.
"""

import hashlib
import math
import re

from rgpert.perturbation import expand
from rgpert.potential import parse_potential
from rgpert.rg import derive_rg, to_polar
from rgpert.verify import check_residual, check_secular_free

# Tolerance on recorded floating-point results.  RK4 and bisection are
# deterministic, so this only absorbs a reordering of float operations.
REL_TOL = 1e-6
ABS_TOL = 1e-9

VERIFY_LINE = re.compile(r"^\w+ @K=\d+: pass$")
VERIFY_CHECKS = 4        # functional_relation, inversion, residual, secular_free
FRACTION = re.compile(r"\d+/(\d+)")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def csv_summary(text):
    """Header, row count and per-column (sum, sum |x|, max |x|)."""
    lines = text.splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    columns = []
    for j in range(len(header.split(","))):
        try:
            values = [float(r[j]) for r in rows]
        except ValueError:          # a label column, e.g. the branch
            continue
        columns.append([math.fsum(values), math.fsum(map(abs, values)),
                        max(map(abs, values), default=0.0)])
    return {"header": header, "rows": len(rows), "columns": columns}


def numeric_fingerprint(stdout, stderr, csv_text):
    """The numbers a numeric job produced, for comparison with a record."""
    fp = {}
    for key in ("max_abs_diff", "rms_diff"):
        m = re.search(rf"^# {key} = (\S+)$", stderr, re.M)
        if m:
            fp[key] = float(m.group(1))
    fp["csv"] = csv_summary(csv_text if csv_text is not None else stdout)
    return fp


def _close(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def observed_reference(job, out):
    """What references.json records for this job, or None."""
    if job.check == "digest":
        return {"sha256": digest(out["stdout"])}
    if job.check == "numeric":
        return {"fingerprint": numeric_fingerprint(
            out["stdout"], out["stderr"], out["csv"])}
    return None


def check(job, out, refs, golden_dir):
    """None when the job's output is correct, else the reason it is not."""
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'][-300:]}"
    stdout = out["stdout"]
    if job.check == "golden":
        want = (golden_dir / job.id).read_bytes()
        return None if stdout.encode() == want else "differs from golden file"
    if job.check == "verify":
        lines = stdout.splitlines()
        if len(lines) != VERIFY_CHECKS or not all(
                VERIFY_LINE.match(line) for line in lines):
            return f"identity report not all pass: {stdout!r}"
        return None
    if job.check == "seeded_polar":
        return _check_seeded_polar(job, stdout)
    ref = refs.get(job.id)
    if ref is None:
        return "no recorded reference"
    observed = observed_reference(job, out)
    if job.check == "numeric" and "truncated" in out["stderr"]:
        return "trajectory truncated"
    if not _close(observed, ref):
        return "differs from recorded reference"
    return None


def _check_seeded_polar(job, stdout):
    Y = expand(parse_potential(job.potential), job.order)
    rgsys = derive_rg(Y)
    for report in (check_residual(Y), check_secular_free(rgsys)):
        if not report.passed:
            return str(report)
    pol = to_polar(rgsys)
    want = [f"d log R/dt = {pol.dlogR_dt}", f"d theta/dt = {pol.dtheta_dt}"]
    if stdout.splitlines()[:2] != want:
        return "printed equations differ from the recomputation"
    return None


def den_bits_max(texts):
    """Largest denominator, in bits, among the fractions in ``texts``."""
    return max((int(m.group(1)).bit_length()
                for text in texts for m in FRACTION.finditer(text)),
               default=0)
