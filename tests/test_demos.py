"""Every demo script runs to completion and prints its recorded output,
byte for byte; demo 05 also writes its recorded CSV and gnuplot script.
The records are in tests/golden/demos: ``<demo>.txt`` for the stdout of
``<demo>.py``, and ``05_<file>`` for each file demo 05 writes."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"
#: The files a demo writes to its working directory.
WRITES = {"05_numeric_comparison": ["comparison.csv", "comparison.gp"]}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # run in a scratch directory, where demo 05 writes its files
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
    written = WRITES.get(demo.stem, [])
    assert sorted(path.name for path in tmp_path.iterdir()) == written
    for name in written:
        number = demo.stem.partition("_")[0]
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / f"{number}_{name}").read_bytes(), name
