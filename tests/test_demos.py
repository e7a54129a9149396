"""Every demo runs to completion, as a script, against the source tree, and
a demo with a golden under ``tests/golden/`` prints it byte for byte."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def golden(demo: Path) -> Path:
    return GOLDEN / f"demo_{demo.stem}.txt"


def test_demos_found():
    assert DEMOS, "an empty list would leave test_demo_runs with nothing to run"
    assert golden(ROOT / "demos" / "sharing_and_experts.py").is_file()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
    if golden(demo).is_file():
        assert proc.stdout == golden(demo).read_text("utf-8")


#: A tour line whose comment opens with a figure: the figure is its value.
FIGURED = re.compile(r"(?P<expr>\S.*?)\s+# (?P<figure>\d[\d.]*)\b")


def test_readme_library_tour_runs():
    """README's library tour runs from the repo root, so it never names a
    function the package no longer has, and each figure its comments state
    is its line's value to the digits shown."""
    readme = (ROOT / "README.md").read_text("utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "compute_profile" in tour and "to_json" in tour
    lines, figures = [], []
    for line in tour.splitlines():
        figured = FIGURED.match(line)
        if figured:
            figures.append(figured["figure"])
            line = f"print(repr({figured['expr']}))"
        lines.append(line)
    (moe_gflops,) = re.findall(r"at (\d[\d.]*) GFLOPs", tour)
    figures.append(moe_gflops)
    lines.append("print(repr(count_flops(moe).gflops))")
    assert figures == ["86.57", "17.56", "8.60", "284.95", "86567656", "23.15"]
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    values = [ast.literal_eval(v) for v in proc.stdout.splitlines()]
    assert [f"{v:.{len(f.partition('.')[2])}f}" for v, f in zip(values, figures)] == figures


def test_every_demo_has_a_golden():
    """No demo's printed figures go unchecked."""
    assert [demo.stem for demo in DEMOS if not golden(demo).is_file()] == []
