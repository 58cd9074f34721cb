"""Smoke test: every demo runs to completion and prints its headline."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

HEADLINES = {
    "lower_bounds.py": "d=3: 27 mistakes in 27 rounds (target 3^3 = 27)",
    "dimension_machinery.py": "all 9 step functions on eight points: ldim = 3",
    "halting_procedures.py": "k=2: halted after 4368 mistakes (formula gives 4368)",
    "oracle_learner_budget.py": "version-space learner worst case: 1 (dimension bound 1)",
}


def test_every_demo_has_a_headline() -> None:
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs_and_prints_its_headline(demo: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert HEADLINES[demo] in done.stdout
