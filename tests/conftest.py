from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oraclebench.hypotheses import Hypothesis


def hyp(name: str, bits: str, domain=None) -> Hypothesis:
    """Shorthand: hyp('a', '0110') is the table 0,1,2,3 -> 0,1,1,0."""
    points = domain if domain is not None else range(len(bits))
    return Hypothesis(name, sum(1 << x for x, b in zip(points, bits) if b == "1"))
