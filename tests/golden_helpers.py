"""Tolerant comparison for JSON golden fixtures.

Shared by the golden tests that pin whole documents (stream job
records, advisor funnel reports): floats agree up to ``REL_TOL``, NaN
equals NaN, and everything else must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Relative float tolerance of every document golden.
REL_TOL = 1e-9


def same(got, want) -> bool:
    """Equal up to ``REL_TOL`` on floats, NaN equal to NaN."""
    if isinstance(got, float) or isinstance(want, float):
        return (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=1e-12
        )
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(map(same, got, want))
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(
            same(got[k], want[k]) for k in got
        )
    return got == want


def load_golden(path: Path, doc: dict, update: bool) -> dict:
    """The committed fixture at ``path``; ``update`` rewrites it from ``doc``.

    ``doc`` is round-tripped through JSON by the caller, so tuples and
    lists compare alike.
    """
    if update:
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return json.loads(path.read_text())
