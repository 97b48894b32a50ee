"""The benchmark's tracer wraps names that must exist in the package.

``bench/tracing.py`` replaces each (owner, attribute) it lists with a timed
wrapper and restores it afterwards.  A name deleted or renamed in
``sparsewatch`` would break a traced benchmark run with a KeyError that no
other test reaches, so this test checks the list against the package.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_is_defined_on_its_owner():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    targets = tracing._targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in targets if attr not in owner.__dict__
    ]
    assert not missing, missing
