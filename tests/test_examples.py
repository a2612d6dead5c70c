"""The example scripts run, and print exactly what they printed before.

Every script under ``examples/`` opens objects through the
:class:`PresentationManager` and prints what the user saw and heard,
stamped with simulated time, so its stdout is deterministic.  Each runs
in a fresh interpreter, the way a reader runs it; a change in any
printed line fails here, naming the script.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: blake2b-128 of each script's stdout.
GOLDEN_STDOUT = {
    "city_guide.py": "e9ebb76b445d7c198a7101e4a7ca6a7c",
    "medical_xray.py": "8fa9dd62094124b80defed8c84aec814",
    "office_filing.py": "c42a4644e52375843b406feb6b8a47c4",
    "quickstart.py": "6cfba6e70093fc195828f26dfff617d9",
    "telephone_access.py": "87f0ed3dc4a3678e47e56c6bb63d93b2",
    "textbook.py": "7fd322d2256ed693034c3d8b08b68c27",
}


def test_every_example_is_pinned():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(GOLDEN_STDOUT)


@pytest.mark.parametrize("script", sorted(GOLDEN_STDOUT))
def test_example_stdout_matches_golden(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, cwd=ROOT, env=env, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    digest = hashlib.blake2b(result.stdout, digest_size=16).hexdigest()
    assert digest == GOLDEN_STDOUT[script], result.stdout.decode(errors="replace")
