"""The Spark bootstrap's driver-memory rule, and the table job's arguments."""
import subprocess
import sys
from pathlib import Path

import pytest

from repro.session import driver_memory

GIB = 1 << 30
ROOT = Path(__file__).resolve().parent.parent


def test_env_override_wins():
    assert driver_memory("3g", [str(4 * GIB)], 16 * GIB) == "3g"


def test_unbounded_cgroup_limit_is_ignored():
    unbounded = ["max", str(2**63 - 4096), None, "", str(64 * GIB)]
    assert driver_memory(None, unbounded, 16 * GIB) == "8g"
    assert driver_memory(None, ["max", str(4 * GIB)], 16 * GIB) == "3g"


@pytest.mark.parametrize("phys_gib", [1, 2, 3, 4, 7, 16, 64, 1024])
def test_fallback_never_exceeds_physical_memory(phys_gib):
    got = int(driver_memory(None, [None, None], phys_gib * GIB).rstrip("g"))
    assert 1 <= got <= min(phys_gib, 8)


@pytest.mark.parametrize("argv", [[], ["0"], ["8"], ["x"], ["1", "2"]])
def test_table_job_rejects_bad_table_number(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "table.py"), *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: python jobs/table.py N")
    assert proc.stdout == ""
