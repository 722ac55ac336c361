"""The benchmark's tracer self-test, run as part of the test suite.

``perfbench/selftest.py`` checks that every span a workload is expected
to fire does fire, and that traced and untraced runs print the same
bytes.  A change that moves work out of a traced function (for example
``rational.format_rational``), imports a module lazily, or runs work in
another process would silently stop a span; this test notices it.
The self-test reads ``perfbench/`` and writes nothing there.
"""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_tracer_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, str(SELFTEST)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("selftest: ok")
