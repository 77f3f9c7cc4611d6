"""Stale build variables never change a result.

``HALFBACK_FAST`` and ``HALFBACK_NUMPY`` once selected a hook-free
datapath and a numpy scoreboard backend.  Both are gone; an environment
that still sets them must produce the same audited sweep, bit for bit,
as one that does not.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SWEEP = ["chaos", "sweep", "--audit", "--protocols", "tcp,halfback",
         "--profiles", "wifi-bursty", "--no-manifest"]


def _sweep(**extra_env: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items()
           if key not in ("HALFBACK_FAST", "HALFBACK_NUMPY")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *SWEEP],
        cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )


def _fingerprint(output: str) -> str:
    lines = [line for line in output.splitlines()
             if line.startswith("fingerprint:")]
    assert len(lines) == 1, output
    return lines[0]


def test_stale_build_variables_leave_the_audited_sweep_unchanged():
    plain = _sweep()
    stale = _sweep(HALFBACK_FAST="1", HALFBACK_NUMPY="1")
    for run in (plain, stale):
        assert run.returncode == 0, run.stdout
        assert "liveness contract held" in run.stdout
    assert _fingerprint(stale.stdout) == _fingerprint(plain.stdout)
