"""The runtime needs numpy only: scipy is a test oracle, never imported."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys

import numpy as np

import repro
import repro.cli
from repro.deploy import DeploymentConfig
from repro.experiments.harness import models_for
from repro.sim.machine import get_testbed

config = DeploymentConfig.quick(routines=[("axpy", np.float64)])
models = models_for(get_testbed("testbed_i"), "quick", config=config)
assert models.link.h2d.p_value < 1e-3, models.link.h2d.p_value
leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not leaked, leaked[:5]
print("ok")
"""


def test_runtime_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
