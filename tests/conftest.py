import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlplr
from mlplr import ConstraintBox, HiddenUnit, MlpParams, RegressionSpec


@pytest.fixture(scope="session")
def desk_spec() -> RegressionSpec:
    """Default desk configuration: d=1, k0=1, theta0=(0.5, 1, (0.5, 1))."""
    theta0 = MlpParams(0.5, [HiddenUnit(1.0, np.array([0.5, 1.0]))])
    return RegressionSpec(theta0, sigma2=1.0, input_dim=1)


@pytest.fixture(scope="session")
def desk_box() -> ConstraintBox:
    return ConstraintBox(eta=0.1, M=50.0, positive_amplitudes=True)


@pytest.fixture(scope="session")
def modules_after_import() -> set[str]:
    """Names in sys.modules once a fresh interpreter has run `import mlplr`."""
    src = str(Path(mlplr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mlplr; print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())
