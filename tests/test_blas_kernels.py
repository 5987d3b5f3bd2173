import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adaptdet
from blas_kernels import openblas_core

CORE = openblas_core()
SCRIPT = Path(__file__).resolve().with_name("blas_kernels.py")


@pytest.mark.skipif(CORE is None, reason="numpy's BLAS is not its bundled OpenBLAS, whose "
                                         "core OPENBLAS_CORETYPE chooses")
@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge", "Nehalem"],
                         ids=["default", "Haswell", "Sandybridge", "Nehalem"])
def test_a_trials_value_does_not_depend_on_its_block_under_any_core(core):
    # AVX2-only Intel and AMD hosts run the Haswell kernels, older ones
    # Sandybridge or Nehalem: the reproducibility contract must hold on each,
    # not only on the core this suite runs; each core needs its own process
    if core == CORE:
        pytest.skip(f"the default case runs this process's core, {CORE}")
    env = {**os.environ, "PYTHONPATH": str(Path(adaptdet.__file__).resolve().parents[1])}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    run = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True,
                         text=True, timeout=300)
    if run.returncode < 0:
        pytest.skip(f"the {core} kernels do not run on this CPU (signal {-run.returncode})")
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    # OpenBLAS runs its default core, without a word, for a name it does not know
    assert report["core"] == (core or CORE)
    assert report["failures"] == []
