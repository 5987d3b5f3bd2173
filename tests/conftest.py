import numpy as np

from blas_kernels import openblas_core


def pytest_report_header(config):
    # byte comparisons pin one BLAS kernel's rounding: the log says which
    core = openblas_core()
    blas = (f"numpy's bundled OpenBLAS, core {core}" if core
            else "not numpy's bundled OpenBLAS")
    return f"numpy {np.__version__}, BLAS: {blas}"
