import os

# One BLAS thread unless the caller set another count: a multi-threaded
# BLAS makes per-round timings (criterion 08) noisy enough to break their
# fit. This runs before any test module imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(call): the most bytes Python and numpy held at once while
    call() ran, counting only what call() allocated."""

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
