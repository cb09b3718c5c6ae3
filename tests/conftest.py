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
