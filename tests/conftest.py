import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def traced_peak():
    """A function that calls ``fn(*args)`` and returns the peak bytes
    tracemalloc saw while it ran; numpy reports its buffers to
    tracemalloc, so the peak counts arrays as well as Python objects."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
