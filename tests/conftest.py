"""Fixtures shared by every test module."""

import pytest

from cdmd import linalg


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test that leaves NumPy's OpenBLAS thread count other than it found it."""
    functions = linalg._openblas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    yield
    after = get()
    if after != before:
        set_(before)
        pytest.fail(f"the test left the BLAS thread count at {after}, not {before}")
