"""Shared fixtures.

spectrum(q, n) and quotient_table(q) are process-wide memos, and the table
outlives every n: a test that monkeypatches a layer under them must start
from cold memos and leave none behind, or it reads a table built before its
patch, or leaves one built under it for the tests that follow.
"""

import pytest

from gk2genus import engine


def _clear():
    engine.spectrum.cache_clear()
    engine.quotient_table.cache_clear()


@pytest.fixture
def cold_engine():
    """Clear the spectrum and quotient-table memos before and after the test.

    The fixture's value clears them again, for a test that recomputes cold.
    """
    _clear()
    yield _clear
    _clear()
