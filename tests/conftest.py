"""Each test starts from empty caches of what one J determines, so a test
that substitutes an engine internal sees it called, and does not read a
structure that an earlier test built."""

import pytest

from gchodge import gcs


@pytest.fixture(autouse=True)
def _fresh_structure_caches():
    gcs._eigenbundle.cache_clear()
    gcs._graded.cache_clear()
