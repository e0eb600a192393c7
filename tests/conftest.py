import os

import pytest

from cremona.bertini_census import run_census

# Golden regression values, frozen after the first verified exhaustive
# run at q = 2 (modulus encoding 283).
Q2_TOTAL_ORBITS = 8190
Q2_GENERAL_POSITION = 6384
Q2_CLASS_COUNT = 38
Q2_NODAL_CLASSES = 14


@pytest.fixture(scope="session", autouse=True)
def _cache_dir_env(tmp_path_factory):
    # keep field-table caches out of the user's home during tests, but
    # share one directory per session so the 7^8 tables build only once;
    # session-scoped so that session fixtures such as census_q2 see it too
    base = os.environ.get("PYTEST_CREMONA_CACHE") or str(
        tmp_path_factory.mktemp("cremona-cache")
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CREMONA_CACHE_DIR", base)
        yield base


@pytest.fixture(scope="session")
def census_q2(tmp_path_factory):
    """The exhaustive q = 2 census, shared across the whole session."""
    ck = tmp_path_factory.mktemp("census") / "q2.ckpt"
    result = run_census(2, mode="exact", threads=1, checkpoint_path=str(ck))
    result.checkpoint_path = str(ck)
    return result
