import pytest

from gl2tors.verify import run_harness


@pytest.fixture(scope="session")
def harness_run():
    """run_harness, each call with the same options run once per session, so
    a count test and a pinned-stdout test of one call share that run."""
    results = {}

    def run(harness_id, ell_max=None, trials=None, seed=None):
        key = (harness_id, ell_max, trials, seed)
        if key not in results:
            results[key] = run_harness(*key)
        return results[key]

    return run
