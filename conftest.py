"""Suite-wide fixtures (covers ``tests/`` and ``bench/``)."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_user_cache(tmp_path_factory):
    """Point ``XDG_CACHE_HOME`` at a session tmp dir.

    Flow rainbow tables persist under the user cache dir
    (``repro.hashing.rainbow``); no test — nor any child process one spawns,
    which inherits the environment — may read or write the real home.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()
