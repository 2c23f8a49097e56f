"""Suite-wide settings.

Reference solutions are cached on disk (see ``cfrk.bench``).  Unless
CFRK_CACHE is already set, the suite keeps that cache under pytest's own
cache directory, so a test run never writes to the home directory and a
second run reuses the references of the first (``--cache-clear`` makes
it cold again).
"""

import os


def pytest_configure(config):
    cache = getattr(config, "cache", None)  # absent under -p no:cacheprovider
    if cache is not None and "CFRK_CACHE" not in os.environ:
        os.environ["CFRK_CACHE"] = str(cache.mkdir("cfrk-reference"))
