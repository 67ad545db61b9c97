"""Property tests draw the same examples on every run: the lab promises
reruns that repeat exactly, and its test suite keeps that promise too."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
