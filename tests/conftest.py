"""Shared pytest set-up: hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize: examples follow from each test's source, not a fresh seed;
# no database: failures found on one machine are not replayed on the next
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
