"""Suite-wide settings: every hypothesis test draws the same examples on
every run, and no example database carries failures between runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
