"""Shared test configuration.

Property tests draw their examples from a fixed sequence and keep no
example database, so every run of the suite tries the same inputs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
