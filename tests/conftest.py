"""Shared test settings.

Property tests run under one hypothesis profile: examples are derived from
each test's name rather than drawn at random (so every run tries the same
cases), no per-example deadline applies (a loaded machine must not turn a
slow example into a failure), and no example database is written.
"""
from hypothesis import settings

settings.register_profile("relaylab", derandomize=True, deadline=None, database=None)
settings.load_profile("relaylab")
