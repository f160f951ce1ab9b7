"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, and without a per-example deadline, so a slow or
busy machine cannot fail a test on timing.
"""

from hypothesis import settings

settings.register_profile("peribond", derandomize=True, deadline=None)
settings.load_profile("peribond")
