"""Hypothesis profile for the whole suite: derandomized, so every run of
the `@given` tests draws the same examples, and without a deadline,
because exact arithmetic on a loaded machine can be slow."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
