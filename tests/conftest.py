"""Shared test settings: one Hypothesis profile, derandomized so that a
failure seen in CI replays the same examples on any machine."""

from hypothesis import settings

settings.register_profile("hsderiv", derandomize=True, deadline=None)
settings.load_profile("hsderiv")
