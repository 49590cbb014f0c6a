"""Shared test settings.

Property tests run under a registered hypothesis profile: derandomized, so
every run draws the same examples, with no per-example deadline and a
bounded number of examples to keep the suite's runtime steady.
"""

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "stoclim", derandomize=True, deadline=None, max_examples=40, database=None
    )
    settings.load_profile("stoclim")
