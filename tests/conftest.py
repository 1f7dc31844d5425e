"""Shared test settings: one hypothesis profile, so property tests draw the same examples on every run."""

try:
    from hypothesis import settings
except ImportError:  # hypothesis comes with the optional ``test`` extra; without it test_properties.py skips
    pass
else:
    settings.register_profile("onesided", derandomize=True, deadline=None)
    settings.load_profile("onesided")
