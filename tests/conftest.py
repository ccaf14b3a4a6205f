"""Hypothesis profiles for the suite.

The `ci` profile draws every example from a fixed seed and prints the
reproduction blob of a failing example, so a failure in a CI log replays
locally with the same flag:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
