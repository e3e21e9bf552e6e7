"""Test configuration shared by every test module.

Hypothesis runs under one profile: `derandomize` draws the same examples on
every run, so a property test cannot pass on one run and fail on the next,
and `deadline=None` keeps a slow host from failing an example on time alone.
"""

from hypothesis import settings

settings.register_profile("k3lat", deadline=None, derandomize=True, database=None)
settings.load_profile("k3lat")
