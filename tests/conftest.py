"""One hypothesis profile for every property test in the suite.

Examples come from a fixed sequence (derandomize), no example has a time
limit, and no example database is written, so every run tries the same
examples. A test sets only its own max_examples.
"""
from hypothesis import settings

settings.register_profile("ssmean", derandomize=True, deadline=None, database=None)
settings.load_profile("ssmean")
