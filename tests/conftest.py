"""Suite-wide test configuration: one reproducible hypothesis profile.

Property tests draw their examples from a fixed seed (``derandomize``), keep
no example database, have no per-example deadline (timings on a shared
machine vary) and run a bounded number of examples, so every run of the
suite checks the same cases in a bounded time.
"""

from hypothesis import settings

settings.register_profile("lasir", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.load_profile("lasir")
