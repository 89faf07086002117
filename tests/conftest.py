"""Suite-wide test configuration: hypothesis profiles.

The default ``lasir`` profile makes every run of the suite check the same
cases in a bounded time: property tests draw their examples from a fixed
seed (``derandomize``), keep no example database, have no per-example
deadline (timings on a shared machine vary) and run 25 examples each.

The ``thorough`` profile, selected with ``pytest --hypothesis-profile=thorough``,
draws 2,000 fresh random examples per property test, with no database and
no deadline, to search for cases the fixed draw misses.
"""

from hypothesis import settings

settings.register_profile("lasir", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.register_profile("thorough", database=None, deadline=None, max_examples=2000)
settings.load_profile("lasir")
