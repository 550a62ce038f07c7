"""Suite-wide hypothesis settings: every property draws the same examples on
every run (derandomized, no example database) and has no deadline, since
some examples build whole partial-wave rows.  Each property sets only its
own `max_examples`."""

from hypothesis import settings

settings.register_profile("abdirac", deadline=None, derandomize=True, database=None)
settings.load_profile("abdirac")
