# Property tests draw a fixed set of examples: derandomized, with no
# deadline and no example database, so a run of the suite is reproducible
# and does not depend on the machine's speed.

from hypothesis import settings

settings.register_profile(
    "merocon", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("merocon")
