"""Suite-wide Hypothesis settings.

Property tests run a fixed, derandomized set of examples without the example
database, so every run of the suite checks the same inputs and stays a few
seconds long.
"""

from hypothesis import settings

settings.register_profile(
    "elmboost", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("elmboost")
