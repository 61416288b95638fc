"""Suite-wide Hypothesis settings.

Property tests run a fixed, derandomized set of examples without the example
database, so every run of the suite checks the same inputs and stays a few
seconds long.  Shrinking is off: a failing property reports the first failing
example it drew at once, rather than after minutes of minimizing it.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "elmboost",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("elmboost")
