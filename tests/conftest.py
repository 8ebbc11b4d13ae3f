"""Hypothesis draws the same examples on every run and keeps no example
database, so a test's result does not depend on a random draw or on the
local `.hypothesis` directory.  The `ci` profile derandomizes, so a seed
alone changes nothing; `--hypothesis-profile=default --hypothesis-seed=N`
explores other draws."""

from hypothesis import settings

settings.load_profile("ci")
