"""Default settings shared by the library and the CLI parser.

This module imports nothing, so that building the CLI parser loads none of
the modules that compute: ``extreal`` and ``fuzz`` read their defaults from
here, and ``cli`` shows the same values as its options' defaults.
"""

# Slack allowed between two finite values in every tolerant comparison.
DEFAULT_TOL = 1e-9

# The integer grid (low, high) of fuzz entries, and the probability of
# each infinity per entry.
DEFAULT_GRID = (-10, 10)
DEFAULT_INF_PROB = 0.1

# The value families of ``fuzz --values``, in the order the CLI lists
# them; ``fuzz.VALUE_FAMILIES`` gives each its entry draw.
VALUE_FAMILY_NAMES = ("integer", "fractional", "tiny", "wide", "near-overflow")
