"""Names of the Monte-Carlo step schemes; see ``simulate`` for what each does.

Kept apart from ``simulate`` so that listing or checking a scheme name loads
no numpy or scipy.
"""

from enum import Enum


class Scheme(str, Enum):
    FULL_EULER = "full-euler"
    FULL_EXACT = "full-exact"
    RADIAL_EULER = "radial-euler"
    SQUARED_RADIAL_EULER = "squared-radial-euler"
