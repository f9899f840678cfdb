"""Names of the Monte-Carlo step schemes; see ``simulate`` for what each does.

Kept apart from ``simulate`` so that listing or checking a scheme name loads
no numpy.
"""

from enum import Enum


class Scheme(str, Enum):
    FULL_EULER = "full-euler"
    FULL_EXACT = "full-exact"
    RADIAL_EULER = "radial-euler"
    SQUARED_RADIAL_EULER = "squared-radial-euler"


# the schemes that move all d coordinates, drawing d normals per path-step;
# the radial ones move one radius and draw one
FULL_DIMENSIONAL = (Scheme.FULL_EULER, Scheme.FULL_EXACT)
