"""fatpoints: exact non-specialty verification of fat-point linear systems on P^3.

Rank checks of interpolation matrices over a prime field, the glueing
reduction that shrinks the case lists, and replayable certificates for the
degree sweeps.
"""

from ._version import __version__
