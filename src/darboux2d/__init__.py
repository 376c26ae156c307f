"""Exactly solvable planar Schrodinger operators built from harmonic data.

The package constructs rational and hyperbolic functions B(x, y) solving a
nonlinear closure system, turns them into Schrodinger potentials u = lap(B)/B,
applies the associated nonlocal transform to harmonic seed data, and certifies
every claimed identity either exactly (rational-function zero tests) or
numerically (finite-difference residuals on grids).
"""

from darboux2d.polyrat import BiPoly, RatFn
from darboux2d.harmonic import HarmonicPair
from darboux2d.families import RationalSolution, ClosedPotential
from darboux2d.darboux import TransformOutput
from darboux2d.verify import GridSpec, ResidualReport

__all__ = [
    "BiPoly",
    "RatFn",
    "HarmonicPair",
    "RationalSolution",
    "ClosedPotential",
    "TransformOutput",
    "GridSpec",
    "ResidualReport",
]

__version__ = "0.1.0"
