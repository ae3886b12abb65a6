"""Exact exterior calculus and torsion classification for G-structures
(almost Hermitian, SU(3), G2, Spin(7)) on Lie algebra frames."""

from .scalars import Field, QuadraticField, RationalField, Scalar
from .forms import FrameGeometry, KForm, VectorField

__all__ = [
    "Field",
    "RationalField",
    "QuadraticField",
    "Scalar",
    "KForm",
    "VectorField",
    "FrameGeometry",
]

__version__ = "0.1.0"
