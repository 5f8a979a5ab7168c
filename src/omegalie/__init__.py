"""Exact tools for omega-deformed Lie algebras.

A deformed algebra is a skew bracket [.,.] together with a 2-form omega
satisfying, for all A, B, C,

    [A,[B,C]] + [C,[A,B]] + [B,[C,A]] = omega(B,C) A + omega(A,B) C + omega(C,A) B.

The package represents such structures exactly (rational arithmetic
throughout), decomposes the 3-dimensional ones into dual data (n, a, b)
with the forced choice b = -2 n a, splits general-dimension brackets into
trace part and trace-free part, classifies every valid 3-dimensional
instance onto one of two Bianchi-style normal-form tables, and ships a
JSON document format plus the ``omegalie`` command line around it all.
"""

from .algebra_core import (AlgebraSpec, ResidualTensor, bracket, jacobiator,
                           omega_rhs, omega_value, residual, transport)
from .classify3d import (FIRST_TABLE_ORDER, PARAMETRIC_LABELS,
                         SECOND_TABLE_ORDER, BianchiLabel, ExactCertificates,
                         FloatRangeError, NormalForm, NotAnAlgebraError,
                         classify, generate, orbit_sample, table_row)
from .decomp3d import NabTriple, decompose, forced_b, reconstruct, t_of, t_vector
from .decomp_nd import (DeformabilityResult, GeneralSplit,
                        check_deformability, induced_omega, split_trace)
from .io_cli import DocumentError, document_object, parse, serialize
from .tensor_core import Inertia, Matrix, SingularMatrixError, rational

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec", "BianchiLabel", "DeformabilityResult", "DocumentError",
    "ExactCertificates", "FIRST_TABLE_ORDER", "FloatRangeError",
    "GeneralSplit", "Inertia", "Matrix", "NabTriple", "NormalForm",
    "NotAnAlgebraError", "PARAMETRIC_LABELS", "ResidualTensor",
    "SECOND_TABLE_ORDER", "SingularMatrixError", "bracket",
    "check_deformability", "classify", "decompose", "document_object",
    "forced_b", "generate", "induced_omega", "jacobiator", "omega_rhs",
    "omega_value", "orbit_sample", "parse", "rational", "reconstruct",
    "residual", "serialize", "split_trace", "t_of", "t_vector", "table_row",
    "transport",
]
