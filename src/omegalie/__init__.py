"""Exact tools for omega-deformed Lie algebras.

A deformed algebra is a skew bracket [.,.] together with a 2-form omega
satisfying, for all A, B, C,

    [A,[B,C]] + [C,[A,B]] + [B,[C,A]] = omega(B,C) A + omega(A,B) C + omega(C,A) B.

The package represents such structures exactly (rational arithmetic
throughout), decomposes the 3-dimensional ones into dual data (n, a, b)
with the forced choice b = -2 n a, checks a bracket of any dimension
against its one candidate 2-form, classifies every valid 3-dimensional
instance onto one of two Bianchi-style normal-form tables, and ships a
JSON document format plus the ``omegalie`` command line around it all.

Importing the package loads what every document command shares:
``tensor_core``, ``algebra_core``, ``decomp3d`` (with the tables,
``generate`` and ``orbit_sample``) and ``io_cli``.  The classifier
``classify3d`` and the general-dimension ``decomp_nd`` are loaded the first
time one of their names is read, here or by the command that runs them.
"""

from .algebra_core import (AlgebraSpec, ResidualTensor, bracket, jacobiator,
                           omega_rhs, omega_value, residual, transport)
from .decomp3d import (FIRST_TABLE_ORDER, PARAMETRIC_LABELS, SECOND_TABLE_ORDER,
                       NabTriple, decompose, forced_b, generate, orbit_sample,
                       reconstruct, t_of, table_row)
from .io_cli import DocumentError, document_object, parse, serialize
from .tensor_core import Matrix, SingularMatrixError, rational

# name -> the module that defines it, imported when the name is first read
_DEFERRED = {name: module for module, names in (
    ("classify3d", ("BianchiLabel", "ExactCertificates", "FloatRangeError", "NormalForm",
                    "NotAnAlgebraError", "classify")),
    ("decomp_nd", ("DeformabilityResult", "check_deformability")),
) for name in (module, *names)}


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted({*globals(), *_DEFERRED})


__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec", "BianchiLabel", "DeformabilityResult", "DocumentError",
    "ExactCertificates", "FIRST_TABLE_ORDER", "FloatRangeError",
    "Matrix", "NabTriple", "NormalForm", "NotAnAlgebraError",
    "PARAMETRIC_LABELS", "ResidualTensor", "SECOND_TABLE_ORDER",
    "SingularMatrixError", "bracket", "check_deformability", "classify",
    "decompose", "document_object", "forced_b", "generate", "jacobiator",
    "omega_rhs", "omega_value", "orbit_sample", "parse", "rational",
    "reconstruct", "residual", "serialize", "t_of", "table_row", "transport",
]
