"""Spans around every call into an omegalie layer, for the traced run.

``Tracer.installed(package)`` wraps each public function in every omegalie
module namespace that binds it (a name imported with ``from ... import`` is
a separate binding and gets the same wrapper), plus ``Matrix.det`` and
``Matrix.__matmul__`` on the class, and restores every binding on exit.  A
span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over the functions it defines.  Time in
methods other than those two (``AlgebraSpec.from_entries``,
``ResidualTensor.is_zero``, ...) and in private helpers counts to the
public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("io_cli", "classify3d", "decomp3d", "decomp_nd", "algebra_core", "tensor_core")
MATRIX_METHODS = (("det", "tensor_core.det"), ("__matmul__", "tensor_core.matmul"))


class Tracer:
    """Per-span call counts, inclusive time and self time, kept in memory."""

    def __init__(self):
        self.stats = {}          # span name -> [calls, inclusive s, self s]
        self._stack = [0.0]      # child time covered, per open span

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children

        return span

    @contextmanager
    def installed(self, package):
        undo = []
        wrappers = {}
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if attr.startswith("_") or not inspect.isfunction(value):
                        continue
                    layer = value.__module__.rpartition(".")[2]
                    if not value.__module__.startswith(prefix) or layer not in LAYERS:
                        continue
                    if value not in wrappers:
                        wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
            matrix = package.tensor_core.Matrix
            for attr, name in MATRIX_METHODS:
                original = matrix.__dict__[attr]
                undo.append((matrix, attr, original))
                setattr(matrix, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def layer_self(self, layer):
        """Seconds of self time summed over the spans of one layer."""
        return sum(s[2] for name, s in self.stats.items() if name.startswith(layer + "."))

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]
