"""Self-test of the benchmark's own checks and tracing.

    python3 bench/selftest.py

For each workload it shows that a deliberately wrong expectation, and an
output that differs from the checked one, are counted as failures in the
run's error rate, and that a traced pass gives byte-identical outputs and
restores every binding it wrapped.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import run
import workloads
from spans import LAYERS, Tracer

WRONG = {
    "classify-orbit": lambda op: replace(op, expected_label="IX" if op.expected_label != "IX" else "II"),
    "orbit-validate": lambda op: replace(op, expect_valid=not op.expect_valid),
    "nd-sparse": lambda op: replace(op, expect=not op.expect),
}


def expect(condition, message):
    if not condition:
        raise SystemExit(f"FAIL {message}")


def bindings(ol):
    modules = [ol] + [getattr(ol, layer) for layer in LAYERS]
    return {(id(m), name): value for m in modules for name, value in vars(m).items()}


def check_workload(name):
    ol = run.load_package()
    ops = workloads.WORKLOADS[name](ol, random.Random(0))[:4]
    cli = ol.io_cli
    expected, problems = run.verify(ops, cli)
    expect(not problems, f"{name}: generated inputs fail their checks: {problems}")

    wrong = [WRONG[name](ops[0])] + ops[1:]
    _, wrong_problems = run.verify(wrong, cli)
    expect(list(wrong_problems) == [0], f"{name}: wrong expectation not flagged")
    _, failed, _ = run.measure(wrong, cli, expected, wrong_problems, 0)
    expect(failed == 1, f"{name}: wrong expectation not counted as failed")

    tampered = [(outputs[0], outputs[1] + " ") + outputs[2:] for outputs in expected]
    _, failed, _ = run.measure(ops, cli, tampered, {}, 0)
    expect(failed == 1, f"{name}: output differing from the checked one not counted")

    before = bindings(ol)
    matrix = dict(vars(ol.tensor_core.Matrix))
    tracer = Tracer()
    with tracer.installed(ol):
        expect(bindings(ol) != before, f"{name}: tracing wrapped nothing")
        traced = [op.execute(cli)[0] for op in ops]
    expect(traced == expected, f"{name}: traced outputs differ from untraced")
    expect(bindings(ol) == before and dict(vars(ol.tensor_core.Matrix)) == matrix,
           f"{name}: tracing left a wrapper behind")
    runs = len(ops) * (2 if name == "orbit-validate" else 1)
    expect(tracer.calls("io_cli.run") == runs, f"{name}: spans missed run calls")
    print(f"ok {name}: wrong expectation and changed output counted as failed; "
          f"tracing identical and restored")


def main():
    for name in workloads.WORKLOADS:
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
