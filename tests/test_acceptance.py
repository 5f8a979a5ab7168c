"""Acceptance gate: the eight shipping criteria, one test per criterion.

Each test enforces its runtime budget and prints one PASS line (visible
with -s).  Tolerances are pinned here: exact equality wherever the claim
is exact, 1e-9 for the float parameters and transforms.
"""

import random
import time
from fractions import Fraction
from itertools import product

from omegalie import (AlgebraSpec, Matrix, NabTriple, check_deformability,
                      decompose, forced_b, generate, orbit_sample, parse,
                      reconstruct, residual, serialize, t_of)
from omegalie import classify
from omegalie.decomp_nd import _trace_covector
from oracles import (deformability, omega_matrix, omega_rhs_is_identically_zero,
                     trace_omega, transport_error, with_omega)

PARAMS = (Fraction(1, 2), Fraction(1), Fraction(2))
FIRST = ("I", "II", "VI0", "VII0", "VIII", "IX")
SECOND_FIXED = ("V", "IV", "IV_x", "VI_x", "VI_y", "VI_n", "VII_x")
SECOND_PARAMETRIC = ("VI_a", "VII_a", "VIII_a", "VIII_xa", "VIII_na", "IX_a")


def all_table_specs():
    for label in FIRST + SECOND_FIXED:
        yield label, None, generate(label)
    for label in SECOND_PARAMETRIC:
        for p in PARAMS:
            yield label, p, generate(label, p)


def finish(num, name, budget, started, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.2f}s >= {budget}s"
    print(f"PASS criterion {num} ({name}): {detail} [{elapsed:.2f}s < {budget:g}s]")


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    rows = 0
    for label, p, spec in all_table_specs():
        rows += 1
        assert residual(spec).is_zero, label
        trip = decompose(spec)
        n = [trip.n[i][i] for i in range(3)]
        a = trip.a
        om = omega_matrix(spec)
        assert om[0][1] == -2 * n[2] * a[2], label
        assert om[2][0] == -2 * n[1] * a[1], label
        assert om[1][2] == -2 * n[0] * a[0], label
    assert rows == 6 + 7 + 6 * len(PARAMS)
    finish(1, "table reproduction", 1.0, started,
           f"{rows} rows, residual = 0 and the three omega formulas exact")


def test_criterion_2_forced_omega_universality():
    started = time.perf_counter()
    rng = random.Random(1002)
    pairs = ((1, 2), (1, 3), (2, 3))
    for trial in range(1000):
        entries = [(i, j, k, rng.randint(-5, 5)) for i, j in pairs for k in (1, 2, 3)]
        spec = AlgebraSpec.from_entries(3, entries)
        trip = decompose(spec)
        b = forced_b(trip.n, trip.a)
        omega_dual = reconstruct(NabTriple(trip.n, trip.a, b)).omega_upper
        omega_trace = trace_omega(spec)
        result = check_deformability(spec)
        assert omega_dual == omega_trace == result.spec.omega_upper
        assert result.compatible
        assert residual(with_omega(spec, omega_dual)).is_zero
        if trial % 50 == 0:  # uniqueness: any tweak of omega breaks validity
            i, j = pairs[rng.randrange(3)]
            bumped = dict(omega_dual)
            bumped[i - 1, j - 1] = bumped.get((i - 1, j - 1), 0) + 1
            broken = with_omega(spec, bumped)
            assert not residual(broken).is_zero
    finish(2, "forced-omega universality", 10.0, started,
           "1000 integer brackets, unique omega, all three routes agree exactly")


def test_criterion_3_round_trip_exactness():
    started = time.perf_counter()
    rng = random.Random(1003)

    def rnd():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    for _ in range(500):
        sym = [[rnd() for _ in range(3)] for _ in range(3)]
        n = Matrix(tuple(tuple(sym[i][j] + sym[j][i] for j in range(3))
                         for i in range(3)))
        trip = NabTriple(n, (rnd(), rnd(), rnd()), (rnd(), rnd(), rnd()))
        assert decompose(reconstruct(trip)) == trip
        spec = reconstruct(trip)
        assert reconstruct(decompose(spec)) == spec
        assert parse(serialize(spec)) == spec
    finish(3, "round-trip exactness", 5.0, started,
           "500 rational inputs, decompose/reconstruct/parse/serialize identities")


def test_criterion_4_orbit_stability():
    started = time.perf_counter()
    stable = ("I", "II", "VI0", "VII0", "VIII", "IX", "V", "IV", "IV_x",
              "VI_a", "VI_n", "VII_a", "VII_x", "VIII_a", "VIII_xa", "IX_a")
    invariant_param = {"VI_a", "VII_a", "VIII_a", "VIII_xa", "IX_a"}
    runs = 0
    for label in stable:
        params = PARAMS if label in invariant_param else (None,)
        for p in params:
            canonical = classify(generate(label, p))
            for seed in range(100):
                spec = orbit_sample(label, p, seed=seed)
                nf = classify(spec)
                runs += 1
                assert nf.label.name == label, (label, p, seed)
                assert nf.certificates.causal == canonical.certificates.causal
                assert nf.transform_error <= 1e-9, (label, p, seed)
                assert transport_error(spec, nf) <= 1e-9, (label, p, seed)
                if p is not None:
                    assert abs(nf.parameter - float(p)) <= 1e-9, (label, p, seed)
    # collapsing rows: the canonical representative's label, causal
    # certificate and transform
    for label, expect_label, expect_causal in (
            ("VI_x", "VI_x", "spacelike"), ("VI_y", "VI_x", "spacelike")):
        for seed in range(100):
            spec = orbit_sample(label, seed=seed)
            nf = classify(spec)
            runs += 1
            assert nf.label.name == expect_label, (label, seed)
            assert nf.certificates.causal == expect_causal, (label, seed)
            assert nf.transform_error <= 1e-9, (label, seed)
            assert transport_error(spec, nf) <= 1e-9, (label, seed)
    for p in PARAMS:
        for seed in range(100):
            spec = orbit_sample("VIII_na", p, seed=seed)
            nf = classify(spec)
            runs += 1
            assert nf.label.name == "VIII_na", ("VIII_na", p, seed)
            assert nf.certificates.causal == "null", ("VIII_na", p, seed)
            assert nf.parameter is None, ("VIII_na", p, seed)
            assert nf.transform_error <= 1e-9, ("VIII_na", p, seed)
            assert transport_error(spec, nf) <= 1e-9, ("VIII_na", p, seed)
    finish(4, "orbit stability", 60.0, started,
           f"{runs} transported classifications, parameters, frame and whole-input "
           "transform checks within 1e-9")


def test_criterion_5_dimension_2_impossibility():
    started = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(500):
        entries = [(1, 2, k, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                   for k in (1, 2)]
        om = [(1, 2, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))]
        spec = AlgebraSpec.from_entries(2, entries, om)
        assert omega_rhs_is_identically_zero(omega_matrix(spec))
        assert residual(spec).is_zero
    grid3 = [Fraction(v, 2) for v in (-2, -1, 0, 1, 2)]
    checked3 = 0
    for w12, w13, w23 in product(grid3, repeat=3):
        if w12 == w13 == w23 == 0:
            continue
        om = ((0, w12, w13), (-w12, 0, w23), (-w13, -w23, 0))
        assert not omega_rhs_is_identically_zero(om)
        checked3 += 1
    checked4 = 0
    for vals in product((-1, 0, 1), repeat=6):
        if all(v == 0 for v in vals):
            continue
        w12, w13, w14, w23, w24, w34 = vals
        om = ((0, w12, w13, w14), (-w12, 0, w23, w24),
              (-w13, -w23, 0, w34), (-w14, -w24, -w34, 0))
        assert not omega_rhs_is_identically_zero(om)
        checked4 += 1
    finish(5, "dimension-2 impossibility", 5.0, started,
           f"500 dim-2 pairs unconstrained; {checked3}+{checked4} nonzero "
           "omega grid points in dims 3, 4 all have a nonzero right side")


def test_criterion_6_n_dimensional_consistency():
    started = time.perf_counter()
    rows = 0
    for label, p, spec in all_table_specs():
        rows += 1
        assert check_deformability(spec).spec.omega_upper == spec.omega_upper, label
        assert trace_omega(spec) == spec.omega_upper, label
        assert _trace_covector(spec) == tuple(-x for x in decompose(spec).a), label
    finish(6, "n-dimensional consistency", 1.0, started,
           f"trace route and dense alpha formula reproduce stored omega on all {rows} "
           "table algebras")


def test_criterion_7_no_deformation_types():
    started = time.perf_counter()
    for label in ("I", "V"):
        spec = generate(label)
        trip = decompose(spec)
        assert forced_b(trip.n, trip.a) == (0, 0, 0), label
        assert spec.omega_upper == AlgebraSpec.from_entries(3).omega_upper, label
        assert deformability(spec) == AlgebraSpec.from_entries(3).omega_upper
    finish(7, "no-deformation types", 1.0, started,
           "types I and V force b = 0 and omega = 0")


def test_criterion_8_residual_t_forced_b_equivalence():
    started = time.perf_counter()
    rng = random.Random(1008)
    pairs = ((1, 2), (1, 3), (2, 3))
    valid_seen = invalid_seen = 0
    for trial in range(500):
        entries = [(i, j, k, Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
                   for i, j in pairs for k in (1, 2, 3)]
        spec = AlgebraSpec.from_entries(3, entries)
        trip = decompose(spec)
        if trial % 2 == 0:
            b = forced_b(trip.n, trip.a)  # valid by construction
        else:
            b = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                      for _ in range(3))
        trip = NabTriple(trip.n, trip.a, b)
        spec = reconstruct(trip)
        r_zero = residual(spec).is_zero
        t_zero = t_of(spec) == (0, 0, 0)
        b_forced = b == forced_b(trip.n, trip.a)
        assert r_zero == t_zero == b_forced, trial
        valid_seen += r_zero
        invalid_seen += not r_zero
    assert valid_seen >= 200 and invalid_seen >= 200  # both branches exercised
    finish(8, "residual / t / forced-b equivalence", 5.0, started,
           f"500 specs, {valid_seen} valid and {invalid_seen} invalid, "
           "three-way equivalence exact")
