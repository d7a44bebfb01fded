"""End-to-end acceptance checks.

Each test asserts one published target at its stated tolerance, plus the
runtime budget where one applies.
"""

import math
import time

import numpy as np
import pytest

from blochprop import (
    CASE_STUDIES,
    angle_distance,
    closed_form_extrema,
    delta_closed_form,
    equivalent_continuous_angles,
    euler_matrix,
    find_extremum,
    generator,
    generator_eigenvalues,
    limit_convergence_check,
    matrix_exp_generator,
    matrix_to_cartesian,
    period,
    qubit_to_matrix,
    rotate_euler,
    rotate_su2,
    run_case_study,
    simulate,
    sp_general,
    su2_from_euler,
    time_averaged_error,
)

BASE_X = (1.0, 0.0, 0.0)
BASE_Z = (0.0, 0.0, 1.0)
REF_ERR = (0.0, 0.2, 0.0)
REF_STEP = (math.pi / 100, math.pi / 100, math.pi / 100)
UNIT_RATES = (1.0, 1.0, 1.0)

# Reference extremum and period targets for the seven built-in case studies,
# in CASE_STUDIES order.
CASE_TARGETS = [
    ("integer ratio 2:1:3", math.sqrt(2 / 13) * math.pi, 1.76818818822050),
    ("integer ratio 1:3:2", math.sqrt(2) * math.pi / 3, 2.35590586664925),
    # For base (1,0,0) the first row of sp_general is
    # (c, (a/omega) s, -(theta/omega) s), so the clean polar angle sweeps
    # [arccos(|theta|/omega), arccos(-|theta|/omega)], and the error box
    # can put the perturbed vector on the opposite pole: the supremum is
    # arccos(-|theta|/omega).  The stated period sqrt(2/5)*pi forces
    # theta = 1, omega = sqrt(10).  Supersedes 1.57079632670986, which no
    # 1:1:2 assignment with that period attains.
    ("integer ratio 1:1:2", math.sqrt(2 / 5) * math.pi, math.acos(-1 / math.sqrt(10))),
    ("integer ratio 1:2:1", math.pi / math.sqrt(2), 2.35619448416057),
    (
        "transcendental e, pi, 3",
        2 * math.pi / math.sqrt(math.pi**2 + (math.e + 3) ** 2),
        2.07317454885058,
    ),
    (
        "mixed 1, 1, pi",
        2 * math.pi / math.sqrt(1 + (math.pi + 1) ** 2),
        1.80771464098098,
    ),
    ("mixed 1, pi, 1", 2 * math.pi / math.sqrt(math.pi**2 + 4), 2.57468030909556),
]


def reference_series(pipeline):
    v_err = rotate_euler(BASE_X, euler_matrix(REF_ERR))
    return simulate(BASE_X, v_err, REF_STEP, 200, pipeline=pipeline)


@pytest.fixture(scope="module")
def case_reports():
    t0 = time.perf_counter()
    reports = [run_case_study(spec, num_starts=1000, seed=0) for spec in CASE_STUDIES]
    return reports, time.perf_counter() - t0


class TestCriterion1:
    def test_criterion_1_pipelines_agree(self):
        t0 = time.perf_counter()
        runs = {p: reference_series(p) for p in ("euler", "su2", "closed")}
        elapsed = time.perf_counter() - t0
        for name in ("su2", "closed"):
            assert np.abs(runs[name].delta_az - runs["euler"].delta_az).max() < 1e-6
            assert np.abs(runs[name].delta_el - runs["euler"].delta_el).max() < 1e-6
        assert len(runs["euler"]) == 201
        assert elapsed < 1.0

    def test_criterion_1_boundary_return(self):
        # 200 steps are not a whole number of cycles, so the boundary is
        # checked on the exact interpolant d(t) of the run: the closed form
        # at the step's equivalent continuous rates (the bridge documented
        # in blochprop.propagation), which recurs every T steps.
        series = reference_series("euler")
        samples = np.column_stack([series.delta_az, series.delta_el])
        eq = equivalent_continuous_angles(REF_STEP)
        steps_per_cycle = period(eq)

        def d(t):
            return np.array(delta_closed_form(REF_ERR, t, eq))

        context = (
            f"one recurrence takes T = {steps_per_cycle!r} steps, so 200 steps "
            f"span {200 / steps_per_cycle!r} cycles"
        )
        bridge = max(np.abs(d(float(i)) - samples[i]).max() for i in range(201))
        assert bridge <= 1e-6, f"interpolant misses the run by {bridge!r}; {context}"
        for k in (1, 2):
            gap = np.abs(d(k * steps_per_cycle) - samples[0]).max()
            assert gap <= 1e-6, f"no return to sample 0 at {k}T: {gap!r}; {context}"
        gap = np.abs(samples[200] - d(200 - 2 * steps_per_cycle)).max()
        assert gap <= 1e-6, f"sample 200 misses d(200 - 2T) by {gap!r}; {context}"


def test_criterion_2_periodicity():
    t0 = time.perf_counter()
    cycle = 2 * math.pi / math.sqrt(5)
    grid = np.linspace(0.0, cycle, 1000)
    rng = np.random.default_rng(2)
    for _ in range(20):
        err = tuple(rng.uniform(0.0, 2 * math.pi, 3))
        for t in grid:
            now = delta_closed_form(err, float(t), UNIT_RATES)
            later = delta_closed_form(err, float(t) + cycle, UNIT_RATES)
            assert abs(now[0] - later[0]) < 1e-9
            assert abs(now[1] - later[1]) < 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_extrema_base_x():
    t0 = time.perf_counter()
    found = {
        (target, mode): find_extremum(target, mode, BASE_X, UNIT_RATES,
                                      num_starts=1000, seed=0).value
        for target in ("az", "el")
        for mode in ("max", "min")
    }
    elapsed = time.perf_counter() - t0
    assert abs(found[("el", "max")] - 2.0344424161175363) <= 1e-3
    assert abs(found[("az", "max")] - math.pi) <= 1e-6
    assert found[("el", "min")] <= 1e-6
    assert found[("az", "min")] <= 1e-6
    assert elapsed < 60.0


def test_criterion_4_extrema_base_z():
    t0 = time.perf_counter()
    found = {
        (target, mode): find_extremum(target, mode, BASE_Z, UNIT_RATES,
                                      num_starts=1000, seed=0).value
        for target in ("az", "el")
        for mode in ("max", "min")
    }
    elapsed = time.perf_counter() - t0
    assert abs(found[("el", "max")] - math.pi) <= 1e-3
    assert abs(found[("az", "max")] - math.pi) <= 1e-3
    assert found[("el", "min")] <= 1e-6
    assert found[("az", "min")] <= 1e-6
    assert elapsed < 60.0


class TestCriterion5:
    def test_criterion_5_case_periods(self, case_reports):
        reports, elapsed = case_reports
        assert elapsed < 300.0
        for report, (label, stated_period, _) in zip(reports, CASE_TARGETS):
            assert report.spec.label == label
            assert abs(report.analytic_period - stated_period) < 1e-12
            gap = abs(report.analytic_period - report.numeric_period)
            assert gap < 1e-6 * report.analytic_period

    def test_criterion_5_case_azimuthal_maxima(self, case_reports):
        reports, _ = case_reports
        for report in reports:
            assert abs(report.max_az - math.pi) <= 1e-2, report.spec.label

    def test_criterion_5_case_elevation_maxima(self, case_reports):
        reports, _ = case_reports
        for report, (label, _, stated_el) in zip(reports, CASE_TARGETS):
            assert abs(report.max_el - stated_el) <= 1e-2, label


def test_case_extrema_meet_the_closed_forms(case_reports):
    # every case study has the full box and omega >= 1, so all four values have closed forms
    reports, _ = case_reports
    for report in reports:
        want = closed_form_extrema(report.spec.base_vector, report.spec.angles)
        got = (report.max_az, report.max_el, report.min_az, report.min_el)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9, (report.spec.label, got, want)


def test_criterion_6_generator_theory():
    expected = np.array([-1j * math.sqrt(5), 0.0, 1j * math.sqrt(5)])
    j = generator(UNIT_RATES)

    dense = np.sort_complex(np.linalg.eigvals(j))
    assert np.abs(dense - expected).max() < 1e-12
    analytic = np.sort_complex(np.asarray(generator_eigenvalues(UNIT_RATES)))
    assert np.abs(analytic - expected).max() < 1e-12

    rng = np.random.default_rng(6)
    for _ in range(100):
        angles = tuple(rng.uniform(-3.0, 3.0, 3))
        t = float(rng.uniform(0.0, 10.0))
        direct = sp_general(t, angles)
        via_exp = matrix_exp_generator(generator(angles), t)
        assert np.abs(direct - via_exp).max() < 1e-12

    h = 1e-6
    for _ in range(10):
        angles = tuple(rng.uniform(-2.0, 2.0, 3))
        fd = (sp_general(h, angles) - sp_general(-h, angles)) / (2 * h)
        assert np.abs(fd - generator(angles)).max() < 1e-6


def test_criterion_7_limit_convergence():
    gaps = [limit_convergence_check(1.0, UNIT_RATES, s) for s in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert limit_convergence_check(1.0, UNIT_RATES, 10**6) < 1e-5


def test_criterion_8_property_suites():
    trials = 1000
    rng = np.random.default_rng(8)
    eye2 = np.eye(2)
    eye3 = np.eye(3)

    for _ in range(trials):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        angles = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, 3))

        # norm preservation through both rotation routes
        s = euler_matrix(angles)
        u = su2_from_euler(angles)
        assert abs(np.linalg.norm(rotate_euler(v, s)) - 1.0) < 1e-12
        assert abs(np.linalg.norm(rotate_su2(v, u)) - 1.0) < 1e-12

        # orthogonality / unitarity of the rotation representations
        assert np.abs(s.T @ s - eye3).max() < 1e-12
        assert abs(np.linalg.det(s) - 1.0) < 1e-12
        assert np.abs(u.conj().T @ u - eye2).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12

        # Hermiticity round trip for the state matrix
        m = qubit_to_matrix(v)
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert abs(np.trace(m)) < 1e-12
        assert np.abs(matrix_to_cartesian(m) - v).max() < 1e-12

        # wrapped angular distance is a bounded metric
        a, b, c = rng.uniform(-50.0, 50.0, 3)
        dab = angle_distance(a, b)
        assert 0.0 <= dab <= math.pi
        assert abs(dab - angle_distance(b, a)) < 1e-12
        assert angle_distance(a, a) == 0.0
        assert angle_distance(a, c) <= dab + angle_distance(b, c) + 1e-12

        # discrepancies stay inside [0, pi]
        err = tuple(rng.uniform(0.0, 2 * math.pi, 3))
        t = float(rng.uniform(0.0, 20.0))
        daz, del_ = delta_closed_form(err, t, angles)
        assert -1e-12 <= daz <= math.pi + 1e-12
        assert -1e-12 <= del_ <= math.pi + 1e-12

    # determinism under an explicit seed
    for trial in range(trials):
        seed = int(rng.integers(0, 2**32))
        target = ("az", "el")[trial % 2]
        mode = ("max", "min")[(trial // 2) % 2]
        first = find_extremum(target, mode, BASE_X, UNIT_RATES,
                              num_starts=1, seed=seed)
        again = find_extremum(target, mode, BASE_X, UNIT_RATES,
                              num_starts=1, seed=seed)
        assert first == again


def test_criterion_9_time_averaged_error():
    rng = np.random.default_rng(9)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(50):
        err = tuple(rng.uniform(0.0, 2 * math.pi, 3))
        angles = tuple(rng.uniform(-3.0, 3.0, 3))
        cycle = period(angles)
        peaks = np.array(
            [delta_closed_form(err, float(t) * cycle, angles) for t in grid]
        )
        avg_az = time_averaged_error("az", err, angles)
        avg_el = time_averaged_error("el", err, angles)
        assert avg_az <= peaks[:, 0].max() + 1e-9
        assert avg_el <= peaks[:, 1].max() + 1e-9

    cycle = period(UNIT_RATES)
    panels = 10**6
    width = cycle / panels
    total_az = 0.0
    total_el = 0.0
    for j in range(panels):
        daz, del_ = delta_closed_form(REF_ERR, (j + 0.5) * width, UNIT_RATES)
        total_az += daz
        total_el += del_
    assert abs(time_averaged_error("az", REF_ERR, UNIT_RATES) - total_az / panels) < 1e-6
    assert abs(time_averaged_error("el", REF_ERR, UNIT_RATES) - total_el / panels) < 1e-6
