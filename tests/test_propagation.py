"""Discrepancy series, the closed-form rotation family, and its generator."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from blochprop.bloch import POLE_EPS, EulerAngles, angle_distance, cartesian_to_spherical
from blochprop.propagation import (
    DegenerateRotationError,
    ErrorAngles,
    ErrorSeries,
    delta_closed_form,
    delta_pair,
    equivalent_continuous_angles,
    generator,
    generator_eigenvalues,
    limit_convergence_check,
    matrix_exp_generator,
    period,
    rotation_log,
    simulate,
    sp_general,
    sp_special,
)
from blochprop.rotations import euler_matrix

SQRT5 = math.sqrt(5.0)
REF_ERR = (0.0, 0.2, 0.0)
REF_STEP = EulerAngles(math.pi / 100, math.pi / 100, math.pi / 100)

angle_triples = st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
times = st.floats(-20.0, 20.0)


def ref_pair():
    v = np.array([1.0, 0.0, 0.0])
    return v, v @ euler_matrix(EulerAngles(*REF_ERR))


class TestDeltaPair:
    def test_equal_vectors(self):
        v = np.array([0.3, -0.4, 0.5])
        assert delta_pair(v, v) == (0.0, 0.0)

    def test_quarter_turn_same_elevation(self):
        daz, del_ = delta_pair((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert daz == pytest.approx(math.pi / 2, abs=1e-15)
        assert del_ == 0.0

    def test_tilted_reference_vector(self):
        daz, del_ = delta_pair((1.0, 0.0, 0.0), (0.9800665778412416, 0.0, -0.19866933079506122))
        assert daz == 0.0
        assert del_ == pytest.approx(0.2, abs=1e-12)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            delta_pair((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def reference_delta_pair(w, w_err):
    """delta_pair composed from the bloch primitives."""
    r1, el1, az1 = cartesian_to_spherical(w)
    r2, el2, az2 = cartesian_to_spherical(w_err)
    if r1 < POLE_EPS or r2 < POLE_EPS:
        raise ValueError("zero vector")
    return angle_distance(az1, az2), angle_distance(el1, el2)


# components near 0 put vectors at or near the pole, where the azimuth is pinned to 0
components = st.one_of(st.floats(-2, 2), st.floats(-1e-11, 1e-11))
vectors = st.tuples(components, components, components)


@settings(max_examples=300)
@given(vectors, vectors)
def test_delta_pair_equals_bloch_composition(w, w_err):
    try:
        expected = reference_delta_pair(w, w_err)
    except ValueError:
        with pytest.raises(ValueError, match="zero"):
            delta_pair(w, w_err)
    else:
        assert delta_pair(w, w_err) == expected


class TestErrorSeries:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            ErrorSeries(t=np.array([0.0, 2.0, 1.0]), delta_az=np.zeros(3), delta_el=np.zeros(3))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            ErrorSeries(t=np.arange(3.0), delta_az=np.zeros(2), delta_el=np.zeros(3))

    def test_rejects_out_of_range_delta(self):
        with pytest.raises(ValueError, match="0, pi"):
            ErrorSeries(t=np.arange(2.0), delta_az=np.array([0.0, 4.0]), delta_el=np.zeros(2))

    def test_len(self):
        s = ErrorSeries(t=np.arange(4.0), delta_az=np.zeros(4), delta_el=np.zeros(4))
        assert len(s) == 4

    def test_error_angles_fields(self):
        e = ErrorAngles(0.1, 0.2, 0.3)
        assert (e.eps_x, e.eps_y, e.eps_z) == (0.1, 0.2, 0.3)


class TestSimulate:
    def test_zero_error_stays_zero(self):
        v = np.array([1.0, 0.0, 0.0])
        s = simulate(v, v.copy(), EulerAngles(0.7, 1.3, -0.2), 40)
        assert np.all(s.delta_az == 0.0)
        assert np.all(s.delta_el == 0.0)

    def test_series_length_and_t0(self):
        v, v_err = ref_pair()
        s = simulate(v, v_err, REF_STEP, 200)
        assert len(s) == 201
        assert s.delta_az[0] == 0.0
        assert s.delta_el[0] == pytest.approx(0.2, abs=1e-12)

    def test_zero_steps(self):
        v, v_err = ref_pair()
        s = simulate(v, v_err, REF_STEP, 0)
        assert len(s) == 1

    def test_su2_pipeline_matches_euler(self):
        v, v_err = ref_pair()
        a = simulate(v, v_err, REF_STEP, 200, pipeline="euler")
        b = simulate(v, v_err, REF_STEP, 200, pipeline="su2")
        assert np.abs(a.delta_az - b.delta_az).max() < 1e-9
        assert np.abs(a.delta_el - b.delta_el).max() < 1e-9

    def test_closed_pipeline_matches_euler(self):
        v, v_err = ref_pair()
        a = simulate(v, v_err, REF_STEP, 200, pipeline="euler")
        c = simulate(v, v_err, REF_STEP, 200, pipeline="closed")
        assert np.abs(a.delta_az - c.delta_az).max() < 1e-9
        assert np.abs(a.delta_el - c.delta_el).max() < 1e-9

    def test_closed_pipeline_handles_unequal_step_angles(self):
        v, v_err = ref_pair()
        step = EulerAngles(0.1, 0.2, 0.3)
        a = simulate(v, v_err, step, 50, pipeline="euler")
        c = simulate(v, v_err, step, 50, pipeline="closed")
        assert np.abs(a.delta_az - c.delta_az).max() < 1e-9
        assert np.abs(a.delta_el - c.delta_el).max() < 1e-9

    def test_rejects_bad_inputs(self):
        v, v_err = ref_pair()
        with pytest.raises(ValueError, match="unit"):
            simulate(2 * v, v_err, REF_STEP, 5)
        with pytest.raises(ValueError, match="steps"):
            simulate(v, v_err, REF_STEP, -1)
        with pytest.raises(ValueError, match="pipeline"):
            simulate(v, v_err, REF_STEP, 5, pipeline="rk4")


class TestSpGeneral:
    def test_t0_is_identity(self):
        assert np.allclose(sp_general(0.0, (1, 1, 1)), np.eye(3))

    def test_unit_rates_match_explicit_form(self):
        for t in np.linspace(-3.0, 7.0, 41):
            assert np.abs(sp_general(t, (1, 1, 1)) - sp_special(t)).max() < 1e-14

    def test_full_period_closes(self):
        for angles in [(1, 1, 1), (0.3, 2.0, -0.7), (2, 1, 3)]:
            w = math.hypot(angles[1], angles[0] + angles[2])
            assert np.abs(sp_general(2 * math.pi / w, angles) - np.eye(3)).max() < 1e-12

    def test_degenerate_rates_give_identity(self):
        assert np.allclose(sp_general(3.7, (0.5, 0.0, -0.5)), np.eye(3))

    def test_near_degenerate_matches_identity_branch(self):
        # omega = 1e-8 sits just off the exact-zero code path
        angles = (4e-9, 6e-9, 4e-9)
        w = math.hypot(6e-9, 8e-9)
        assert w == pytest.approx(1e-8)
        assert np.abs(sp_general(1.0, angles) - np.eye(3)).max() < 1e-8

    @settings(max_examples=300, deadline=None)
    @given(angle_triples, times)
    def test_orthogonal_det_one(self, angles, t):
        m = sp_general(t, angles)
        assert np.abs(m.T @ m - np.eye(3)).max() < 1e-12
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(angle_triples, st.floats(-8, 8), st.floats(-8, 8))
    def test_semigroup(self, angles, t1, t2):
        lhs = sp_general(t1 + t2, angles)
        rhs = sp_general(t1, angles) @ sp_general(t2, angles)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_complex_hyperbolic_form_oracle(self):
        # same family written with cosh/sinh of the imaginary argument
        rng = np.random.default_rng(17)
        for _ in range(100):
            phi, theta, psi = rng.uniform(-4, 4, 3)
            t = rng.uniform(-6, 6)
            a = phi + psi
            w2 = theta * theta + a * a
            if w2 < 1e-12:
                continue
            cap = cmath.sqrt(complex(-w2))
            c = cmath.cosh(t * cap)
            s_w = cmath.sinh(t * cap) / cap
            mc_w2 = (cmath.cosh(t * cap) - 1.0) / (cap * cap)
            oracle = np.array(
                [
                    [c, a * s_w, -theta * s_w],
                    [-a * s_w, 1.0 - mc_w2 * a * a, mc_w2 * a * theta],
                    [theta * s_w, mc_w2 * a * theta, 1.0 - mc_w2 * theta * theta],
                ]
            )
            assert np.abs(oracle.imag).max() < 1e-9
            assert np.abs(oracle.real - sp_general(t, (phi, theta, psi))).max() < 1e-12


class TestSpSpecial:
    def test_t0_identity(self):
        assert np.allclose(sp_special(0.0), np.eye(3))

    def test_top_left_entry(self):
        assert sp_special(1.0)[0, 0] == pytest.approx(math.cos(SQRT5), abs=1e-15)

    def test_period_closes(self):
        assert np.abs(sp_special(2 * math.pi / SQRT5) - np.eye(3)).max() < 1e-12


class TestLimitConvergence:
    def test_t0_exact(self):
        assert limit_convergence_check(0.0, (1, 1, 1), 1) == 0.0

    def test_monotone_decrease(self):
        errs = [limit_convergence_check(1.0, (1, 1, 1), s) for s in (10, 100, 10**4)]
        assert errs[0] > errs[1] > errs[2]

    def test_frozen_measured_constants(self):
        # values recorded from this implementation; guard against regressions
        assert limit_convergence_check(1.0, (1, 1, 1), 10) == pytest.approx(2.7561493434781602e-3, rel=1e-6)
        assert limit_convergence_check(1.0, (1, 1, 1), 100) == pytest.approx(2.753246094654137e-5, rel=1e-6)

    def test_large_s_below_threshold(self):
        assert limit_convergence_check(1.0, (1, 1, 1), 10**6) < 1e-5

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError, match="s must"):
            limit_convergence_check(1.0, (1, 1, 1), 0)


class TestGenerator:
    def test_unit_rates(self):
        g = generator((1, 1, 1))
        assert np.array_equal(g, np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_zero_rates(self):
        assert np.array_equal(generator((0, 0, 0)), np.zeros((3, 3)))

    @settings(max_examples=200, deadline=None)
    @given(angle_triples)
    def test_antisymmetric(self, angles):
        g = generator(angles)
        assert np.abs(g + g.T).max() == 0.0
        assert np.trace(g) == 0.0

    def test_finite_difference_derivative(self):
        h = 1e-5
        for angles in [(1, 1, 1), (0.3, 2.0, -0.7), (2, 1, 3)]:
            fd = (sp_general(h, angles) - sp_general(-h, angles)) / (2 * h)
            assert np.abs(fd - generator(angles)).max() < 1e-6

    def test_exponential_recovers_family(self):
        g = generator((0.4, 1.7, -0.9))
        for t in (0.0, 0.3, 2.1):
            assert np.abs(matrix_exp_generator(g, t) - sp_general(t, (0.4, 1.7, -0.9))).max() < 1e-12


class TestGeneratorEigenvalues:
    def test_unit_rates(self):
        ev = generator_eigenvalues((1, 1, 1))
        assert ev == (0j, 1j * SQRT5, -1j * SQRT5)

    def test_zero_rates(self):
        assert generator_eigenvalues((0, 0, 0)) == (0j, 0j, 0j)

    def test_against_dense_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            angles = tuple(rng.uniform(-5, 5, 3))
            mine = sorted(generator_eigenvalues(angles), key=lambda z: z.imag)
            dense = sorted(np.linalg.eigvals(generator(angles)), key=lambda z: z.imag)
            assert max(abs(a - b) for a, b in zip(mine, dense)) < 1e-10


class TestPeriod:
    def test_unit_rates(self):
        assert period((1, 1, 1)) == pytest.approx(2 * math.pi / SQRT5, abs=1e-15)

    def test_transcendental_rates(self):
        t = period(EulerAngles(math.e, math.pi, 3.0))
        assert t == pytest.approx(2 * math.pi / math.sqrt(math.pi**2 + (math.e + 3) ** 2), abs=1e-15)

    def test_mixed_rates(self):
        t = period(EulerAngles(1.0, 1.0, math.pi))
        assert t == pytest.approx(2 * math.pi / math.sqrt(1 + (1 + math.pi) ** 2), abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRotationError):
            period((0.5, 0.0, -0.5))
        with pytest.raises(DegenerateRotationError):
            period((0, 0, 0))


class TestMatrixExpGenerator:
    def test_t0_identity(self):
        assert np.allclose(matrix_exp_generator(generator((1, 1, 1)), 0.0), np.eye(3))

    def test_full_period_identity(self):
        g = generator((1, 1, 1))
        assert np.abs(matrix_exp_generator(g, 2 * math.pi / SQRT5) - np.eye(3)).max() < 1e-12

    def test_unit_rates_match_explicit_form(self):
        g = generator((1, 1, 1))
        assert np.abs(matrix_exp_generator(g, 0.7) - sp_special(0.7)).max() < 1e-12

    def test_against_dense_expm_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            a, b, c = rng.uniform(-3, 3, 3)
            j = np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]])
            t = rng.uniform(-4, 4)
            assert np.abs(matrix_exp_generator(j, t) - expm(t * j)).max() < 1e-12

    def test_zero_generator(self):
        assert np.allclose(matrix_exp_generator(np.zeros((3, 3)), 5.0), np.eye(3))

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            matrix_exp_generator(np.eye(3), 1.0)


class TestRotationLog:
    def test_round_trip_through_exp(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            a, b, c = rng.uniform(-1, 1, 3)
            j = np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]])
            # keep the rotation angle below pi so the principal log is unique
            w = math.sqrt(a * a + b * b + c * c)
            if w > 3.0:
                continue
            r = matrix_exp_generator(j, 1.0)
            assert np.abs(rotation_log(r) - j).max() < 1e-10

    def test_identity(self):
        assert np.abs(rotation_log(np.eye(3))).max() == 0.0

    def test_small_angle(self):
        j = generator((1e-7, 1e-7, 1e-7))
        r = matrix_exp_generator(j, 1.0)
        assert np.abs(rotation_log(r) - j).max() < 1e-12

    def test_half_turn_rejected(self):
        r = euler_matrix(EulerAngles(0.0, math.pi, 0.0))
        with pytest.raises(ValueError, match="ambiguous"):
            rotation_log(r)


class TestEquivalentContinuousAngles:
    def test_reference_step_rates(self):
        eff = equivalent_continuous_angles(REF_STEP)
        assert eff.theta == pytest.approx(0.03142109450364043, abs=1e-15)
        assert eff.phi + eff.psi == pytest.approx(0.06282668459390069, abs=1e-15)
        assert eff.phi == eff.psi

    def test_interpolates_integer_powers_exactly(self):
        eff = equivalent_continuous_angles(REF_STEP)
        s = euler_matrix(REF_STEP)
        powered = np.eye(3)
        for i in range(1, 120):
            powered = powered @ s
            assert np.abs(sp_general(float(i), eff) - powered).max() < 1e-12

    def test_rejects_unequal_outer_angles(self):
        with pytest.raises(ValueError, match="x-generator"):
            equivalent_continuous_angles(EulerAngles(0.1, 0.2, 0.3))


class TestDeltaClosedForm:
    def test_zero_error(self):
        for t in (0.0, 0.5, 3.0):
            assert delta_closed_form((0, 0, 0), t, (1, 1, 1)) == (0.0, 0.0)

    def test_matches_simulation_through_exact_bridge(self):
        v, v_err = ref_pair()
        sim = simulate(v, v_err, REF_STEP, 200)
        eff = equivalent_continuous_angles(REF_STEP)
        for i in (0, 1, 7, 50, 131, 200):
            daz, del_ = delta_closed_form(REF_ERR, float(i), eff)
            assert daz == pytest.approx(sim.delta_az[i], abs=1e-9)
            assert del_ == pytest.approx(sim.delta_el[i], abs=1e-9)

    def test_periodicity(self):
        t_period = 2 * math.pi / SQRT5
        rng = np.random.default_rng(31)
        for _ in range(20):
            err = tuple(rng.uniform(0, 2 * math.pi, 3))
            for t in rng.uniform(0, 10, 5):
                a0 = delta_closed_form(err, t, (1, 1, 1))
                a1 = delta_closed_form(err, t + t_period, (1, 1, 1))
                assert abs(a0[0] - a1[0]) < 1e-9
                assert abs(a0[1] - a1[1]) < 1e-9

    def test_initial_error_recurs_at_period_multiples(self):
        t_period = 2 * math.pi / SQRT5
        base0 = delta_closed_form(REF_ERR, 0.0, (1, 1, 1))
        assert base0 == (0.0, pytest.approx(0.2, abs=1e-12))
        for k in (1, 2, 5):
            at_k = delta_closed_form(REF_ERR, k * t_period, (1, 1, 1))
            assert abs(at_k[0] - base0[0]) < 1e-9
            assert abs(at_k[1] - base0[1]) < 1e-9

    def test_configurable_base_vector(self):
        daz, del_ = delta_closed_form(REF_ERR, 0.0, (1, 1, 1), base=(0.0, 0.0, 1.0))
        # a y-rotation of the pole changes elevation by the rotation angle
        assert del_ == pytest.approx(0.2, abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(angle_triples, times, angle_triples)
    def test_bounded(self, err, t, angles):
        daz, del_ = delta_closed_form(err, t, angles)
        assert 0.0 <= daz <= math.pi + 1e-12
        assert 0.0 <= del_ <= math.pi + 1e-12

    def test_sup_over_ten_periods_equals_one_period(self):
        t_period = 2 * math.pi / SQRT5
        ts1 = np.linspace(0.0, t_period, 10**4, endpoint=False)
        ts10 = np.linspace(0.0, 10 * t_period, 10**4, endpoint=False)
        one = max(delta_closed_form(REF_ERR, t, (1, 1, 1))[1] for t in ts1)
        ten = max(delta_closed_form(REF_ERR, t, (1, 1, 1))[1] for t in ts10)
        assert abs(one - ten) < 1e-6
