import math

import numpy as np
import pytest

from safeadmit import (ControllerState, DesiredPoint, FxtismcGains,
                       JointState, ManipulatorParams, ValidationError,
                       compensating_control, nominal_control, signed_power,
                       sliding_variable)
from safeadmit.arm import cartesian_dynamics_terms, cartesian_state
from safeadmit.smc import _nominal_axis, control

P = ManipulatorParams()
GAINS = FxtismcGains()


def _terms(q=(0.5236, 2.0944), qd=(0.0, 0.0)):
    st = JointState(q, qd)
    return cartesian_dynamics_terms(P, st, include_friction=False), cartesian_state(P, st)


class TestSignedPower:
    def test_zero(self):
        assert np.array_equal(signed_power(0.0, 0.7), 0.0)

    def test_negative_base(self):
        assert abs(signed_power(-32.0, 0.2) - (-2.0)) < 1e-12

    def test_odd(self, rng):
        for _ in range(100):
            z = rng.uniform(-5, 5, 3)
            a = rng.uniform(0.1, 3.0)
            assert np.array_equal(signed_power(-z, a), -signed_power(z, a))

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValidationError):
            signed_power(1.0, 0.0)

    def test_slope_floor(self):
        # derivative of |z|^a blows up at 0 for a < 1; the nominal law caps
        # alpha's slope at |z| = 1e-6 (beta > 1 needs no floor)
        g = FxtismcGains()
        # s1 = 0 and s1dot = s2 = 1: v = -(l1 + l2 alpha 1e-6^(alpha-1)) - l1 - l2 - l3
        v = _nominal_axis(g.constants[0], 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        floored = g.lambda2 * (g.alpha * 1e-6 ** (g.alpha - 1.0))
        assert math.isfinite(v)
        assert v == -(g.lambda1 + floored) - g.lambda1 - g.lambda2 - g.lambda3


class TestGainValidation:
    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            FxtismcGains(alpha=1.5)

    def test_beta_range(self):
        with pytest.raises(ValidationError):
            FxtismcGains(beta=0.5)

    def test_positive_rho(self):
        with pytest.raises(ValidationError):
            FxtismcGains(rho=-1.0)


class TestNominal:
    def test_zero_error_is_feedforward(self):
        terms, cart = _terms()
        ref = DesiredPoint(cart.x, cart.xdot, (0.3, -0.2))
        u0 = nominal_control(GAINS, terms, cart, ref)
        # with both surfaces zero the law reduces to M_x (xddot_d - gamma)
        gamma = -np.asarray(terms.Xi) @ terms.bias
        assert np.allclose(u0, terms.M_x @ (ref.xddot_d - gamma), atol=1e-12)

    def test_alpha_s_dot_finite_difference(self, rng):
        # analytic derivative of the stabilizing function vs finite
        # differences along a small synthetic trajectory
        l1, l2, l3 = GAINS.lambda1, GAINS.lambda2, GAINS.lambda3
        a, b = GAINS.alpha, GAINS.beta

        def alpha_s(s1, xdot_d):
            return -(l1 * s1 + l2 * signed_power(s1, a) + l3 * signed_power(s1, b)) + xdot_d

        delta = 1e-6
        for _ in range(100):
            s1 = rng.uniform(0.01, 0.5, 2) * rng.choice([-1.0, 1.0], 2)
            s1dot = rng.uniform(-0.5, 0.5, 2)
            fd = (alpha_s(s1 + delta * s1dot, 0.0) - alpha_s(s1, 0.0)) / delta
            analytic = -(l1 + l2 * a * np.abs(s1) ** (a - 1)
                         + l3 * b * np.abs(s1) ** (b - 1)) * s1dot
            denom = np.maximum(np.abs(analytic), 1e-3)
            assert (np.abs(fd - analytic) / denom <= 1e-3).all()

    def test_error_decays_without_disturbance(self):
        # friction-free closed loop on the admittance double integrator:
        # a 0.05 m offset decays below 1e-3 within 1 s
        dt = 1e-3
        x = np.array([0.05, 0.0])
        xd = np.zeros(2)
        terms, _ = _terms()
        ref = DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))

        class Cart:
            pass

        for _ in range(1000):
            cart = Cart()
            cart.x, cart.xdot = x.copy(), xd.copy()
            u0 = nominal_control(GAINS, terms, cart, ref)
            acc = np.asarray(terms.Xi) @ u0 + (-np.asarray(terms.Xi) @ terms.bias)
            xd = xd + dt * acc
            x = x + dt * xd
        assert np.linalg.norm(x) < 1e-3


class TestCompensator:
    def test_first_call_inert(self):
        terms, _ = _terms()
        u_s, state = compensating_control(GAINS, ControllerState(), terms,
                                          (0.02, -0.01), (0.1, 0.0),
                                          (0.0, 0.0), 1e-3)
        assert np.array_equal(u_s, np.zeros(2))
        assert state.initialized

    def test_zero_error_stays_zero(self):
        terms, _ = _terms()
        state = ControllerState()
        for _ in range(10):
            u_s, state = compensating_control(GAINS, state, terms,
                                              np.zeros(2), np.zeros(2),
                                              np.zeros(2), 1e-3)
            assert np.abs(u_s).max() < 1e-12

    def test_sliding_variable_zero_on_surface(self):
        e = np.array([0.01, -0.02])
        edot = -GAINS.kappa2 * signed_power(e, GAINS.n_exp)
        assert np.abs(sliding_variable(GAINS, e, edot) - e).max() < 1e-12
        assert np.abs(sliding_variable(GAINS, np.zeros(2), np.zeros(2))).max() == 0.0

    def test_integral_accumulates_model_mismatch(self):
        # constant mismatch between reported eddot and the truth drives a
        # growing sigma and hence a nonzero correction
        terms, _ = _terms()
        state = ControllerState()
        e = np.zeros(2)
        edot = np.zeros(2)
        dt = 1e-3
        disturbance = np.array([0.5, 0.0])
        last = np.zeros(2)
        for _ in range(200):
            u_s, state = compensating_control(GAINS, state, terms, e, edot,
                                              np.zeros(2), dt)
            last = u_s
            edot = edot + dt * disturbance  # true accel exceeds the model
            e = e + dt * edot
        # the correction opposes the disturbance on axis 0
        assert last[0] < 0.0

    def test_zero_dt_rejected(self):
        terms, _ = _terms()
        with pytest.raises(ValidationError):
            compensating_control(GAINS, ControllerState(), terms,
                                 np.zeros(2), np.zeros(2), np.zeros(2), 0.0)


class TestFullControl:
    def test_decomposition(self):
        terms, cart = _terms()
        ref = DesiredPoint(np.asarray(cart.x) + [0.01, 0.0], cart.xdot, (0.0, 0.0))
        _, state1 = control(GAINS, ControllerState(), terms, cart, ref, 1e-3)
        f_c2, _ = control(GAINS, state1, terms, cart, ref, 1e-3)
        u0 = nominal_control(GAINS, terms, cart, ref)
        gamma = -np.asarray(terms.Xi) @ terms.bias
        e = np.asarray(cart.x) - ref.x_d
        edot = np.asarray(cart.xdot) - ref.xdot_d
        eddot = np.asarray(terms.Xi) @ u0 + gamma - ref.xddot_d
        u_s, _ = compensating_control(GAINS, state1, terms, e, edot, eddot, 1e-3)
        assert np.abs(np.asarray(f_c2) - (np.asarray(u0) + u_s)).max() < 1e-9

    def test_zero_error_is_bias_feedforward(self):
        terms, cart = _terms()
        ref = DesiredPoint(cart.x, cart.xdot, (0.0, 0.0))
        f_c, _ = control(GAINS, ControllerState(), terms, cart, ref, 1e-3)
        # pure dynamics cancellation: M_x * (-gamma) = bias
        assert np.allclose(f_c, terms.bias, atol=1e-9)

    def test_force_limit_clamps(self):
        gains = FxtismcGains(force_limit=1.0)
        terms, cart = _terms()
        ref = DesiredPoint(np.asarray(cart.x) + [0.5, 0.5], cart.xdot, (0.0, 0.0))
        f_c, _ = control(gains, ControllerState(), terms, cart, ref, 1e-3)
        assert np.abs(f_c).max() <= 1.0

    def test_nominal_only_skips_compensator_state(self):
        terms, cart = _terms()
        ref = DesiredPoint(np.asarray(cart.x) + [0.01, 0.0], cart.xdot, (0.0, 0.0))
        state = ControllerState()
        f_c, new_state = control(GAINS, state, terms, cart, ref, 1e-3,
                                 nominal_only=True)
        assert new_state is state
        assert np.allclose(f_c, nominal_control(GAINS, terms, cart, ref))
