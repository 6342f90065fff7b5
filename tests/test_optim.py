import numpy as np
import pytest

from fcxs.errors import NumericError
from fcxs.optim import Adam
from fcxs.tensor import Tensor


def make_param(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = make_param([1.0, -2.0])
        opt = Adam([("p", p)], lr=1e-3)
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        # with constant gradient, m_hat/sqrt(v_hat) = sign(g) at t=1
        for g in (0.5, -3.0, 1e-4):
            p = make_param([0.0])
            opt = Adam([("p", p)], lr=1e-5)
            p.grad = np.array([g])
            opt.step()
            assert abs(p.data[0]) == pytest.approx(1e-5, rel=1e-3)
            assert np.sign(p.data[0]) == -np.sign(g)

    def test_minimizes_quadratic(self):
        p = make_param([1.0])
        opt = Adam([("p", p)], lr=1e-3)
        for _ in range(100_000):
            p.grad = 2.0 * p.data
            opt.step()
            if abs(p.data[0]) < 0.5:
                break
        assert abs(p.data[0]) < 0.5

    def test_nonfinite_gradient_aborts_whole_step(self):
        p1 = make_param([1.0])
        p2 = make_param([2.0])
        opt = Adam([("a", p1), ("b", p2)], lr=1e-3)
        p1.grad = np.array([1.0])
        p2.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="b"):
            opt.step()
        np.testing.assert_array_equal(p1.data, [1.0])  # nothing moved
        assert opt.t == 0

    def test_moment_shapes_mirror_params(self):
        p = make_param(np.zeros((3, 4)))
        opt = Adam([("p", p)])
        assert opt.m[0].shape == (3, 4) and opt.v[0].shape == (3, 4)
