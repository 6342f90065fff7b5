import weakref

import numpy as np
import pytest

from fcxs import tensor as T
from fcxs.errors import GraphStateError, NumericError, ShapeError
from fcxs.rng import Rng
from fcxs.tensor import Tensor


class TestTensorBasics:
    def test_data_is_contiguous_and_float(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.dtype == np.float32
        assert t.size == 6

    def test_float64_preserved(self):
        t = Tensor(np.zeros((2, 2), dtype=np.float64))
        assert t.dtype == np.float64

    def test_finite_check_on_op(self):
        x = Tensor(np.array([0.0, -1.0]), requires_grad=True)
        with pytest.raises(NumericError):
            T.log(x)  # log(0), log(-1)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        T.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_sum_of_sigmoid_at_zero(self):
        from fcxs.ops import sigmoid

        x = Tensor(np.zeros((2, 5)), requires_grad=True)
        T.tsum(sigmoid(x)).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 5), 0.25), atol=1e-7)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, 2.0)
        with pytest.raises(GraphStateError):
            y.backward()

    def test_backward_without_graph_raises(self):
        with pytest.raises(GraphStateError):
            Tensor(np.zeros(())).backward()

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.tsum(T.add(T.mul(x, 2.0), T.mul(x, 5.0)))
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_graph_nodes_topological(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = T.mul(x, 2.0)
        z = T.tsum(T.add(y, x))
        order = z.graph_nodes()
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_param_grad_shapes_match_after_backward(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        T.tsum(T.mul(a, b)).backward()
        assert a.grad.shape == a.shape and b.grad.shape == b.shape

    def test_elementwise_grads_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(0.2, 2.0, size=(4, 4)).astype(np.float64), requires_grad=True)

        def loss():
            return T.tsum(T.mul(T.log(x), T.clip(x, 0.5, 1.5)))

        value = loss()
        value.backward()
        analytic = x.grad.copy()
        numeric = np.zeros_like(analytic)
        h = 1e-6
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(loss().data)
            flat[i] = orig - h
            lm = float(loss().data)
            flat[i] = orig
            numeric.reshape(-1)[i] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestConsumedTape:
    def test_intermediate_is_freed(self):
        x = Tensor(np.array([0.5, 2.0, 3.0]), requires_grad=True)
        mid = T.mul(x, 2.0)
        data = weakref.ref(mid.data)
        loss = T.tsum(T.log(mid))
        del mid
        assert data() is not None  # the tape holds it until backward
        loss.backward()
        assert data() is None

    def test_caller_held_output_keeps_data(self):
        x = Tensor(np.array([0.5, 2.0, 3.0]), requires_grad=True)
        out = T.mul(x, 2.0)
        loss = T.tsum(out)
        loss.backward()
        np.testing.assert_array_equal(out.data, [1.0, 4.0, 6.0])
        assert float(loss.data) == 11.0
        assert out.grad is None and out._backward_fn is None and out._parents == ()

    def test_parameter_gradients_match_hand_values(self):
        w = Tensor(np.array([0.5, -1.0, 2.0], dtype=np.float64), requires_grad=True)
        c = Tensor(np.array([3.0, 1.0, -2.0], dtype=np.float64), requires_grad=True)
        # d/dw sum(w*w*c + w) = 2wc + 1, d/dc = w*w
        T.tsum(T.add(T.mul(T.mul(w, w), c), w)).backward()
        np.testing.assert_array_equal(w.grad, 2 * w.data * c.data + 1)
        np.testing.assert_array_equal(c.grad, w.data * w.data)

    def test_second_backward_raises(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = T.tsum(T.mul(w, 3.0))
        loss.backward()
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])
        with pytest.raises(GraphStateError):
            loss.backward()
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])

    def test_non_finite_gradient_raises(self):
        # log of the smallest float32 subnormal is finite, its derivative is not
        x = Tensor(np.array([1e-45, 1.0], dtype=np.float32), requires_grad=True)
        loss = T.tsum(T.log(x))
        assert np.isfinite(loss.data)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite gradient produced during backward"):
            loss.backward()


class TestNoGrad:
    def test_ops_inside_record_nothing(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with T.no_grad():
            y = T.mul(w, 2.0)
            loss = T.tsum(y)
        for out in (y, loss):
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward_fn is None
        np.testing.assert_array_equal(y.data, [2.0, -4.0, 6.0])
        with pytest.raises(GraphStateError):
            loss.backward()

    def _assert_recording(self):
        w = Tensor(np.ones(2), requires_grad=True)
        y = T.mul(w, 3.0)
        assert y.requires_grad and y._parents and y._backward_fn is not None

    def test_recording_resumes_after_block(self):
        with T.no_grad():
            pass
        self._assert_recording()

    def test_recording_resumes_after_nested_block(self):
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.mul(Tensor(np.ones(2), requires_grad=True), 3.0).requires_grad
        self._assert_recording()

    def test_recording_resumes_after_exception(self):
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.add(Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3)))
        self._assert_recording()


def _philox(seed, path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


class TestRng:
    N = 2_000_000  # 5 standard errors below are about 3.5e-3 (mean) and 2.5e-3 (std)

    def test_same_seed_bit_identical(self):
        a = Rng(123).normal((4, 4))
        b = Rng(123).normal((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_children_are_independent_but_deterministic(self):
        a1 = Rng(5).child(1, 2).normal((8,))
        a2 = Rng(5).child(1, 2).normal((8,))
        b = Rng(5).child(1, 3).normal((8,))
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_permutation_deterministic(self):
        np.testing.assert_array_equal(Rng(9).permutation(20), Rng(9).permutation(20))

    def test_float32_moments_and_tails_match_standard_normal(self):
        z = Rng(21).normal((self.N,)).astype(np.float64)
        se = 1.0 / np.sqrt(self.N)
        assert abs(z.mean()) < 5 * se
        assert abs(z.std() - 1.0) < 5 * se / np.sqrt(2)
        tail = 0.0026997960632601866  # P(|z| > 3)
        assert abs(np.mean(np.abs(z) > 3) - tail) < 5 * np.sqrt(tail * (1 - tail) / self.N)
        assert np.abs(z).max() <= np.sqrt(-2 * np.log(2.0**-24))  # the uniforms' 2^-24 grid

    def test_box_muller_halves_are_uncorrelated(self):
        z = Rng(22).normal((self.N,)).astype(np.float64)
        first, second = z[: self.N // 2], z[self.N // 2 :]
        bound = 5 / np.sqrt(self.N // 2)
        assert abs(np.corrcoef(first, second)[0, 1]) < bound
        assert abs(np.corrcoef(first**2, second**2)[0, 1]) < bound

    def test_float32_is_box_muller_on_the_streams_own_uniforms(self):
        n, half = 7, 4
        u = _philox(3, (1, 2)).random(2 * half, dtype=np.float32).astype(np.float64)
        r, theta = np.sqrt(-2 * np.log(1 - u[:half])), 2 * np.pi * u[half:]
        expected = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        np.testing.assert_allclose(Rng(3).child(1, 2).normal((n,)), expected, rtol=1e-5, atol=1e-6)

    def test_extreme_uniforms_stay_finite(self):
        rng = Rng(0)
        top = np.float32(1 - 2.0**-24)  # the largest float32 uniform

        class Uniforms:
            def random(self, size, dtype):
                return np.array([0.0, top, 0.0, 0.25], dtype=dtype)[:size]

        rng._gen = Uniforms()
        z = rng.normal((4,))
        assert np.isfinite(z).all()
        np.testing.assert_allclose(z, [0.0, 0.0, 0.0, np.sqrt(-2 * np.log(2.0**-24))], atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_seed_and_path_give_same_bits(self, dtype):
        a = Rng(8).child(4, 1).normal((3, 5, 7), dtype=dtype)
        b = Rng(8).child(4, 1).normal((3, 5, 7), dtype=dtype)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, Rng(8).child(4, 2).normal((3, 5, 7), dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, expected", [((3, 5), (3, 5)), ((), ()), ((2, 0, 4), (2, 0, 4)), (5, (5,))])
    def test_shape_and_dtype(self, shape, expected, dtype):
        z = Rng(1).normal(shape, dtype=dtype)
        assert isinstance(z, np.ndarray) and z.shape == expected and z.dtype == dtype
        assert np.isfinite(z).all()

    @pytest.mark.parametrize("shape", [(2, 3, 5), (), 4])
    def test_float64_is_philox_standard_normal(self, shape):
        expected = _philox(11, (2, 7)).standard_normal(shape)
        assert Rng(11).child(2, 7).normal(shape, dtype=np.float64).tobytes() == np.asarray(expected).tobytes()


class TestGradientBuffers:
    def test_first_delta_is_copied_not_aliased(self):
        from fcxs.ops import concat_channels

        # add hands its upstream gradient to both the concat and `other`;
        # x feeds both halves of the concat, so its first delta is a view of
        # that array and its second one is added on top
        x = Tensor(np.arange(18, dtype=np.float32).reshape(1, 2, 3, 3), requires_grad=True)
        other = Tensor(np.zeros((1, 4, 3, 3), dtype=np.float32), requires_grad=True)
        x_before = x.data.copy()
        cat = concat_channels(x, x)
        cat_before = cat.data.copy()
        weights = np.arange(36, dtype=np.float32).reshape(1, 4, 3, 3)
        T.tsum(T.mul(T.add(cat, other), weights)).backward()
        np.testing.assert_array_equal(other.grad, weights)
        np.testing.assert_array_equal(cat.data, cat_before)
        np.testing.assert_array_equal(x.data, x_before)
        np.testing.assert_array_equal(x.grad, weights[:, :2] + weights[:, 2:])
        assert not np.shares_memory(x.grad, other.grad)

    def test_first_delta_equal_to_upstream_is_copied(self):
        # add passes its upstream gradient array itself to both operands;
        # `a` then takes a second delta, which must not reach b's gradient,
        # whichever of a's two consumers runs its backward first
        for a_first in (True, False):
            a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
            b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
            y, z = T.add(a, b), T.mul(a, 3.0)
            T.tsum(T.add(y, z) if a_first else T.add(z, y)).backward()
            np.testing.assert_array_equal(b.grad, np.ones((2, 3), dtype=np.float32))
            np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0, dtype=np.float32))
            assert not np.shares_memory(a.grad, b.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_gradient_keeps_input_dtype(self, dtype, monkeypatch):
        from fcxs.ops import elu

        deltas = []
        accumulate = Tensor.accumulate_grad

        def recording(self, delta):
            deltas.append(delta)
            accumulate(self, delta)

        monkeypatch.setattr(Tensor, "accumulate_grad", recording)
        x = Tensor(np.array([-1.5, -0.25, 0.0, 0.5, 2.0], dtype=dtype), requires_grad=True)
        out = elu(x)
        assert out.dtype == dtype
        out._backward_fn(np.full(5, 2.0, dtype=dtype))
        assert deltas[-1].dtype == dtype and x.grad.dtype == dtype
        expected = 2.0 * np.where(x.data > 0, 1.0, np.exp(x.data.astype(np.float64)))
        np.testing.assert_allclose(x.grad, expected, rtol=1e-6)
