"""Operation-level tests against independent hand oracles.

The oracles here are deliberately naive (python loops over pixels) and
share no code with the library implementations they check.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from fcxs import ops
from fcxs import tensor as T
from fcxs.errors import ConfigError, ShapeError
from fcxs.rng import Rng
from fcxs.tensor import Tensor


# -- independent oracles -------------------------------------------------------


def conv2d_oracle(x, w, b, stride=1):
    """Direct zero-padded convolution, one output element at a time."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho = math.ceil(h / stride)
    wo = math.ceil(wd / stride)
    pad_h = max((ho - 1) * stride + kh - h, 0)
    pad_w = max((wo - 1) * stride + kw - wd, 0)
    pt, pl = pad_h // 2, pad_w // 2
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - pt
                                ix = ox * stride + kx - pl
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += x[ni, ci, iy, ix] * w[fi, ci, ky, kx]
                    out[ni, fi, oy, ox] = acc + b[fi]
    return out


def batched_im2col_conv2d(x, w, b, g, stride=1):
    """Whole-batch im2col convolution and its backward for upstream gradient g.

    Returns (out, dx, dw, db).  Each output element is the dot product and
    each gradient the sum that the library forms, in the same order, so a
    lean conv2d must match this bit for bit.
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho, wo = -(-h // stride), -(-wd // stride)
    pad_h = max((ho - 1) * stride + kh - h, 0)
    pad_w = max((wo - 1) * stride + kw - wd, 0)
    pt, pl = pad_h // 2, pad_w // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pad_h - pt), (pl, pad_w - pl)))
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols_mat = cols.reshape(n, c * kh * kw, ho * wo)
    w_mat = w.reshape(f, c * kh * kw)
    out = (w_mat @ cols_mat).reshape(n, f, ho, wo) + b.reshape(1, f, 1, 1)
    g_mat = g.reshape(n, f, ho * wo)
    db = g.sum(axis=(0, 2, 3))
    dw = g_mat[0] @ cols_mat[0].T
    for k in range(1, n):
        dw += g_mat[k] @ cols_mat[k].T
    dcols = (w_mat.T @ g_mat).reshape(n, c, kh, kw, ho, wo)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, i, j]
    return out, dxp[:, :, pt : pt + h, pl : pl + wd], dw.reshape(w.shape), db


def direct_conv2d_3x3(x, w, b, g):
    """Same-padded stride-1 3x3 convolution and its backward for upstream
    gradient g, in float64, one kernel tap at a time: (out, dx, dw, db)."""
    x, w, b, g = (np.asarray(a, dtype=np.float64) for a in (x, w, b, g))
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((n, w.shape[0], h, wd)) + b.reshape(1, -1, 1, 1)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(3):
        for j in range(3):
            shifted = xp[:, :, i : i + h, j : j + wd]
            out += np.einsum("fc,nchw->nfhw", w[:, :, i, j], shifted)
            dxp[:, :, i : i + h, j : j + wd] += np.einsum("fc,nfhw->nchw", w[:, :, i, j], g)
            dw[:, :, i, j] = np.einsum("nfhw,nchw->fc", g, shifted)
    return out, dxp[:, :, 1:-1, 1:-1], dw, g.sum(axis=(0, 2, 3))


def transposed_conv2d_oracle(x, w, b):
    """Scatter each input value through the 2x2 kernel into a 2x-sized grid."""
    n, c, h, wd = x.shape
    _, f, _, _ = w.shape
    out = np.zeros((n, f, 2 * h, 2 * wd))
    for ni in range(n):
        for ci in range(c):
            for y in range(h):
                for xx in range(wd):
                    for fi in range(f):
                        for ky in range(2):
                            for kx in range(2):
                                out[ni, fi, 2 * y + ky, 2 * xx + kx] += (
                                    x[ni, ci, y, xx] * w[ci, fi, ky, kx]
                                )
    return out + b.reshape(1, f, 1, 1)


def maxpool2d_oracle(x, stride):
    """Window max over 2x2 windows; out-of-bounds positions are skipped."""
    n, c, h, w = x.shape
    ho = h if stride == 1 else h // 2
    wo = w if stride == 1 else w // 2
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    vals = []
                    for ky in range(2):
                        for kx in range(2):
                            iy, ix = oy * stride + ky, ox * stride + kx
                            if iy < h and ix < w:
                                vals.append(x[ni, ci, iy, ix])
                    out[ni, ci, oy, ox] = max(vals)
    return out


def numeric_gradient(loss_fn, param, h=1e-6):
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = float(loss_fn().data)
        flat[i] = orig - h
        lm = float(loss_fn().data)
        flat[i] = orig
        grad[i] = (lp - lm) / (2 * h)
    return grad.reshape(param.shape)


def rand64(rng, shape):
    return Tensor(rng.normal(shape, dtype=np.float64), requires_grad=True)


# -- conv2d --------------------------------------------------------------------


class TestConv2d:
    def test_identity_1x1(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5, 5)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        b = Tensor(np.zeros(3))
        out = ops.conv2d(x, w, b, stride=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_hand_example_all_ones_kernel(self):
        # 2x2 input [[1,2],[3,4]], 3x3 ones kernel: every padded window sums to 10
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = ops.conv2d(x, w, b, stride=1)
        np.testing.assert_allclose(out.data, [[[[10.0, 10.0], [10.0, 10.0]]]])

    def test_stride2_halves_dims(self):
        x = Tensor(np.zeros((1, 1, 256, 256)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        b = Tensor(np.zeros(4))
        assert ops.conv2d(x, w, b, stride=2).shape == (1, 4, 128, 128)

    @pytest.mark.parametrize("stride,kernel", [(1, 1), (1, 3), (2, 3), (2, 2)])
    def test_matches_oracle_on_random_inputs(self, stride, kernel):
        rng = np.random.default_rng(42 + stride * 10 + kernel)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, kernel, kernel))
        b = rng.normal(size=4)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
        expected = conv2d_oracle(x, w, b, stride=stride)
        np.testing.assert_allclose(got.data, expected, rtol=1e-5, atol=1e-5)

    # (70, 40) splits the forward into row blocks with a ragged last block
    # at both strides: 13-row blocks of 40 output pixels (stride 1) and
    # 26-row blocks of 20 (stride 2)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [(5, 7), (70, 40)])
    @pytest.mark.parametrize("kernel", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_bit_identical_to_batched_im2col(self, batch, stride, kernel, size, dtype):
        rng = Rng(batch * 100 + stride * 10 + kernel)
        x = rng.child(0).normal((batch, 3) + size, dtype=dtype)
        w = rng.child(1).normal((4, 3, kernel, kernel), dtype=dtype)
        b = rng.child(2).normal((4,), dtype=dtype)
        ho, wo = -(-size[0] // stride), -(-size[1] // stride)
        g = rng.child(3).normal((batch, 4, ho, wo), dtype=dtype)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = ops.conv2d(xt, wt, bt, stride=stride)
        T.tsum(T.mul(out, Tensor(g))).backward()  # hands conv2d exactly g
        expected = batched_im2col_conv2d(x, w, b, g, stride=stride)
        for name, got, want in zip(("out", "dx", "dw", "db"), (out.data, xt.grad, wt.grad, bt.grad), expected):
            assert got.dtype == dtype, name
            assert np.array_equal(got, want), name

    # 5 input channels in blocks of 2 (2, 2 and a ragged 1) at both strides;
    # the 1x1 direct path is never split, so it is not forced here
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_channel_blocked_backward_bit_identical(self, stride, kernel, dtype, monkeypatch):
        rng = Rng(500 + stride * 10 + kernel)
        batch, size = 2, (9, 11)
        ho, wo = -(-size[0] // stride), -(-size[1] // stride)
        monkeypatch.setattr(ops, "_BLOCK_VALUES", 2 * kernel * kernel * ho * wo + 1)
        blocks = []
        im2col = ops._im2col

        def counting(cols, *args):
            blocks.append(cols.shape[0])
            return im2col(cols, *args)

        monkeypatch.setattr(ops, "_im2col", counting)
        x = rng.child(0).normal((batch, 5) + size, dtype=dtype)
        w = rng.child(1).normal((4, 5, kernel, kernel), dtype=dtype)
        b = rng.child(2).normal((4,), dtype=dtype)
        g = rng.child(3).normal((batch, 4, ho, wo), dtype=dtype)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = ops.conv2d(xt, wt, bt, stride=stride)
        blocks.clear()  # keep the backward's blocks only
        T.tsum(T.mul(out, Tensor(g))).backward()
        assert blocks == [2, 2, 1] * batch
        expected = batched_im2col_conv2d(x, w, b, g, stride=stride)
        for name, got, want in zip(("out", "dx", "dw", "db"), (out.data, xt.grad, wt.grad, bt.grad), expected):
            assert got.dtype == dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (1, 1)])
    def test_recording_keeps_no_buffer_beyond_output(self, kernel, stride):
        # 72 input rows per column against 4 filters: a column buffer kept
        # for the backward pass would be 18x the output
        rng = Rng(8)
        x = Tensor(rng.child(0).normal((2, 8, 32, 32)), requires_grad=True)
        w = Tensor(rng.child(1).normal((4, 8, kernel, kernel)), requires_grad=True)
        b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(x, w, b, stride=stride)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward_fn is not None
        assert retained <= out.data.nbytes + 4096, (retained, out.data.nbytes)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_stride1_preserves_dims_for_supported_kernels(self):
        for k in (1, 3):
            x = Tensor(np.zeros((1, 2, 7, 9)))
            w = Tensor(np.zeros((2, 2, k, k)))
            out = ops.conv2d(x, w, Tensor(np.zeros(2)), stride=1)
            assert out.shape == (1, 2, 7, 9)

    @pytest.mark.parametrize(
        "batch,stride,kernel", [(n, s, k) for n in (1, 2) for s in (1, 2) for k in (1, 2, 3)]
    )
    def test_gradients_match_finite_differences(self, batch, stride, kernel):
        # batch 2 checks the weight gradient summed over samples
        rng = Rng(3)
        x = rand64(rng.child(0), (batch, 2, 5, 5))
        w = rand64(rng.child(1), (3, 2, kernel, kernel))
        b = rand64(rng.child(2), (3,))

        def loss():
            return T.tsum(ops.elu(ops.conv2d(x, w, b, stride=stride)))

        loss().backward()
        for p in (x, w, b):
            np.testing.assert_allclose(p.grad, numeric_gradient(loss, p), rtol=1e-4, atol=1e-7)


# -- the Winograd path of conv2d ------------------------------------------------------

# the smallest routed input: conv2d takes stride-1 3x3 convolutions of at
# least this many channels over maps at least this many pixels a side to
# ops._winograd3x3, forward and dX
_WC, _WS = ops._WINOGRAD_MIN_CHANNELS, ops._WINOGRAD_MIN_SIZE


def _winograd_calls(monkeypatch) -> list:
    """Spy on ops._winograd3x3: the list gets one entry per call."""
    calls = []
    winograd = ops._winograd3x3

    def spy(x, w, out):
        calls.append(x.shape)
        return winograd(x, w, out)

    monkeypatch.setattr(ops, "_winograd3x3", spy)
    return calls


def _conv_and_grads(x, w, b, g):
    """conv2d of fresh leaves, backward with upstream gradient exactly g: (out, dx, dw, db)."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = ops.conv2d(xt, wt, bt)
    T.tsum(T.mul(out, Tensor(g))).backward()
    return out.data, xt.grad, wt.grad, bt.grad


class TestWinogradConv2d:
    # (N, C, F, H, W) with odd sides; at 67x65 the 34 tile rows of 33 tiles
    # go in blocks of 8 rows with a ragged last block of 2, whose second
    # output row is past the map's edge
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape", [(1, _WC, 3, _WS, _WS), (2, _WC, 4, _WS + 3, _WS + 1), (3, _WC + 1, 2, _WS + 2, _WS + 7)]
    )
    def test_routed_matches_float64_direct_reference(self, shape, dtype, monkeypatch):
        # the tolerance is on |error| / max|reference| per output: float32
        # sums of 9 * C products round at about 1e-7 relative, Winograd's
        # transforms add a few roundings more
        tolerance = {np.float32: 5e-6, np.float64: 1e-13}[dtype]
        n, c, f, h, w = shape
        rng = Rng(sum(shape))
        x = rng.child(0).normal((n, c, h, w), dtype=dtype)
        wt = rng.child(1).normal((f, c, 3, 3), dtype=dtype) / 16
        b = rng.child(2).normal((f,), dtype=dtype)
        g = rng.child(3).normal((n, f, h, w), dtype=dtype)
        calls = _winograd_calls(monkeypatch)
        got = _conv_and_grads(x, wt, b, g)
        assert calls == [(n, c, h, w), (n, f, h, w)]  # the forward, then dX
        for name, value, want in zip(("out", "dx", "dw", "db"), got, direct_conv2d_3x3(x, wt, b, g)):
            assert value.dtype == dtype and value.shape == want.shape, name
            error = np.abs(value - want).max() / np.abs(want).max()
            assert error <= tolerance, (name, error)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "channels, size", [(_WC - 1, (_WS, _WS)), (_WC, (_WS - 1, _WS + 5)), (_WC, (_WS + 5, _WS - 1))]
    )
    def test_one_step_below_a_threshold_stays_on_im2col(self, channels, size, dtype, monkeypatch):
        rng = Rng(channels + size[0])
        x = rng.child(0).normal((2, channels) + size, dtype=dtype)
        wt = rng.child(1).normal((3, channels, 3, 3), dtype=dtype)
        b = rng.child(2).normal((3,), dtype=dtype)
        g = rng.child(3).normal((2, 3) + size, dtype=dtype)
        calls = _winograd_calls(monkeypatch)
        got = _conv_and_grads(x, wt, b, g)
        assert calls == []
        for name, value, want in zip(("out", "dx", "dw", "db"), got, batched_im2col_conv2d(x, wt, b, g)):
            assert value.dtype == dtype, name
            assert np.array_equal(value, want), name

    def test_gradients_match_finite_differences(self, monkeypatch):
        rng = Rng(12)
        x = rand64(rng.child(0), (1, _WC, _WS + 1, _WS))
        w = Tensor(rng.child(1).normal((2, _WC, 3, 3), dtype=np.float64) / 16, requires_grad=True)
        b = rand64(rng.child(2), (2,))
        calls = _winograd_calls(monkeypatch)

        def loss():
            return T.tsum(ops.elu(ops.conv2d(x, w, b)))

        loss().backward()
        assert len(calls) == 2
        # 12 sampled entries per tensor: x alone has 266k, two forwards each
        picks = np.random.default_rng(0)
        for p in (x, w, b):
            flat = p.data.reshape(-1)
            for i in picks.choice(flat.size, size=min(flat.size, 12), replace=False):
                orig = flat[i]
                flat[i] = orig + 1e-6
                up = float(loss().data)
                flat[i] = orig - 1e-6
                down = float(loss().data)
                flat[i] = orig
                np.testing.assert_allclose(p.grad.reshape(-1)[i], (up - down) / 2e-6, rtol=1e-4, atol=1e-7)


# -- transposed conv -------------------------------------------------------------


class TestTransposedConv2d:
    def test_single_pixel_scatter(self):
        v, wv = 3.0, 0.5
        x = Tensor(np.full((1, 1, 1, 1), v))
        w = Tensor(np.full((1, 1, 2, 2), wv))
        out = ops.transposed_conv2d(x, w, Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, np.full((1, 1, 2, 2), v * wv))

    def test_zero_input_gives_bias(self):
        x = Tensor(np.zeros((1, 2, 3, 3)))
        w = Tensor(np.ones((2, 4, 2, 2)))
        b = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        out = ops.transposed_conv2d(x, w, b)
        np.testing.assert_allclose(out.data, np.broadcast_to(b.data.reshape(1, 4, 1, 1), (1, 4, 6, 6)))

    def test_doubles_spatial_dims(self):
        out = ops.transposed_conv2d(
            Tensor(np.zeros((2, 3, 8, 8))), Tensor(np.zeros((3, 5, 2, 2))), Tensor(np.zeros(5))
        )
        assert out.shape == (2, 5, 16, 16)

    def test_matches_scatter_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(3, 2, 2, 2))
        b = rng.normal(size=2)
        got = ops.transposed_conv2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(got.data, transposed_conv2d_oracle(x, w, b), rtol=1e-5, atol=1e-5)

    def test_gradients_match_finite_differences(self):
        rng = Rng(4)
        x = rand64(rng.child(0), (1, 2, 3, 3))
        w = rand64(rng.child(1), (2, 3, 2, 2))
        b = rand64(rng.child(2), (3,))

        def loss():
            return T.tsum(ops.sigmoid(ops.transposed_conv2d(x, w, b)))

        loss().backward()
        for p in (x, w, b):
            np.testing.assert_allclose(p.grad, numeric_gradient(loss, p), rtol=1e-4, atol=1e-7)


# -- max pooling -----------------------------------------------------------------


class TestMaxPool2d:
    def test_stride2_basic(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = ops.maxpool2d(x, stride=2)
        np.testing.assert_allclose(out.data, [[[[4.0]]]])

    def test_stride1_same_padding(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = ops.maxpool2d(x, stride=1)
        np.testing.assert_allclose(out.data, [[[[4.0, 4.0], [4.0, 4.0]]]])

    def test_constant_input_any_stride(self):
        for stride in (1, 2):
            x = Tensor(np.full((1, 2, 4, 4), -2.5))
            out = ops.maxpool2d(x, stride=stride)
            np.testing.assert_allclose(out.data, -2.5)

    def test_padding_never_wins_on_negative_inputs(self):
        x = Tensor(np.full((1, 1, 3, 3), -7.0))
        out = ops.maxpool2d(x, stride=1)
        np.testing.assert_allclose(out.data, -7.0)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_window_oracle(self, stride):
        rng = np.random.default_rng(100 + stride)
        x = rng.normal(size=(2, 3, 6, 6))
        got = ops.maxpool2d(Tensor(x), stride=stride)
        np.testing.assert_allclose(got.data, maxpool2d_oracle(x, stride), atol=1e-7)

    def test_odd_dims_with_stride2_raises(self):
        with pytest.raises(ShapeError):
            ops.maxpool2d(Tensor(np.zeros((1, 1, 5, 4))), stride=2)

    def test_gradient_routes_to_first_argmax_on_ties(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float64), requires_grad=True)
        T.tsum(ops.maxpool2d(x, stride=2)).backward()
        np.testing.assert_allclose(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_match_finite_differences(self, stride):
        # distinct values so finite differences don't straddle a tie
        rng = np.random.default_rng(17)
        data = rng.permutation(4 * 4 * 2).astype(np.float64).reshape(1, 2, 4, 4)
        x = Tensor(data, requires_grad=True)

        def loss():
            return T.tsum(ops.maxpool2d(x, stride=stride))

        loss().backward()
        np.testing.assert_allclose(x.grad, numeric_gradient(loss, x, h=1e-3), atol=1e-6)


# -- activations -----------------------------------------------------------------


class TestActivations:
    def test_values_at_zero(self):
        z = Tensor(np.zeros(4))
        assert float(ops.elu(z).data[0]) == 0.0
        assert float(ops.relu(z).data[0]) == 0.0
        np.testing.assert_allclose(ops.sigmoid(z).data, 0.5)

    def test_elu_closed_form(self):
        x = Tensor(np.array([-math.log(2.0)]))
        np.testing.assert_allclose(ops.elu(x).data, [-0.5], rtol=1e-6)

    def test_sigmoid_symmetry(self):
        a = np.linspace(-8, 8, 33)
        s = ops.sigmoid(Tensor(a)).data + ops.sigmoid(Tensor(-a)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ops.activation("tanh", Tensor(np.zeros(2)))

    def test_dispatcher_matches_direct_calls(self):
        x = Tensor(np.linspace(-2, 2, 9))
        for kind, fn in (("elu", ops.elu), ("relu", ops.relu), ("sigmoid", ops.sigmoid)):
            np.testing.assert_array_equal(ops.activation(kind, x).data, fn(x).data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_gradient_exact(self, dtype):
        x = np.array([-100.0, -20.0, -1.5, -1e-3, -0.0, 0.0, 1e-3, 2.0], dtype=dtype)
        g = np.array([0.7, -1.3, 2.0, -0.5, 3.0, -3.0, 1.1, -0.9], dtype=dtype)
        xt = Tensor(x, requires_grad=True)
        T.tsum(T.mul(ops.elu(xt), Tensor(g))).backward()
        # d elu / dx is exp(x) below zero (and at it), 1 above
        expected = np.where(x > 0, g, g * (np.expm1(x) + 1))
        assert xt.grad.dtype == dtype
        assert np.array_equal(xt.grad, expected)
        assert np.array_equal(xt.grad[4:6], g[4:6])  # exp(0) = 1
        assert xt.grad[0] == 0.0  # expm1(-100) rounds to -1 in both dtypes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values_bit_exact(self, dtype):
        info = np.finfo(dtype)
        mags = np.array([0.0, info.tiny, info.smallest_subnormal, 17.0, 40.0, 88.0], dtype=dtype)
        x = np.concatenate([mags, -mags])

        def bits(a):  # compares the sign of zero too, which == does not
            return a.view(np.dtype(f"u{a.itemsize}"))

        elu = ops.elu(Tensor(x)).data
        assert np.array_equal(bits(elu), bits(np.where(x > 0, x, np.expm1(np.minimum(x, 0)))))
        assert not np.signbit(elu[len(mags)])  # elu(-0.0) is +0.0
        two_branch = np.where(x >= 0, 1 / (1 + np.exp(-x)), np.exp(x) / (1 + np.exp(x)))
        assert np.array_equal(bits(ops.sigmoid(Tensor(x)).data), bits(two_branch))

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_sigmoid_gradient_exact(self, dtype, rtol):
        mags = np.array([0.0, 1e-3, 5.0, 9.0, 12.0, 16.0, 17.0, 20.0, 40.0, 80.0], dtype=dtype)
        x = np.concatenate([mags, -mags])
        xt = Tensor(x, requires_grad=True)
        T.tsum(ops.sigmoid(xt)).backward()
        # d sigmoid / dx = e / (1 + e)^2 with e = exp(-|x|), in float64; every
        # value down to |x| = 80 is a normal float32
        e = np.exp(-np.abs(x.astype(np.float64)))
        expected = e / (1 + e) ** 2
        assert xt.grad.dtype == dtype
        np.testing.assert_allclose(xt.grad, expected, rtol=rtol, atol=0)
        assert np.array_equal(xt.grad[: len(mags)], xt.grad[len(mags) :])  # symmetric

    @pytest.mark.parametrize("kind", ["elu", "relu", "sigmoid"])
    def test_gradients_match_finite_differences(self, kind):
        # offset away from relu/elu kink at 0
        rng = np.random.default_rng(23)
        data = rng.normal(size=(3, 3)).astype(np.float64)
        data[np.abs(data) < 0.05] = 0.5
        x = Tensor(data, requires_grad=True)

        def loss():
            return T.tsum(ops.activation(kind, x))

        loss().backward()
        np.testing.assert_allclose(x.grad, numeric_gradient(loss, x), rtol=1e-5, atol=1e-8)


# -- softmax ----------------------------------------------------------------------


class TestSoftmaxChannels:
    def test_uniform_logits(self):
        p = ops.softmax_channels(Tensor(np.zeros((1, 4, 2, 2))))
        np.testing.assert_allclose(p.data, 0.25)

    def test_closed_form_two_channels(self):
        x = np.zeros((1, 2, 1, 1))
        x[0, 1] = math.log(3.0)
        p = ops.softmax_channels(Tensor(x))
        np.testing.assert_allclose(p.data.reshape(2), [0.25, 0.75], rtol=1e-6)

    def test_channel_sums_to_one(self):
        rng = np.random.default_rng(5)
        p = ops.softmax_channels(Tensor(rng.normal(size=(2, 5, 4, 4)) * 10))
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 4, 4))
        p1 = ops.softmax_channels(Tensor(x)).data
        p2 = ops.softmax_channels(Tensor(x + 13.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-6)

    def test_needs_at_least_two_channels(self):
        with pytest.raises(ShapeError):
            ops.softmax_channels(Tensor(np.zeros((1, 1, 2, 2))))

    def test_gradients_match_finite_differences(self):
        rng = Rng(8)
        x = rand64(rng, (1, 3, 2, 2))
        mask = np.zeros((1, 3, 2, 2))
        mask[0, 1] = 1.0

        def loss():
            return T.tsum(T.mul(ops.softmax_channels(x), Tensor(mask.astype(np.float64))))

        loss().backward()
        np.testing.assert_allclose(x.grad, numeric_gradient(loss, x), rtol=1e-5, atol=1e-9)


# -- dropout ----------------------------------------------------------------------


class TestGaussianDropout:
    def test_sigma_formula(self):
        assert math.isclose(math.sqrt(0.5 / 0.5), 1.0)

    def test_infer_mode_is_identity_object(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        assert ops.gaussian_dropout(x, 0.5, "infer", Rng(0)) is x

    def test_d_zero_is_identity_in_train_mode(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        assert ops.gaussian_dropout(x, 0.0, "train", Rng(0)) is x

    def test_invalid_probability_rejected(self):
        x = Tensor(np.zeros(2))
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                ops.gaussian_dropout(x, bad, "train", Rng(0))

    def test_train_mode_requires_rng(self):
        with pytest.raises(ConfigError):
            ops.gaussian_dropout(Tensor(np.zeros(2)), 0.3, "train", None)

    def test_same_seed_reproduces(self):
        x = Tensor(np.ones((4, 4)))
        a = ops.gaussian_dropout(x, 0.3, "train", Rng(7)).data
        b = ops.gaussian_dropout(x, 0.3, "train", Rng(7)).data
        c = ops.gaussian_dropout(x, 0.3, "train", Rng(8)).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_monte_carlo_mean_matches_input(self):
        # mean of x*(1+sigma*z) is x; sample error < 3*sigma*|x|/sqrt(n)
        d, n = 0.3, 100_000
        x_val = 2.0
        x = Tensor(np.full((n,), x_val))
        out = ops.gaussian_dropout(x, d, "train", Rng(123)).data
        sigma = math.sqrt(d / (1 - d))
        tol = 3 * sigma * abs(x_val) / math.sqrt(n)
        assert abs(out.mean() - x_val) < tol

    def test_gradient_is_noise_factor(self):
        x = Tensor(np.ones((3, 3), dtype=np.float64), requires_grad=True)
        out = ops.gaussian_dropout(x, 0.4, "train", Rng(2))
        factor = out.data / x.data
        T.tsum(out).backward()
        np.testing.assert_allclose(x.grad, factor, rtol=1e-12)


# -- concat -----------------------------------------------------------------------


class TestConcatChannels:
    def test_shapes(self):
        a = Tensor(np.zeros((2, 64, 8, 8)))
        b = Tensor(np.zeros((2, 64, 8, 8)))
        assert ops.concat_channels(a, b).shape == (2, 128, 8, 8)

    def test_concat_then_slice_roundtrip(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(1, 3, 4, 4))
        b = rng.normal(size=(1, 2, 4, 4))
        out = ops.concat_channels(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out[:, :3], a, rtol=1e-6)
        np.testing.assert_allclose(out[:, 3:], b, rtol=1e-6)

    def test_spatial_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.concat_channels(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 5, 4))))

    def test_gradient_splits_to_ones(self):
        a = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float64), requires_grad=True)
        b = Tensor(np.zeros((1, 4, 3, 3), dtype=np.float64), requires_grad=True)

        def loss():
            return T.tsum(ops.concat_channels(a, b))

        loss().backward()
        np.testing.assert_allclose(a.grad, numeric_gradient(loss, a, h=1e-4), atol=1e-9)
        np.testing.assert_allclose(b.grad, numeric_gradient(loss, b, h=1e-4), atol=1e-9)
        np.testing.assert_array_equal(a.grad, np.ones_like(a.data))


# -- released parents ----------------------------------------------------------------


def _positive(shape, seed):
    return np.abs(Rng(seed).normal(shape)) + 0.5


def _dropped(x, seed):
    return ops.gaussian_dropout(x, 0.3, "train", Rng(seed))


# every op in ops and tensor as (fn, input arrays); each input is a parent.
# The NaN placeholder of a released parent shows up only in arithmetic: a
# backward that compared released data (a mask from ``x.data > 0``) would
# give finite, wrong gradients, so this test is the guard, and every new op
# needs a case here (test_release_cases_cover_every_op).  The "-of-" cases
# feed a conv the output of a dropout, or a concat of two, which the test
# releases too: the conv's backward reads it rebuilt from its recompute.
_NCHW = (2, 3, 6, 5)
_RELEASE_CASES = [
    pytest.param(T.add, [Rng(1).normal(_NCHW), Rng(2).normal(_NCHW)], id="add"),
    pytest.param(T.mul, [Rng(1).normal(_NCHW), Rng(2).normal(_NCHW)], id="mul"),
    pytest.param(T.div, [Rng(1).normal(_NCHW), _positive(_NCHW, 2)], id="div"),
    pytest.param(T.log, [_positive(_NCHW, 1)], id="log"),
    pytest.param(lambda x: T.clip(x, -0.5, 0.5), [Rng(1).normal(_NCHW)], id="clip"),
    pytest.param(T.tsum, [Rng(1).normal(_NCHW)], id="tsum"),
    *[
        pytest.param(
            lambda x, w, b, s=stride: ops.conv2d(x, w, b, stride=s),
            [Rng(1).normal((2, 3, 7, 6)), Rng(2).normal((4, 3, kernel, kernel)), Rng(3).normal((4,))],
            id=f"conv2d-k{kernel}-s{stride}",
        )
        for kernel in (1, 2, 3)
        for stride in (1, 2)
    ],
    pytest.param(
        ops.transposed_conv2d,
        [Rng(1).normal(_NCHW), Rng(2).normal((3, 4, 2, 2)), Rng(3).normal((4,))],
        id="transposed_conv2d",
    ),
    pytest.param(lambda x: ops.maxpool2d(x, stride=1), [Rng(1).normal(_NCHW)], id="maxpool2d-s1"),
    pytest.param(lambda x: ops.maxpool2d(x, stride=2), [Rng(1).normal((2, 3, 6, 4))], id="maxpool2d-s2"),
    pytest.param(ops.relu, [Rng(1).normal(_NCHW)], id="relu"),
    pytest.param(ops.elu, [Rng(1).normal(_NCHW)], id="elu"),
    pytest.param(ops.sigmoid, [Rng(1).normal(_NCHW)], id="sigmoid"),
    pytest.param(ops.softmax_channels, [Rng(1).normal(_NCHW)], id="softmax_channels"),
    pytest.param(lambda x: ops.gaussian_dropout(x, 0.3, "train", Rng(4)), [Rng(1).normal(_NCHW)], id="gaussian_dropout"),
    pytest.param(ops.sum_per_channel, [Rng(1).normal(_NCHW)], id="sum_per_channel"),
    pytest.param(ops.concat_channels, [Rng(1).normal(_NCHW), Rng(2).normal((2, 2, 6, 5))], id="concat_channels"),
    *[
        pytest.param(
            lambda x, w, b, s=stride: ops.conv2d(_dropped(x, 4), w, b, stride=s),
            [Rng(1).normal((2, 3, 7, 6)), Rng(2).normal((4, 3, kernel, kernel)), Rng(3).normal((4,))],
            id=f"conv2d-k{kernel}-s{stride}-of-dropout",
        )
        for kernel, stride in ((1, 1), (3, 1), (3, 2))
    ],
    pytest.param(
        lambda a, b, w, bias: ops.conv2d(ops.concat_channels(_dropped(a, 4), _dropped(b, 6)), w, bias),
        [Rng(1).normal(_NCHW), Rng(2).normal((2, 2, 6, 5)), Rng(3).normal((4, 5, 3, 3)), Rng(7).normal((4,))],
        id="conv2d-k3-s1-of-concat-of-dropouts",
    ),
    # routed to ops._winograd3x3: its dX flips the weight array bound at the forward
    pytest.param(
        ops.conv2d,
        [Rng(1).normal((1, _WC, _WS, _WS + 1)), Rng(2).normal((2, _WC, 3, 3)), Rng(3).normal((2,))],
        id="conv2d-k3-s1-winograd",
    ),
    pytest.param(
        lambda x, w, b: ops.conv2d(_dropped(x, 4), w, b),
        [Rng(1).normal((1, _WC, _WS, _WS + 1)), Rng(2).normal((2, _WC, 3, 3)), Rng(3).normal((2,))],
        id="conv2d-k3-s1-winograd-of-dropout",
    ),
    pytest.param(
        lambda a, b, w, bias: ops.conv2d(ops.concat_channels(_dropped(a, 4), _dropped(b, 6)), w, bias),
        [
            Rng(1).normal((1, _WC // 2, _WS, _WS)),
            Rng(2).normal((1, _WC - _WC // 2, _WS, _WS)),
            Rng(3).normal((2, _WC, 3, 3)),
            Rng(7).normal((2,)),
        ],
        id="conv2d-k3-s1-winograd-of-concat-of-dropouts",
    ),
    pytest.param(
        lambda x, w, b: ops.transposed_conv2d(_dropped(x, 4), w, b),
        [Rng(1).normal(_NCHW), Rng(2).normal((3, 4, 2, 2)), Rng(3).normal((4,))],
        id="transposed_conv2d-of-dropout",
    ),
]


@pytest.mark.parametrize("op, arrays", _RELEASE_CASES)
def test_backward_reads_no_released_parent(op, arrays, monkeypatch):
    """Each backward binds the arrays it reads when the op runs, or their
    recompute, so releasing every tensor but the output after the forward
    gives the gradients of a run that releases nothing and recomputes nothing."""

    def gradients(release: bool) -> list:
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*leaves)
        if release:
            for node in out.graph_nodes():
                if node is not out:
                    node.release()
        upstream = Rng(5).normal(out.shape, dtype=out.dtype)
        T.tsum(T.mul(out, Tensor(upstream))).backward()
        return [p.grad for p in leaves]

    released = gradients(release=True)
    make_op = T.make_op

    def make_op_keeping_data(data, parents, backward_fn, where, recompute=None):
        return make_op(data, parents, backward_fn, where)

    monkeypatch.setattr(T, "make_op", make_op_keeping_data)
    monkeypatch.setattr(ops, "make_op", make_op_keeping_data)
    for got, want in zip(released, gradients(release=False), strict=True):
        assert np.array_equal(got, want)


def test_release_cases_cover_every_op():
    """Every function in ops and tensor that builds a tape node has a case above."""
    covered = {case.id.split("-")[0] for case in _RELEASE_CASES}
    building = set()
    for module in (ops, T):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name != "make_op":
                if "make_op(" in inspect.getsource(fn):
                    building.add(name)
    assert building == covered


def test_released_data_is_a_read_only_nan_placeholder():
    x = Tensor(np.ones((2, 3), dtype=np.float64))
    x.release()
    assert x.shape == (2, 3) and x.dtype == np.float64
    assert np.isnan(x.data).all() and not x.data.flags.writeable and x.data.strides == (0, 0)
