"""Layer-level differentiable operations.

Spatial semantics: convolutions use "same" zero padding, so a stride-s
convolution maps an (H, W) input to (ceil(H/s), ceil(W/s)).  Padding is
split with the extra row/column at the bottom/right.  Max pooling pads
with -inf instead, so out-of-bounds positions never win a window.

Convolution is evaluated by im2col expansion followed by a matrix
product, one sample at a time, and no column buffer outlives the GEMM
that reads it.  The forward pass builds the columns for a block of whole
output rows covering at least ``_BLOCK_PIXELS`` output pixels, in one
workspace (and one zero-bordered band of padded input rows) reused across
blocks and samples.  The backward closure keeps the weight array and
``saved(x)``, which rebuilds a dropout or concat input just before the
dW read and hands any other input back as is.  It rebuilds each
sample's columns one block of input channels at a time, each block
capped at ``_BLOCK_VALUES`` column values: the block's dW columns are
g[k] @ cols_blk(k).T, summed over samples, while the same buffer then
takes the block's dcols = W_blk.T @ g[k] for its dX scatter.  The 1x1
stride-1 case needs no columns: dW sums g[k] @ x[k].T and
dX[k] = W.T @ g[k] is written straight into dX.  Every output element is
the same dot product, summed in the same order, as a whole-batch im2col
computes, so on one BLAS build the results match it bit for bit.

The one exception is a stride-1 3x3 convolution whose input has at least
``_WINOGRAD_MIN_CHANNELS`` channels and at least ``_WINOGRAD_MIN_SIZE``
pixels along each side: ``_winograd3x3`` (Winograd F(2x2, 3x3)) computes
its output, and its dX as the same correlation of the upstream gradient
with the flipped, transposed kernel (the exact adjoint, as the padding is
1/1 at stride 1), with 2.25x fewer multiplies.  It blocks whole rows of
2x2 output tiles by the forward's ``_BLOCK_PIXELS`` rule and runs each of
its three transforms as one matrix product over the block.  The backward
flips the weight array the forward bound.  Its dW and db stay on the
column path, so they still match whole-batch im2col bit for bit, while its
output and dX differ from it at the rounding level (float32: about 1e-6
relative).

Every backward closure binds the arrays it reads, or their recompute,
when its op runs, so a parent's ``data`` may be released after the
forward (``Tensor.release``).  Dropout and concat register a recompute
of their output (``make_op(recompute=...)``), the same multiply or copy
of the same arrays.  A new op needs a case in ``tests/test_ops.py``'s
``_RELEASE_CASES``: a backward that compared released data would not
fail any finiteness check.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .rng import Rng
from .tensor import Tensor, make_op, saved

_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major window order
# conv2d forward builds its columns (and _winograd3x3 its tiles) for blocks
# of whole output rows (tile rows) that cover at least this many output
# pixels, so each GEMM stays wide enough for BLAS while the workspace stays
# small
_BLOCK_PIXELS = 512
# conv2d backward builds one sample's columns a block of input channels at
# a time, each block holding at most this many column values
_BLOCK_VALUES = 1 << 23
# conv2d hands a stride-1 3x3 convolution to _winograd3x3 when its input
# has at least this many channels and this many pixels along each side
# (the per-shape timings in CHANGES.md set both)
_WINOGRAD_MIN_CHANNELS = 256
_WINOGRAD_MIN_SIZE = 64
# Winograd F(2x2, 3x3): U = G g G^T, V = B^T d B and the output tile A^T M A
_WINOGRAD_G = np.array([[1, 0, 0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0, 0, 1]])
_WINOGRAD_BT = np.array([[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]])
_WINOGRAD_AT = np.array([[1, 1, 1, 0], [0, 1, -1, -1]])


def _same_padding(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    lead = total // 2
    return out, lead, total - lead


def _im2col(
    cols: np.ndarray, band: np.ndarray, sample: np.ndarray, row0: int, stride: int, top: int, left: int
) -> np.ndarray:
    """Columns of one (C,H,W) sample for output rows row0 .. row0+R-1.

    ``cols`` is the (C,kh,kw,R,Wo) workspace.  ``band`` holds the padded
    input rows those outputs read, at least stride*(R-1)+kh of them; its
    side columns are zero on entry and stay so.  ``top``/``left`` are the
    leading pads.  Returns ``cols`` as a (C*kh*kw, R*Wo) matrix.
    """
    c, kh, kw, rows, wo = cols.shape
    h, w = sample.shape[1:]
    first = stride * row0 - top  # the input row held by band row 0
    lo, hi = max(first, 0), min(first + stride * (rows - 1) + kh, h)
    band[:, : lo - first] = 0
    band[:, lo - first : hi - first, left : left + w] = sample[:, lo:hi]
    band[:, hi - first :] = 0
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = band[:, i : i + stride * rows : stride, j : j + stride * wo : stride]
    return cols.reshape(c * kh * kw, rows * wo)


def _winograd3x3(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Write the same-padded stride-1 correlation of (N,C,H,W) ``x`` with
    (F,C,3,3) ``w`` into (N,F,H,W) ``out``, by Winograd F(2x2, 3x3)
    (Lavin & Gray 2016, arXiv 1509.09308).

    Each 2x2 output tile is A^T [U * (B^T d B)] A for the 4x4 padded input
    tile d around it, with U = G g G^T per (filter, channel) pair: 16
    multiplies per tile and pair where im2col takes 36.  On row-major
    flattened tiles each transform is one matrix product: kron(B^T, B^T)
    maps d to V, and kron(A^T, A^T) maps M to the output tile.  A block of
    whole tile rows covering at least ``_BLOCK_PIXELS`` output pixels
    gathers its tiles from a zero-bordered band of padded input rows; its
    V goes through one (16,16) GEMM, its M = U V through one batched
    (16,F,C) @ (16,C,tiles) product and its output through one (4,16) GEMM.
    """
    n, c, h, wd = x.shape
    f = w.shape[0]
    th, tw = -(-h // 2), -(-wd // 2)  # tile rows and tile columns
    # kron(G, G) maps the row-major 3x3 kernel to the row-major 4x4 G g G^T
    u = (np.kron(_WINOGRAD_G, _WINOGRAD_G).astype(w.dtype) @ w.reshape(f * c, 9).T).reshape(16, f, c)
    bt = np.kron(_WINOGRAD_BT, _WINOGRAD_BT).astype(x.dtype)
    at = np.kron(_WINOGRAD_AT, _WINOGRAD_AT).astype(x.dtype)
    rows = min(th, -(-_BLOCK_PIXELS // (2 * wd)))
    # input column j sits at band column j + 1; the side columns stay zero
    band = np.zeros((c, 2 * rows + 2, 2 * tw + 2), dtype=x.dtype)
    dm_buf = np.empty(16 * max(c, f) * rows * tw, dtype=x.dtype)  # d, then M
    v_buf = np.empty(16 * c * rows * tw, dtype=x.dtype)
    y_buf = np.empty(4 * f * rows * tw, dtype=x.dtype)
    for k in range(n):
        for t0 in range(0, th, rows):
            r = min(rows, th - t0)
            tiles = r * tw
            first = 2 * t0 - 1  # the input row held by band row 0
            lo, hi = max(first, 0), min(first + 2 * r + 2, h)
            band[:, : lo - first] = 0
            band[:, lo - first : hi - first, 1 : 1 + wd] = x[k, :, lo:hi]
            band[:, hi - first :] = 0
            d = dm_buf[: 16 * c * tiles].reshape(4, 4, c, r, tw)
            for i in range(4):
                for j in range(4):
                    d[i, j] = band[:, i : i + 2 * r : 2, j : j + 2 * tw : 2]
            v = np.matmul(bt, d.reshape(16, c * tiles), out=v_buf[: 16 * c * tiles].reshape(16, c * tiles))
            m = np.matmul(u, v.reshape(16, c, tiles), out=dm_buf[: 16 * f * tiles].reshape(16, f, tiles))
            y = np.matmul(at, m.reshape(16, f * tiles), out=y_buf[: 4 * f * tiles].reshape(4, f * tiles))
            y = y.reshape(2, 2, f, r, tw)
            for a in range(2):  # output row 2t + a, column 2s + b of tile (t, s), cropped at the edges
                for b in range(2):
                    dst = out[k, :, 2 * t0 + a : 2 * (t0 + r) : 2, b::2]
                    dst[...] = y[a, b, :, : dst.shape[1], : dst.shape[2]]


def _add_term(dst: np.ndarray, term: np.ndarray, k: int) -> None:
    """Sum dW's per-sample terms in sample order: the first is copied in."""
    if k == 0:
        dst[...] = term
    else:
        dst += term


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Same-padded 2-D convolution of (N,C,H,W) with (F,C,kh,kw) weights."""
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape} / {weight.shape}")
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ShapeError(f"conv2d: input has {c} channels but weight expects {cw}")
    if bias.shape != (f,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} does not match {f} filters")
    if kh != kw or kh not in (1, 2, 3):
        raise ShapeError(f"conv2d: unsupported kernel {kh}x{kw}")
    if stride < 1:
        raise ShapeError("conv2d: stride must be >= 1")

    ho, pt, pb = _same_padding(h, kh, stride)
    wo, pl, pr = _same_padding(w, kw, stride)
    k_dim = c * kh * kw
    xd, wd = x.data, weight.data
    w_mat = wd.reshape(f, k_dim)
    out = np.empty((n, f, ho, wo), dtype=x.dtype)
    winograd = kh == 3 and stride == 1 and c >= _WINOGRAD_MIN_CHANNELS and min(h, w) >= _WINOGRAD_MIN_SIZE
    if winograd:
        _winograd3x3(xd, wd, out)
    else:
        out_mat = out.reshape(n, f, ho * wo)
        rows = min(ho, -(-_BLOCK_PIXELS // wo))
        band = np.zeros((c, stride * (rows - 1) + kh, w + pl + pr), dtype=x.dtype)
        workspace = np.empty(k_dim * rows * wo, dtype=x.dtype)
        for k in range(n):
            for r0 in range(0, ho, rows):
                r1 = min(r0 + rows, ho)
                cols = workspace[: k_dim * (r1 - r0) * wo].reshape(c, kh, kw, r1 - r0, wo)
                cols = _im2col(cols, band, xd[k], r0, stride, pt, pl)
                np.matmul(w_mat, cols, out=out_mat[k, :, r0 * wo : r1 * wo])
    out += bias.data.reshape(1, f, 1, 1)
    read_x = saved(x)

    def backward(grad: np.ndarray) -> None:
        g_mat = grad.reshape(n, f, ho * wo)
        if bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if not (weight.requires_grad or x.requires_grad):
            return
        # rebuilt before the gradients are allocated, so its transients do not stack on them
        x_in = read_x() if weight.requires_grad else None
        dx = np.empty(x.shape, dtype=x.dtype) if x.requires_grad else None
        dw = np.empty(weight.shape, dtype=x.dtype) if weight.requires_grad else None
        dw_mat = None if dw is None else dw.reshape(f, k_dim)
        if winograd and dx is not None:
            # stride 1 with padding 1/1: the adjoint correlates grad with the flipped, transposed kernel
            _winograd3x3(grad, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), dx)
        dx_cols = None if winograd else dx  # the dX the column loop scatters
        if kh == 1 and stride == 1:  # the input is its own column matrix: no workspace, no scatter
            for k in range(n):
                if dw is not None:
                    _add_term(dw_mat, g_mat[k] @ x_in[k].reshape(c, h * w).T, k)
                if dx is not None:
                    np.matmul(w_mat.T, g_mat[k], out=dx[k].reshape(c, h * w))
        elif dw is not None or dx_cols is not None:
            step = max(1, min(c, _BLOCK_VALUES // (kh * kw * ho * wo)))
            padded = (step, h + pt + pb, w + pl + pr)
            # one block's columns for dW, then the same buffer holds its dcols
            workspace = np.empty(step * kh * kw * ho * wo, dtype=x.dtype)
            band = np.zeros(padded, dtype=x.dtype) if dw is not None else None
            dxp = np.empty(padded, dtype=x.dtype) if dx_cols is not None else None
            for k in range(n):
                for c0 in range(0, c, step):
                    c1 = min(c0 + step, c)
                    r0, r1 = c0 * kh * kw, c1 * kh * kw
                    cols = workspace[: (r1 - r0) * ho * wo].reshape(c1 - c0, kh, kw, ho, wo)
                    if dw is not None:
                        cols_k = _im2col(cols, band[: c1 - c0], x_in[k, c0:c1], 0, stride, pt, pl)
                        _add_term(dw_mat[:, r0:r1], g_mat[k] @ cols_k.T, k)
                    if dx_cols is not None:
                        dcols = np.matmul(w_mat[:, r0:r1].T, g_mat[k], out=cols.reshape(r1 - r0, ho * wo))
                        dcols = dcols.reshape(c1 - c0, kh, kw, ho, wo)
                        dxp_blk = dxp[: c1 - c0]
                        dxp_blk.fill(0)
                        for i in range(kh):
                            for j in range(kw):
                                dxp_blk[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, i, j]
                        dx_cols[k, c0:c1] = dxp_blk[:, pt : pt + h, pl : pl + w]
        if dw is not None:
            weight.accumulate_grad(dw)
        if dx is not None:
            x.accumulate_grad(dx)

    return make_op(out, (x, weight, bias), backward, "conv2d")


def transposed_conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Learned 2x upsampling: stride-2 2x2 transposed convolution.

    Weight layout is (C_in, F, 2, 2); output spatial dims are exactly
    doubled.  The operation is the adjoint of a stride-2 2x2 convolution.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError("transposed_conv2d expects 4-D input/weight")
    n, c, h, w = x.shape
    cw, f, kh, kw = weight.shape
    if (kh, kw) != (2, 2):
        raise ShapeError(f"transposed_conv2d: kernel must be 2x2, got {kh}x{kw}")
    if cw != c:
        raise ShapeError(f"transposed_conv2d: input has {c} channels but weight expects {cw}")
    if bias.shape != (f,):
        raise ShapeError(f"transposed_conv2d: bias shape {bias.shape} does not match {f} filters")

    # stride == kernel, so scattered patches never overlap
    wd = weight.data
    out6 = np.einsum("nchw,cfij->nfhiwj", x.data, wd, optimize=True)
    out = out6.reshape(n, f, 2 * h, 2 * w) + bias.data.reshape(1, f, 1, 1)
    read_x = saved(x)

    def backward(grad: np.ndarray) -> None:
        g6 = grad.reshape(n, f, h, 2, w, 2)
        if bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            weight.accumulate_grad(np.einsum("nfhiwj,nchw->cfij", g6, read_x(), optimize=True))
        if x.requires_grad:
            x.accumulate_grad(np.einsum("nfhiwj,cfij->nchw", g6, wd, optimize=True))

    return make_op(out, (x, weight, bias), backward, "transposed_conv2d")


def maxpool2d(x: Tensor, stride: int = 2) -> Tensor:
    """2x2 max pooling; stride 1 keeps spatial dims (windows ignore padding).

    Gradient routes to the window maximum, first occurrence in row-major
    window order on ties.
    """
    if stride not in (1, 2):
        raise ShapeError("maxpool2d: stride must be 1 or 2")
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if stride == 2:
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool2d: stride-2 pooling needs even dims, got {h}x{w}")
        ho, wo = h // 2, w // 2
        xp = x.data
    else:
        ho, wo = h, w
        xp = np.full((n, c, h + 1, w + 1), -np.inf, x.data.dtype)
        xp[:, :, :h, :w] = x.data

    windows = np.stack(
        [xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] for i, j in _POOL_OFFSETS]
    )
    winner = windows.argmax(axis=0).astype(np.uint8)  # first max in window order
    out = np.take_along_axis(windows, winner[None], axis=0)[0]
    padded_hw = xp.shape[2:]  # the closure keeps the shape, not the padded copy

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dxp = np.zeros((n, c) + padded_hw, dtype=grad.dtype)
        for k, (i, j) in enumerate(_POOL_OFFSETS):
            dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += grad * (
                winner == k
            )
        x.accumulate_grad(dxp if stride == 2 else dxp[:, :, :h, :w])  # stride 2 pads nothing

    return make_op(out, (x,), backward, "maxpool2d")


def relu(x: Tensor) -> Tensor:
    xd = x.data
    out = np.maximum(xd, 0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * (xd > 0))

    return make_op(out, (x,), backward, "relu")


def elu(x: Tensor) -> Tensor:
    """Exponential linear unit with alpha = 1: x for x > 0, exp(x) - 1 below."""
    out = np.minimum(x.data, 0)
    np.expm1(out, out=out)
    np.maximum(x.data, out, out=out)  # x above zero, where out is 0; expm1(x) >= x below

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # the derivative is exp(x) = out + 1 below zero and 1 above
            scale = out + 1
            np.minimum(scale, 1, out=scale)
            scale *= grad
            x.accumulate_grad(scale)

    return make_op(out, (x,), backward, "elu")


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid 1 / (1 + exp(-x)), from e = exp(-|x|) so no exp overflows.

    The backward takes the derivative from the same e, not from out * (1 - out):
    1 - out rounds the positive tail away, to exactly 0 for x >= 17 in float32.
    """
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # sigmoid'(x) = sigmoid'(-x) = e / (1 + e)^2
            x.accumulate_grad(grad * (e / ((1 + e) * (1 + e))))

    return make_op(out, (x,), backward, "sigmoid")


_ACTIVATIONS = {"relu": relu, "elu": elu, "sigmoid": sigmoid}


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ConfigError(f"unknown activation {kind!r}; expected one of {sorted(_ACTIVATIONS)}")


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax across the channel axis of (N,L,H,W), max-shifted."""
    if x.data.ndim != 4 or x.shape[1] < 2:
        raise ShapeError(f"softmax_channels expects (N,L>=2,H,W), got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = (grad * p).sum(axis=1, keepdims=True)
            x.accumulate_grad(p * (grad - inner))

    return make_op(p, (x,), backward, "softmax_channels")


def gaussian_dropout(x: Tensor, d: float, mode: str, rng: Optional[Rng] = None) -> Tensor:
    """Multiplicative Gaussian noise x * (1 + sigma * z), sigma = sqrt(d/(1-d)).

    The noise has unit mean, so inference is the identity (bit-exact: the
    input tensor is returned unchanged).
    """
    if not 0.0 <= d < 1.0:
        raise ConfigError(f"drop probability must be in [0, 1), got {d}")
    if mode not in ("train", "infer"):
        raise ConfigError(f"dropout mode must be 'train' or 'infer', got {mode!r}")
    if mode == "infer" or d == 0.0:
        return x
    if rng is None:
        raise ConfigError("train-mode gaussian_dropout requires an Rng")
    sigma = float(np.sqrt(d / (1.0 - d)))
    factor = rng.normal(x.shape, dtype=x.dtype)
    factor *= sigma
    factor += 1.0

    xd = x.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * factor)

    return make_op(xd * factor, (x,), backward, "gaussian_dropout", recompute=lambda: xd * factor)


def sum_per_channel(x: Tensor) -> Tensor:
    """Reduce (N,L,H,W) over batch and space, keeping the channel axis: (L,)."""
    if x.data.ndim != 4:
        raise ShapeError(f"sum_per_channel expects 4-D input, got {x.shape}")
    out = x.data.sum(axis=(0, 2, 3))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(grad.reshape(1, -1, 1, 1), x.shape).astype(x.dtype))

    return make_op(out, (x,), backward, "sum_per_channel")


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Channel-axis concatenation of two (N,C,H,W) tensors, `a` first."""
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise ShapeError("concat_channels expects 4-D inputs")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels: incompatible shapes {a.shape} and {b.shape}")
    c_a = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    read_a, read_b = saved(a), saved(b)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(grad[:, :c_a])
        if b.requires_grad:
            b.accumulate_grad(grad[:, c_a:])

    return make_op(
        out, (a, b), backward, "concat_channels", recompute=lambda: np.concatenate([read_a(), read_b()], axis=1)
    )
