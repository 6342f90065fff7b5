"""Grayscale PGM and PNG codecs.

Self-contained readers/writers so that emitted files are byte-stable:
PGM is written as binary P5, PNG with filter 0 scanlines and a fixed
zlib level.  The PNG reader handles non-interlaced 8/16-bit grayscale
(color type 0) and 8-bit RGB (color type 2) with all five scanline
filters, which covers every file this library emits or ingests.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


# -- PGM ------------------------------------------------------------------------


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    """Write a 2-D array as binary PGM (P5); 16-bit when maxval > 255."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise DataError(f"PGM writer expects a 2-D array, got shape {arr.shape}")
    if not 0 < maxval < 65536:
        raise DataError(f"PGM maxval must be in [1, 65535], got {maxval}")
    dtype = ">u2" if maxval > 255 else "u1"
    data = np.clip(np.rint(arr), 0, maxval).astype(dtype)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(data.tobytes())


def _read_pgm_tokens(path, blob: bytes, count: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(blob):
            raise DataError(f"{path}: truncated PGM header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            pos = blob.find(b"\n", pos) + 1
            if pos == 0:
                raise DataError(f"{path}: PGM header comment has no closing newline")
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(blob) and not blob[end : end + 1].isspace():
                end += 1
            if not blob[pos:end].isdigit():
                raise DataError(f"{path}: non-numeric PGM header token {blob[pos:end][:16]!r}")
            tokens.append(int(blob[pos:end]))
            pos = end
    return tokens, pos + 1  # single whitespace after maxval


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read P5 or P2; returns (2-D uint array, maxval)."""
    blob = Path(path).read_bytes()
    magic = blob[:2]
    if magic not in (b"P5", b"P2"):
        raise DataError(f"{path}: not a PGM file (magic {magic!r})")
    (width, height, maxval), offset = _read_pgm_tokens(path, blob[2:], 3)
    if not 0 < maxval < 65536:
        raise DataError(f"{path}: PGM maxval must be in [1, 65535], got {maxval}")
    if width == 0 or height == 0:
        raise DataError(f"{path}: PGM size must be positive, got {width}x{height}")
    offset += 2
    if magic == b"P2":
        samples = blob[offset - 1 :].split()
        values = [int(s) for s in samples if s.isdigit()]
        if len(values) != len(samples) or any(v > maxval for v in values):
            raise DataError(f"{path}: P2 samples must be integers in [0, {maxval}]")
        if len(values) != width * height:
            raise DataError(f"{path}: expected {width * height} samples, got {len(values)}")
        return np.array(values, dtype=np.uint16).reshape(height, width), maxval
    dtype = ">u2" if maxval > 255 else "u1"
    itemsize = 2 if maxval > 255 else 1
    raw = blob[offset : offset + width * height * itemsize]
    if len(raw) != width * height * itemsize:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=dtype).reshape(height, width).astype(np.uint16), maxval


# -- PNG ------------------------------------------------------------------------


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path, image: np.ndarray) -> None:
    """Write uint8 grayscale (H,W), uint16 grayscale, or uint8 RGB (H,W,3)."""
    arr = np.asarray(image)
    if arr.ndim == 2:
        color_type = 0
        channels = 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type = 2
        channels = 3
    else:
        raise DataError(f"PNG writer expects (H,W) or (H,W,3), got shape {arr.shape}")
    if arr.dtype == np.uint16:
        if color_type != 0:
            raise DataError("16-bit PNG supported for grayscale only")
        depth = 16
        payload = arr.astype(">u2").tobytes()
        row_bytes = arr.shape[1] * 2
    else:
        depth = 8
        payload = arr.astype(np.uint8).tobytes()
        row_bytes = arr.shape[1] * channels
    height, width = arr.shape[:2]
    raw = bytearray()
    for y in range(height):
        raw.append(0)  # filter 0
        raw += payload[y * row_bytes : (y + 1) * row_bytes]
    ihdr = struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(_PNG_SIGNATURE)
        fh.write(_chunk(b"IHDR", ihdr))
        fh.write(_chunk(b"IDAT", zlib.compress(bytes(raw), 6)))
        fh.write(_chunk(b"IEND", b""))


def _unfilter(raw: bytes, height: int, width: int, bpp: int) -> np.ndarray:
    """Undo the per-scanline filters; every sum wraps mod 256 as in uint8."""
    stride = width * bpp
    rows = np.frombuffer(raw, np.uint8).reshape(height, 1 + stride)
    out = np.zeros((height + 1, stride), dtype=np.uint8)  # row 0 is the zero row above the image
    for y, ftype in enumerate(rows[:, 0].tolist(), start=1):
        line, up = rows[y - 1, 1:], out[y - 1]
        if ftype == 0:
            out[y] = line
        elif ftype == 1:  # Sub: a running sum along each byte lane
            out[y] = line.reshape(-1, bpp).cumsum(axis=0, dtype=np.uint8).reshape(-1)
        elif ftype == 2:  # Up
            out[y] = line + up
        elif ftype in (3, 4):  # Average and Paeth need the decoded left byte
            prior, cur = [0] * bpp + up.tolist(), [0] * bpp
            for i, x in enumerate(line.tolist()):
                a, b, c = cur[i], prior[i + bpp], prior[i]
                if ftype == 3:
                    pred = (a + b) >> 1
                else:  # distances of a + b - c to a, b and c
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                cur.append((x + pred) & 0xFF)
            out[y] = cur[bpp:]
        else:
            raise DataError(f"unsupported PNG filter type {ftype}")
    return out[1:]


def read_png(path) -> tuple[np.ndarray, int]:
    """Read a PNG; returns (array, maxval). Grayscale gives (H,W), RGB (H,W,3)."""
    blob = Path(path).read_bytes()
    if blob[:8] != _PNG_SIGNATURE:
        raise DataError(f"{path}: not a PNG file")
    pos = 8
    idat = bytearray()
    header = None
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise DataError(f"{path}: truncated PNG chunk header")
        length, tag = struct.unpack(">I4s", blob[pos : pos + 8])
        payload = blob[pos + 8 : pos + 8 + length]
        if len(payload) != length:
            raise DataError(f"{path}: truncated PNG {tag!r} chunk")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: PNG IHDR chunk has {length} bytes, expected 13")
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if header is None:
        raise DataError(f"{path}: missing IHDR")
    width, height, depth, color_type, _, _, interlace = header
    if width == 0 or height == 0:
        raise DataError(f"{path}: PNG size must be positive, got {width}x{height}")
    if interlace:
        raise DataError(f"{path}: interlaced PNG not supported")
    if (color_type, depth) not in ((0, 8), (0, 16), (2, 8)):
        raise DataError(
            f"{path}: unsupported PNG (color type {color_type}, bit depth {depth}); "
            "expected 8/16-bit grayscale or 8-bit RGB"
        )
    channels = 3 if color_type == 2 else 1
    bpp = channels * (depth // 8)
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise DataError(f"{path}: corrupt PNG image data ({exc})")
    if len(raw) != height * (1 + width * bpp):
        raise DataError(f"{path}: PNG image data has {len(raw)} bytes, expected {height * (1 + width * bpp)}")
    rows = _unfilter(raw, height, width, bpp)
    if depth == 16:
        arr = rows.reshape(height, width, 2)
        arr = (arr[:, :, 0].astype(np.uint16) << 8) | arr[:, :, 1]
        return arr, 65535
    if channels == 3:
        return rows.reshape(height, width, 3), 255
    return rows.reshape(height, width), 255


def read_gray(path) -> tuple[np.ndarray, int]:
    """Read a grayscale PGM or PNG by extension; returns (2-D array, maxval)."""
    name = str(path).lower()
    if name.endswith(".pgm"):
        return read_pgm(path)
    if name.endswith(".png"):
        arr, maxval = read_png(path)
        if arr.ndim != 2:
            raise DataError(f"{path}: expected grayscale, got RGB")
        return arr, maxval
    raise DataError(f"{path}: unsupported image extension (use .pgm or .png)")
