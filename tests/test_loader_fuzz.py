"""Seeded fuzz of the file loaders (PGM, PNG, records CSV, checkpoint):
every corrupted file either loads or raises ``DataError``, never any
other exception.

Corruptions are prefix truncations and single-byte XOR flips with 0x01,
0x80 and 0xFF.  The image and records files are small enough to try
every position; the checkpoint tries every byte of its 12-byte fixed
header plus a seeded sample of JSON-header and payload positions.

``write_filtered_png`` is a reference PNG encoder that applies any of
the five scanline filters row by row, since ``write_png`` emits filter 0
only; the PNG reader must decode its files exactly.
"""

import gc
import struct
import warnings
import zlib

import numpy as np
import pytest

from fcxs.errors import DataError
from fcxs.evaluation import EvalRecord, read_records, records_to_csv
from fcxs.imageio import read_pgm, read_png, write_pgm, write_png
from fcxs.models import ArchConfig, build_network, load_checkpoint, save_checkpoint

FLIPS = (0x01, 0x80, 0xFF)
SAMPLED_POSITIONS = 150  # per region (JSON header, payload) of the checkpoint


def variants(data: bytes, positions):
    for pos in positions:
        yield f"cut@{pos}", data[:pos]
        for mask in FLIPS:
            yield f"flip@{pos}^{mask:#04x}", data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1 :]


def assert_loads_or_data_error(load, path, data: bytes, positions) -> int:
    """Run ``load`` on every variant; returns how many raised DataError."""
    rejected = 0
    for name, blob in variants(data, positions):
        path.write_bytes(blob)
        try:
            load(path)
        except DataError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 -- the escape is the failure
            pytest.fail(f"{name}: {type(exc).__name__}: {exc}")
    return rejected


def gradient_image(shape, maxval) -> np.ndarray:
    return (np.arange(np.prod(shape)).reshape(shape) * 37 % (maxval + 1)).astype(np.int64)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _filter_row(filter_type: int, row: bytes, prior: bytes, bpp: int) -> bytes:
    """One scanline filtered as the PNG specification defines it; filter 5,
    which no decoder accepts, stores the row as is."""
    out = bytearray([filter_type])
    for i, x in enumerate(row):
        a = row[i - bpp] if i >= bpp else 0
        b = prior[i]
        c = prior[i - bpp] if i >= bpp else 0
        predictor = (0, a, b, (a + b) // 2, _paeth(a, b, c), 0)[filter_type]
        out.append((x - predictor) % 256)
    return bytes(out)


def write_filtered_png(path, image: np.ndarray, filters) -> None:
    """Gray8, gray16 or RGB8 PNG whose row ``y`` uses filter ``filters[y % len(filters)]``."""
    color_type, channels = (2, 3) if image.ndim == 3 else (0, 1)
    depth = 16 if image.dtype == np.uint16 else 8
    height, width = image.shape[:2]
    stride = width * channels * depth // 8
    data = image.astype(">u2" if depth == 16 else np.uint8).tobytes()
    prior, raw = bytes(stride), bytearray()
    for y in range(height):
        row = data[y * stride : (y + 1) * stride]
        raw += _filter_row(filters[y % len(filters)], row, prior, channels * depth // 8)
        prior = row

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))

    ihdr = struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, 0)
    path.write_bytes(
        b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b"")
    )


def write_mixed_filter_png(path, image: np.ndarray) -> None:
    write_filtered_png(path, image, (0, 1, 2, 3, 4))


FILTERED_IMAGES = {
    "gray8": np.random.default_rng(30).integers(0, 256, (9, 11)).astype(np.uint8),
    "gray16": np.random.default_rng(31).integers(0, 65536, (9, 7)).astype(np.uint16),
    "rgb8": np.random.default_rng(32).integers(0, 256, (9, 6, 3)).astype(np.uint8),
}


@pytest.mark.parametrize("kind", sorted(FILTERED_IMAGES))
@pytest.mark.parametrize("filters", [(0,), (1,), (2,), (3,), (4,), (0, 1, 2, 3, 4), (4, 2, 3, 1)], ids=str)
def test_png_filters_decode_exactly(tmp_path, kind, filters):
    image = FILTERED_IMAGES[kind]
    write_filtered_png(tmp_path / "f.png", image, filters)
    arr, maxval = read_png(tmp_path / "f.png")
    assert maxval == (65535 if image.dtype == np.uint16 else 255)
    assert arr.dtype == image.dtype
    np.testing.assert_array_equal(arr, image)


@pytest.mark.parametrize("width", [1, 4])
def test_png_unknown_filter_rejected(tmp_path, width):
    write_filtered_png(tmp_path / "f.png", np.zeros((3, width), dtype=np.uint8), (0, 5))
    with pytest.raises(DataError, match="filter type 5"):
        read_png(tmp_path / "f.png")


@pytest.mark.parametrize(
    "write, load, image",
    [
        pytest.param(write_pgm, read_pgm, gradient_image((8, 8), 255), id="pgm_8x8_p5"),
        pytest.param(write_png, read_png, gradient_image((8, 8), 255).astype(np.uint8), id="png_8x8_8bit"),
        pytest.param(write_png, read_png, gradient_image((5, 6), 65535).astype(np.uint16), id="png_5x6_16bit"),
        pytest.param(
            write_mixed_filter_png, read_png, gradient_image((5, 6), 255).astype(np.uint8), id="png_5x6_mixed_filters"
        ),
    ],
)
def test_image_every_truncation_and_flip(tmp_path, write, load, image):
    source = tmp_path / "source"
    write(source, image)
    data = source.read_bytes()
    arr, _ = load(source)
    np.testing.assert_array_equal(arr, image)
    rejected = assert_loads_or_data_error(load, tmp_path / "variant", data, range(len(data)))
    assert rejected >= len(data)  # at least every truncation is rejected


def test_records_every_truncation_and_flip(tmp_path):
    records = [
        EvalRecord("img0", "lungs", 0.912345, 0.838810, 1.25),
        EvalRecord("img0", "clavicles", 0.5, 0.333333, float("nan")),
        EvalRecord("img1", "heart", 0.0, 0.0, 12.5),
    ]
    source = tmp_path / "records.csv"
    source.write_text(records_to_csv(records))
    data = source.read_bytes()
    assert records_to_csv(read_records(source)) == records_to_csv(records)
    rejected = assert_loads_or_data_error(read_records, tmp_path / "variant.csv", data, range(len(data)))
    assert rejected > 0


def test_checkpoint_header_and_sampled_payload(tmp_path):
    source = tmp_path / "source.fcxs"
    save_checkpoint(build_network(ArchConfig(arch="unet_original", input_resolution=16, base_channels=2)), source)
    data = source.read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    payload_start = 12 + header_len
    rng = np.random.default_rng(20)
    positions = sorted(
        set(range(12))
        | set(rng.choice(np.arange(12, payload_start), SAMPLED_POSITIONS, replace=False).tolist())
        | set(rng.choice(np.arange(payload_start, len(data)), SAMPLED_POSITIONS, replace=False).tolist())
    )
    rejected = assert_loads_or_data_error(load_checkpoint, tmp_path / "variant.fcxs", data, positions)
    assert rejected >= len(positions)  # at least every truncation is rejected


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)], ids=["0x0", "0x4", "4x0"])
def test_png_zero_size_rejected(tmp_path, shape):
    path = tmp_path / "empty.png"
    write_filtered_png(path, np.zeros(shape, dtype=np.uint8), (0,))
    with pytest.raises(DataError, match="size must be positive") as exc:
        read_png(path)
    assert str(path) in str(exc.value)


def test_readers_close_their_files(tmp_path):
    write_pgm(tmp_path / "a.pgm", gradient_image((4, 4), 255))
    write_png(tmp_path / "a.png", gradient_image((4, 4), 255).astype(np.uint8))
    # an unclosed file warns from its finalizer, where an "error" filter's
    # exception would be swallowed, so the warnings are recorded instead
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        read_pgm(tmp_path / "a.pgm")
        read_png(tmp_path / "a.png")
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
