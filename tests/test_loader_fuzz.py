"""Seeded fuzz of the file loaders (PGM, PNG, records CSV, checkpoint):
every corrupted file either loads or raises ``DataError``, never any
other exception.

Corruptions are prefix truncations and single-byte XOR flips with 0x01,
0x80 and 0xFF.  The image and records files are small enough to try
every position; the checkpoint tries every byte of its 12-byte fixed
header plus a seeded sample of JSON-header and payload positions.
"""

import struct

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


@pytest.mark.parametrize(
    "write, load, image",
    [
        pytest.param(write_pgm, read_pgm, gradient_image((8, 8), 255), id="pgm_8x8_p5"),
        pytest.param(write_png, read_png, gradient_image((8, 8), 255).astype(np.uint8), id="png_8x8_8bit"),
        pytest.param(write_png, read_png, gradient_image((5, 6), 65535).astype(np.uint16), id="png_5x6_16bit"),
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
