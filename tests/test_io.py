import re

import numpy as np
import pytest

from fgo.io import (
    read_fm1,
    read_lm1,
    read_ppm,
    read_signed_map,
    write_fm1,
    write_lm1,
    write_pgm,
    write_ppm,
)

from helpers import read_pgm


class TestFM1:
    def test_round_trip_preserves_doubles(self, tmp_path):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(5, 9)) * 1e-3
        path = tmp_path / "map.fm1"
        write_fm1(path, arr)
        np.testing.assert_array_equal(read_fm1(path), arr)

    def test_exact_bytes(self, tmp_path):
        # shortest round-trip digits, signed zero, subnormal, exponent form
        path = tmp_path / "map.fm1"
        write_fm1(path, [[-0.0, 5e-324], [1e20, 0.1]])
        assert path.read_bytes() == (
            b"FM1 2 2\n-0 4.9406564584124654e-324\n1e+20 0.10000000000000001\n"
        )

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_fm1(tmp_path / "bad.fm1", np.zeros(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_write(self, tmp_path, value):
        # read_fm1 refuses what it would write
        path = tmp_path / "bad.fm1"
        with pytest.raises(ValueError, match="^FM1 values must be finite$"):
            write_fm1(path, [[1.0, value]])
        assert not path.exists()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.fm1"
        path.write_text("XX1 2 2\n0 0\n0 0\n")
        with pytest.raises(ValueError):
            read_fm1(path)

    def test_rejects_truncated_data(self, tmp_path):
        path = tmp_path / "bad.fm1"
        path.write_text("FM1 2 2\n0 0 0\n")
        with pytest.raises(ValueError):
            read_fm1(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "bad.fm1"
        path.write_text("FM1 1 2\n1.0 nan\n")
        with pytest.raises(ValueError):
            read_fm1(path)


class TestLM1:
    def test_round_trip(self, tmp_path):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        path = tmp_path / "labels.lm1"
        write_lm1(path, arr)
        out = read_lm1(path)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == np.int64

    def test_rejects_float_input(self, tmp_path):
        with pytest.raises(ValueError):
            write_lm1(tmp_path / "bad.lm1", np.zeros((2, 2)))

    def test_negative_labels_gated(self, tmp_path):
        arr = np.array([[-1, 0], [1, 0]])
        path = tmp_path / "signed.lm1"
        write_lm1(path, arr)
        with pytest.raises(ValueError):
            read_lm1(path)
        np.testing.assert_array_equal(read_signed_map(path), arr)

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "labels.lm1"
        write_lm1(path, np.array([[-1, 0, 12], [3, -40, 5]]))
        assert path.read_bytes() == b"LM1 2 3\n-1 0 12\n3 -40 5\n"

    def test_signed_map_value_range(self, tmp_path):
        path = tmp_path / "signed.lm1"
        write_lm1(path, np.array([[-1, 0], [1, 1]]))
        np.testing.assert_array_equal(
            read_signed_map(path), [[-1, 0], [1, 1]]
        )
        write_lm1(path, np.array([[2, 0], [0, 0]]))
        with pytest.raises(ValueError):
            read_signed_map(path)

    def test_rejects_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.lm1"
        path.write_text("LM1 2 2\n1 2 3\n")
        with pytest.raises(ValueError):
            read_lm1(path)


class TestPPM:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        r, g, b = (rng.integers(0, 256, size=(4, 6)) / 255.0 for _ in range(3))
        path = tmp_path / "img.ppm"
        write_ppm(path, r, g, b)
        image = read_ppm(path)  # one (3, rows, cols) array, channel first
        assert image.shape == (3, 4, 6) and image.dtype == np.float64
        np.testing.assert_allclose(image, np.stack([r, g, b]), atol=0.5 / 255)

    def test_plain_text_variant_with_comments(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_text(
            "P3 # plain file\n# a comment line\n2 1\n255\n"
            "255 0 0   0 128 255\n"
        )
        r, g, b = read_ppm(path)
        assert r.shape == (1, 2)
        assert r[0, 0] == pytest.approx(1.0)
        assert g[0, 1] == pytest.approx(128 / 255)
        assert b[0, 1] == pytest.approx(1.0)

    def test_exact_bytes(self, tmp_path):
        # width before height, rows top down, samples interleaved r g b,
        # each rounded half to even
        path = tmp_path / "img.ppm"
        write_ppm(path, [[0.0, 1.0]], [[0.5, 0.2]], [[1 / 255, 0.0]])
        assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([0, 128, 1, 255, 51, 0])

    def test_out_of_range_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "bad.ppm", *(np.full((2, 2), 1.5),) * 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_write_rejected(self, tmp_path, value):
        # NaN compares false with both limits, and a cast would write it as 0
        path = tmp_path / "bad.ppm"
        r = np.array([[0.5, value]])
        with pytest.raises(ValueError, match=re.escape("PPM channel values must lie in [0, 1]")):
            write_ppm(path, r, r, r)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P7\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_maxval_over_255_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_truncated_plain_raster(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_text("P3\n2 1\n255\n255 0 0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated PPM raster$"):
            read_ppm(path)

    def test_write_refuses_maps_that_are_not_2d(self, tmp_path):
        path = tmp_path / "bad.ppm"
        with pytest.raises(ValueError, match="^write_ppm expects three 2D maps$"):
            write_ppm(path, *(np.zeros(3),) * 3)
        assert not path.exists()

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_plain_sample_out_of_range(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_text("P3\n1 1\n255\n300 0 0\n")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_binary_sample_out_of_range(self, tmp_path):
        # a byte above maxval is refused with the file's name, not passed on
        # as a channel value above 1
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n100\n" + bytes([200, 0, 0]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: sample out of range$"):
            read_ppm(path)


class TestPGM:
    def test_round_trip(self, tmp_path):
        arr = np.arange(24, dtype=np.uint8).reshape(4, 6) * 10
        path = tmp_path / "vis.pgm"
        write_pgm(path, arr)
        np.testing.assert_array_equal(read_pgm(path), arr)

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "vis.pgm"
        write_pgm(path, np.array([[0, 7, 255], [128, 1, 2]]))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 7, 255, 128, 1, 2])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("gray", [
        [[300, 0]], [[-1, 0]], [[0.9, 255]], [[0.0, 255.0]], [[np.nan, 0]],
    ], ids=["above-255", "negative", "fraction", "float", "nan"])
    def test_rejects_what_a_byte_cannot_hold(self, tmp_path, gray):
        # a uint8 cast would wrap 300 to 44 and -1 to 255, and cut 0.9 to 0
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match=r"^PGM values must be integers in 0\.\.255$"):
            write_pgm(path, gray)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n3 3\n255\n\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)


@pytest.mark.parametrize("read, content", [
    (read_lm1, b"LM1 2 2\n1 2\nx 4\n"),
    (read_lm1, b"LM1 two 2\n1 2\n3 4\n"),
    (read_signed_map, b"LM1 1 2\n-1 +x\n"),
    (read_fm1, b"FM1 1 2\n0.5 y\n"),
    (read_fm1, b"FM1 1 2.0\n0.5 1\n"),
    (read_ppm, b"P6\n2 x\n255\n" + bytes(12)),
    (read_ppm, b"P6\n2"),
    (read_ppm, b"P3\n1 1\n255\n1 z 0\n"),
    (read_ppm, b"P6\n2 2\n255\n" + bytes(3)),
    (read_pgm, b"P5\n1 1\nmax\n\x00"),
    # beyond int64: a refusal, not an OverflowError
    (read_lm1, b"LM1 1 2\n1 99999999999999999999\n"),
    (read_signed_map, b"LM1 1 2\n0 -99999999999999999999\n"),
    (read_ppm, b"P3\n1 1\n255\n0 99999999999999999999 0\n"),
], ids=["lm1-value", "lm1-header", "signed-value", "fm1-value", "fm1-header",
        "ppm-header", "ppm-truncated", "ppm-plain-sample", "ppm-raster", "pgm-header",
        "lm1-beyond-int64", "signed-beyond-int64", "ppm-plain-beyond-int64"])
def test_malformed_token_names_the_file(tmp_path, read, content):
    # a row of a dataset is skipped with this message, so it must say
    # which of the row's files is broken
    path = tmp_path / "bad.map"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        read(path)


@pytest.mark.parametrize("read, content, header", [
    (read_fm1, "FM1 0 0\n", "FM1 header (0 rows, 0 cols)"),
    (read_fm1, "FM1 2 -1\n", "FM1 header (2 rows, -1 cols)"),
    (read_lm1, "LM1 0 3\n", "LM1 header (0 rows, 3 cols)"),
    (read_lm1, "LM1 -1 -1\n7\n", "LM1 header (-1 rows, -1 cols)"),
    (read_signed_map, "LM1 0 3\n", "LM1 header (0 rows, 3 cols)"),
    (read_signed_map, "LM1 3 0\n", "LM1 header (3 rows, 0 cols)"),
], ids=["fm1-empty", "fm1-negative", "lm1-no-rows", "lm1-negative", "signed-no-rows",
        "signed-no-cols"])
def test_text_map_without_cells_refused_naming_the_file(tmp_path, read, content, header):
    # a header whose product matches the values given is not enough:
    # -1 x -1 = 1 and 0 x 3 = 0
    path = tmp_path / "empty.map"
    path.write_text(content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad {re.escape(header)}$"):
        read(path)


@pytest.mark.parametrize("write, values, message", [
    (write_fm1, np.zeros((0, 3)), "FM1 maps need at least 1 row and 1 column, got shape (0, 3)"),
    (write_lm1, np.zeros((2, 0), dtype=int), "LM1 maps need at least 1 row and 1 column"),
    (lambda path, m: write_ppm(path, m, m, m), np.zeros((0, 0)), "P6 images need at least 1 row"),
    (write_pgm, np.zeros((3, 0), dtype=np.uint8), "P5 images need at least 1 row and 1 column"),
], ids=["fm1", "lm1", "ppm", "pgm"])
def test_map_without_cells_not_written(tmp_path, write, values, message):
    # the readers refuse a header of fewer than one row or column
    path = tmp_path / "empty.map"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        write(path, values)
    assert not path.exists()
