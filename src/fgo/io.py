"""Readers and writers for the small set of on-disk formats.

Float maps travel as ``FM1`` text (header ``FM1 <rows> <cols>`` followed
by whitespace-separated reals), label maps as ``LM1`` with integers, and
signed ground-truth maps reuse the LM1 container with values -1/0/+1.
Images come in as PPM (P6 or P3) and visualizations go out as PGM (P5).
"""

from __future__ import annotations

import numpy as np


def _parsed(path, parse, tokens) -> np.ndarray:
    """The array of ``parse`` of every token, of dtype ``parse``
    (``int`` is int64, ``float`` float64); a malformed token, or an
    integer that does not fit int64, is refused naming the file."""
    try:
        return np.array([parse(t) for t in tokens], dtype=parse)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_text_map(path, magic: str, arr: np.ndarray, fmt: str) -> None:
    """Write a 2D map as the text header ``<magic> <rows> <cols>`` and one
    line per row of space-separated values, each formatted by ``fmt``.
    A map without rows or columns is refused, as the reader refuses it."""
    if 0 in arr.shape:
        raise ValueError(f"{magic} maps need at least 1 row and 1 column, got shape {arr.shape}")
    with open(path, "w") as fh:
        fh.write(f"{magic} {arr.shape[0]} {arr.shape[1]}\n")
        np.savetxt(fh, arr, fmt=fmt, delimiter=" ")


def write_fm1(path, values) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"FM1 maps must be 2D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("FM1 values must be finite")
    _write_text_map(path, "FM1", arr, "%.17g")


def _read_text_map(path, magic: str, parse) -> np.ndarray:
    """The (rows, cols) map of a ``<magic> <rows> <cols>`` text file,
    each value read by ``parse`` (``float`` or ``int``, also the dtype).
    A header with fewer than one row or column is refused."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3 or tokens[0] != magic:
        raise ValueError(f"{path}: not an {magic} file")
    rows, cols = _parsed(path, int, tokens[1:3]).tolist()
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: bad {magic} header ({rows} rows, {cols} cols)")
    data = tokens[3:]
    if len(data) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {len(data)}")
    return _parsed(path, parse, data).reshape(rows, cols)


def read_fm1(path) -> np.ndarray:
    arr = _read_text_map(path, "FM1", float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite values")
    return arr


def write_lm1(path, values) -> None:
    arr = np.asarray(values)
    if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("LM1 maps must be 2D integer arrays")
    _write_text_map(path, "LM1", arr, "%d")


def read_lm1(path) -> np.ndarray:
    arr = _read_text_map(path, "LM1", int)
    if arr.min() < 0:
        raise ValueError(f"{path}: negative labels not allowed here")
    return arr


def read_signed_map(path) -> np.ndarray:
    """An LM1 map restricted to values -1, 0 and +1."""
    arr = _read_text_map(path, "LM1", int)
    if not np.isin(arr, (-1, 0, 1)).all():
        raise ValueError(f"{path}: signed maps may only hold -1, 0, +1")
    return arr


def _pnm_tokens(path, blob: bytes, count: int):
    """The numbers after the magic among the first ``count`` header
    tokens of a PNM file, skipping # comments; a truncated header or a
    malformed number is refused naming the file.

    Returns the numbers and the offset one byte past the final token's
    trailing whitespace (where P6 raster data begins).
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(blob):
            raise ValueError(f"{path}: truncated PNM header")
        ch = blob[i : i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(blob) and not blob[j : j + 1].isspace():
                j += 1
            tokens.append(blob[i:j].decode("ascii", errors="replace"))
            i = j
    return _parsed(path, int, tokens[1:]).tolist(), i + 1


def read_ppm(path):
    """Read a P6 or P3 PPM into one (3, rows, cols) float64 array of
    r, g and b scaled to [0, 1], the image layout of
    ``channels.as_image``; ``r, g, b = read_ppm(path)`` unpacks it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:2].decode("ascii", errors="replace")
    if magic not in ("P6", "P3"):
        raise ValueError(f"{path}: unsupported PPM magic {magic!r}")
    (width, height, maxval), offset = _pnm_tokens(path, blob, 4)
    if width < 1 or height < 1 or not 0 < maxval < 256:
        raise ValueError(f"{path}: bad PPM header ({width}x{height}, maxval {maxval})")
    n = width * height * 3
    if magic == "P6":
        if len(blob) - offset < n:
            raise ValueError(f"{path}: truncated PPM raster")
        raster = np.frombuffer(blob, dtype=np.uint8, count=n, offset=offset)
    else:
        tokens = blob[offset - 1 :].split()
        if len(tokens) < n:
            raise ValueError(f"{path}: truncated PPM raster")
        raster = _parsed(path, int, tokens[:n])
    if raster.min() < 0 or raster.max() > maxval:
        raise ValueError(f"{path}: sample out of range")
    return np.moveaxis(raster.reshape(height, width, 3).astype(np.float64) / maxval, -1, 0)


def _write_pnm(path, magic: str, data: np.ndarray) -> None:
    """Write a uint8 raster, (rows, cols) for P5 or (rows, cols, 3) for
    P6, as a binary PNM of maxval 255. A raster without rows or columns
    is refused, as ``read_ppm`` refuses it."""
    if 0 in data.shape:
        raise ValueError(f"{magic} images need at least 1 row and 1 column, got shape {data.shape}")
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_ppm(path, r, g, b) -> None:
    """Write three maps of values in [0, 1] (NaN refused) as a binary
    P6 PPM."""
    stack = np.stack([np.asarray(c, dtype=np.float64) for c in (r, g, b)], axis=-1)
    if stack.ndim != 3 or stack.shape[2] != 3:
        raise ValueError("write_ppm expects three 2D maps")
    if not ((stack >= 0) & (stack <= 1)).all():
        raise ValueError("PPM channel values must lie in [0, 1]")
    _write_pnm(path, "P6", np.rint(stack * 255).astype(np.uint8))


def write_pgm(path, gray) -> None:
    """Write a 2D map of integers in 0..255 as a binary P5 PGM."""
    arr = np.asarray(gray)
    if arr.ndim != 2:
        raise ValueError("write_pgm expects a 2D map")
    if not (np.issubdtype(arr.dtype, np.integer) and ((arr >= 0) & (arr <= 255)).all()):
        raise ValueError("PGM values must be integers in 0..255")
    _write_pnm(path, "P5", arr.astype(np.uint8))
