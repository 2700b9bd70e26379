"""Stream files and synthetic stream generation.

Text format: newline-delimited records "<i> <v>" with 1-based item index i
and signed integer delta v. Lines starting with '#' are comments; a header
comment "# n=<n>" declares the domain size, also when it follows records
(which must then lie in the domain). Without a header the domain size is
inferred as the largest item index seen.

Binary format (benchmarks): 8-byte magic "F1SKBIN\\0", little-endian uint64
n, then little-endian (uint32 i, int64 v) pairs.
"""

from __future__ import annotations

import re
import struct
import sys
import warnings
from dataclasses import dataclass

import numpy as np

BINARY_MAGIC = b"F1SKBIN\x00"
BINARY_RECORD = np.dtype([("i", "<u4"), ("v", "<i8")])  # packed, 12 bytes

_PLAIN_HEADER = re.compile(rb"# n=(\d{1,18})(?:\n|\Z)")
_PLAIN_TOKEN_MAX = 18  # 18 digits, or "-" and 17: always inside int64
_TEXT_FIELD = re.compile(r"[+-]?[0-9]+")


class StreamParseError(ValueError):
    """A stream file failed to parse; `line` is 1-based where applicable."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Stream:
    """Parsed stream: domain size plus aligned item/delta arrays."""

    n: int
    items: np.ndarray
    deltas: np.ndarray

    def __len__(self) -> int:
        return int(self.items.size)


def read_stream(path: str, binary: bool = False) -> Stream:
    """Parse a stream file ('-' reads text from stdin).

    Text in the plain shape (see `_parse_plain`) is read in one vectorized
    pass; any other text goes through `parse_text`, the reference reader,
    with identical results and errors."""
    if binary:
        return _read_binary(path)
    if path == "-":
        # as bytes again, so non-ASCII text is refused as in a file
        # (surrogateescape gives back the bytes stdin could not decode)
        data = sys.stdin.read().encode("utf-8", "surrogateescape")
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    stream = _parse_plain(data)
    if stream is None:
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            # the line as `parse_text` numbers it: the ASCII text before the
            # byte, plus a character standing for the byte's line
            line = len((data[:exc.start].decode("ascii") + "x").splitlines())
            raise StreamParseError(f"non-ASCII byte {data[exc.start]:#04x}", line) from None
        stream = parse_text(text.splitlines())
    return stream


def _parse_plain(data: bytes) -> Stream | None:
    """`parse_text` of `data` when the text has the plain shape, else None.

    Plain: an optional first line "# n=<digits>" with n >= 1, then only
    digits, '-', spaces and newlines; every line holds 0 or 2 tokens, each
    token at most `_PLAIN_TOKEN_MAX` bytes with any '-' followed by a digit;
    numpy reads exactly one value per token; every item lies in [1, n].
    Each check is needed: `np.fromstring` reads a trailing lone '-' and a
    blank text as 0, saturates overflowing values, and skips carriage
    returns, which `parse_text` treats as line breaks.
    """
    n = None
    header = _PLAIN_HEADER.match(data)
    if header:
        n = int(header.group(1))
        if n < 1:
            return None
        data = data[header.end():]
    text = np.frombuffer(data, dtype=np.uint8)
    sep = (text == ord(" ")) | (text == ord("\n"))
    digit = (text - np.uint8(ord("0"))) < 10
    minus = text == ord("-")
    if not (sep | digit | minus).all():
        return None
    signs = np.flatnonzero(minus)
    if signs.size and (signs[-1] + 1 == text.size or not digit[signs + 1].all()):
        return None
    edges = np.flatnonzero(np.diff(sep, prepend=True, append=True))
    starts, ends = edges[0::2], edges[1::2]
    if starts.size % 2 or (ends - starts > _PLAIN_TOKEN_MAX).any():
        return None
    if starts.size:
        # whether a line break follows each token but the last, before the
        # next token: never inside a record, always between two
        breaks = np.logical_or.reduceat(text[:ends[-1]] == ord("\n"), ends[:-1])
        if breaks[0::2].any() or not breaks[1::2].all():
            return None
    try:
        with warnings.catch_warnings():
            # older numpy only warns when it stops short of the end
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(data, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != starts.size:
        return None
    items, deltas = (np.ascontiguousarray(c) for c in values.reshape(-1, 2).T)
    if items.size == 0:
        return None if n is None else Stream(n, items, deltas)
    lo, hi = int(items.min()), int(items.max())
    if lo < 1 or (n is not None and hi > n):
        return None
    return Stream(hi if n is None else n, items, deltas)


def _text_int(field: str) -> int:
    """A field of ASCII decimal digits with an optional sign; ValueError for
    anything else, such as the underscores and non-ASCII digits int() takes."""
    if not _TEXT_FIELD.fullmatch(field):
        raise ValueError(f"not a decimal integer: {field!r}")
    return int(field)


def parse_text(lines) -> Stream:
    """The reference text reader: one record per line, errors by line.

    A "# n=" header after records is checked against them: the first
    earlier record outside [1, n] is reported."""
    n = None
    items: list[int] = []
    deltas: list[int] = []
    # (line, item) of each record that raised the running item maximum:
    # the first record beyond a late header's n is among them
    peaks: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and n is None:
                try:
                    n = _text_int(body[2:].strip())
                except ValueError:
                    raise StreamParseError(f"bad domain header {line!r}", lineno)
                if n < 1:
                    raise StreamParseError("declared n must be >= 1", lineno)
                for peak_line, i in peaks:
                    if i > n:
                        raise StreamParseError(
                            f"item {i} outside declared domain [1, {n}]", peak_line)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StreamParseError(f"expected '<i> <v>', got {line!r}", lineno)
        try:
            i, v = _text_int(parts[0]), _text_int(parts[1])
        except ValueError:
            raise StreamParseError(f"non-integer field in {line!r}", lineno)
        if i < 1:
            raise StreamParseError(f"item index {i} must be >= 1", lineno)
        if n is not None and i > n:
            raise StreamParseError(f"item {i} outside declared domain [1, {n}]", lineno)
        if not -(1 << 63) <= v < (1 << 63):
            raise StreamParseError(f"delta {v} exceeds the 64-bit counter range", lineno)
        if n is None and (not peaks or i > peaks[-1][1]):
            peaks.append((lineno, i))
        items.append(i)
        deltas.append(v)
    if n is None:
        if not items:
            raise StreamParseError("empty stream with no '# n=' header")
        n = max(items)
    return Stream(n=n,
                  items=np.array(items, dtype=np.int64),
                  deltas=np.array(deltas, dtype=np.int64))


def write_stream(path: str, stream: Stream, binary: bool = False) -> None:
    if binary:
        # checked before the file is opened, so a failure leaves no file
        items = np.asarray(stream.items, dtype=np.int64)
        bad = items[(items < 0) | (items > 0xFFFFFFFF)]
        if bad.size:
            raise ValueError(f"item {bad[0]} does not fit the binary format's uint32 item field")
        records = np.empty(items.size, dtype=BINARY_RECORD)
        records["i"] = items
        records["v"] = stream.deltas
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<Q", stream.n))
            fh.write(records.tobytes())
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# n={stream.n}\n")
        for i, v in zip(stream.items, stream.deltas):
            fh.write(f"{i} {v}\n")


def _read_binary(path: str) -> Stream:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise StreamParseError("missing binary stream magic")
    header = len(BINARY_MAGIC) + 8
    if len(blob) < header:
        raise StreamParseError("truncated binary header")
    (n,) = struct.unpack_from("<Q", blob, len(BINARY_MAGIC))
    if n < 1:
        raise StreamParseError("declared n must be >= 1")
    if (len(blob) - header) % BINARY_RECORD.itemsize:
        raise StreamParseError("truncated binary record")
    records = np.frombuffer(blob, dtype=BINARY_RECORD, offset=header)
    items = records["i"].astype(np.int64)
    bad = np.flatnonzero((items < 1) | (items > n))
    if bad.size:
        r = int(bad[0])
        raise StreamParseError(f"item {items[r]} outside declared domain [1, {n}]",
                               line=r + 1)
    deltas = records["v"].astype(np.int64)
    return Stream(n=int(n), items=items, deltas=deltas)


# -- synthetic generation ----------------------------------------------------


@dataclass(frozen=True)
class Distribution:
    """Parsed distribution spec: name plus positional parameters."""

    name: str
    params: tuple

    @classmethod
    def parse(cls, text: str) -> "Distribution":
        """Accepts 'uniform', 'zipf(1.1)', 'planted(10,10000,10)',
        'adversarial'; bare 'zipf' defaults to exponent 1.1."""
        text = text.strip()
        if "(" in text:
            if not text.endswith(")"):
                raise ValueError(f"unbalanced distribution spec {text!r}")
            name, inner = text[:-1].split("(", 1)
            params = tuple(float(x) for x in inner.split(",")) if inner.strip() else ()
        else:
            name, params = text, ()
        name = name.strip().lower()
        if name == "zipf":
            if len(params) > 1:
                raise ValueError("zipf takes one exponent parameter")
            params = (params[0] if params else 1.1,)
            if params[0] <= 0:
                raise ValueError("zipf exponent must be positive")
        elif name == "uniform":
            if params:
                raise ValueError("uniform takes no parameters")
        elif name == "planted":
            if len(params) != 3:
                raise ValueError("planted takes (heavy_count, heavy_f, light_max)")
            if any(x < 1 or x != int(x) for x in params):
                raise ValueError("planted parameters must be positive integers")
            params = tuple(int(x) for x in params)
        elif name == "adversarial":
            if params:
                raise ValueError("adversarial takes no parameters")
        else:
            raise ValueError(f"unknown distribution {name!r}")
        return cls(name, params)


def generate(dist: Distribution | str, n: int, m: int, seed: int,
             turnstile: bool = False) -> Stream:
    """Deterministically generate an m-record stream over domain [1, n]."""
    if isinstance(dist, str):
        dist = Distribution.parse(dist)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = np.random.default_rng(np.random.PCG64(seed))
    if dist.name == "uniform":
        items = rng.integers(1, n + 1, size=m)
        deltas = rng.choice([-1, 1], size=m) if turnstile else np.ones(m, dtype=np.int64)
        return Stream(n, items.astype(np.int64), deltas.astype(np.int64))
    if dist.name == "zipf":
        weights = 1.0 / np.arange(1, n + 1, dtype=float) ** dist.params[0]
        weights /= weights.sum()
        items = rng.choice(n, size=m, p=weights) + 1
        deltas = rng.choice([-1, 1], size=m) if turnstile else np.ones(m, dtype=np.int64)
        return Stream(n, items.astype(np.int64), deltas.astype(np.int64))
    if dist.name == "planted":
        heavy_count, heavy_f, light_max = dist.params
        if heavy_count >= n:
            raise ValueError("planted heavy_count must be below n")
        light_f = rng.integers(1, light_max + 1, size=n - heavy_count)
        base_items = np.arange(1, n + 1, dtype=np.int64)
        base_deltas = np.concatenate([
            np.full(heavy_count, heavy_f, dtype=np.int64), light_f.astype(np.int64)])
        return _pad_records(base_items, base_deltas, n, m, rng, turnstile)
    if dist.name == "adversarial":
        # slowly decaying sqrt profile: many items hover near the
        # heavy/light threshold, the hard regime for classification; item 1
        # absorbs rounding so the total magnitude covers m records
        scale = max(1.0, m / (2.0 * np.sqrt(n)))
        base_deltas = np.maximum(1, np.round(scale / np.sqrt(np.arange(1, n + 1)))).astype(np.int64)
        deficit = m - int(base_deltas.sum())
        if deficit > 0:
            base_deltas[0] += deficit
        if turnstile:
            base_deltas *= np.where(np.arange(n) % 2 == 0, 1, -1)
        base_items = np.arange(1, n + 1, dtype=np.int64)
        return _pad_records(base_items, base_deltas, n, m, rng, turnstile)
    raise ValueError(f"unknown distribution {dist.name!r}")


def _pad_records(items: np.ndarray, deltas: np.ndarray, n: int, m: int, rng,
                 turnstile: bool) -> Stream:
    """Stretch a one-record-per-item profile to exactly m records without
    changing any final frequency.

    Insert-only profiles split records into two positive parts; turnstile
    profiles append cancelling +x/-x churn pairs, plus one final split if an
    odd record is still missing.
    """
    base = len(items)
    if m < base:
        raise ValueError(
            f"this distribution needs m >= {base} records to realize its "
            f"frequency profile over n={n}")
    items = list(items)
    deltas = list(deltas)
    extra = m - base
    if turnstile:
        while extra >= 2:
            i = int(rng.integers(1, n + 1))
            x = int(rng.integers(1, 10))
            items += [i, i]
            deltas += [x, -x]
            extra -= 2
    cursor = 0
    while extra > 0:
        # split the next record with |delta| >= 2 into two same-sign parts
        while cursor < len(deltas) and abs(deltas[cursor]) < 2:
            cursor += 1
        if cursor == len(deltas):
            raise ValueError("cannot pad: every record already has |delta| <= 1")
        d = deltas[cursor]
        step = 1 if d > 0 else -1
        deltas[cursor] = d - step
        items.append(items[cursor])
        deltas.append(step)
        extra -= 1
    return Stream(n, np.array(items, dtype=np.int64), np.array(deltas, dtype=np.int64))
