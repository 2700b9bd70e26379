"""The scalar record buffer behind `Estimator.update`.

`Estimator` inherits `RecordBuffer`, and its `update` is the buffer's
`push`. The compiled buffer, `records.c` next to this module, keeps each
record whose item and delta are exact ints within int64 in two int64
arrays, so a record costs one C call and a flush reads the arrays with no
per-element conversion. Any other record (a bool, a float, a numpy
integer, an int past int64) goes to the Python path, `TwinBuffer`, which
keeps records in lists and reads them at flush through `_int64_list`.
Either way an item outside [1, n] is refused at the call, a non-integer
item or delta at the next flush, with the same exception and message.

The buffer is built as a CPython extension by `hashing`'s compile path into
the same cache, keyed also on the interpreter's extension suffix, and loaded
only when it agrees with `TwinBuffer` on the records of `_SPOT_RECORDS`.
With no compiler, no `Python.h` or a disagreeing build, `RecordBuffer` is
`TwinBuffer`; `RECORDS_BACKEND` names the one in use.
"""

from __future__ import annotations

import array
import importlib.machinery
import importlib.util
import operator
import os
import pathlib

import numpy as np

from . import hashing


def integer_array(values, name: str) -> np.ndarray:
    """`values` as an int64 array; ValueError if any entry is not a whole
    number that int64 holds (a float 2.7 is refused, not truncated). A
    sequence numpy would hold as floats or objects, such as a list mixing
    whole floats with ints beyond 2**53, is read entry by entry, so no int
    is rounded through float64."""
    arr = np.asarray(values)
    if arr.dtype.kind in "bi" or (arr.dtype.kind == "u" and arr.dtype.itemsize < 8):
        return arr.astype(np.int64, copy=False)
    if arr.ndim == 1 and (arr.dtype.kind == "O" or (arr.dtype.kind == "f" and arr is not values)):
        return np.array([_whole(v, name) for v in values], dtype=np.int64)
    with np.errstate(invalid="ignore"):
        try:
            out = arr.astype(np.int64)
        except OverflowError:  # an object array holding an int beyond int64
            out = None
    if out is None or not (out == arr).all():
        raise ValueError(f"{name} must be integers within the int64 range")
    return out


def _whole(value, name: str) -> int:
    """One entry of a sequence as an exact Python int, under the rules of
    `integer_array`."""
    if isinstance(value, (float, np.floating, np.bool_)) and float(value).is_integer():
        value = int(value)
    try:
        whole = operator.index(value)
    except TypeError:
        whole = None
    if whole is None or not -(1 << 63) <= whole < 1 << 63:
        raise ValueError(f"{name} must be integers within the int64 range")
    return whole


def _int64_list(values: list, name: str) -> np.ndarray:
    """`integer_array` of a list, read through `array.array('q')` first:
    about a third faster on Python ints. An entry it refuses, such as a
    float or a value outside int64, sends the whole list to
    `integer_array`, so its rules hold either way."""
    try:
        return np.frombuffer(array.array("q", values), dtype=np.int64)
    except (TypeError, OverflowError):
        return integer_array(values, name)


class TwinBuffer:
    """Scalar records in Python lists: the buffer's Python path, and its
    twin when the compiled buffer is not in use."""

    def _open(self, n: int) -> None:
        """Start an empty buffer over the domain [1, n]."""
        self._domain = n
        self._pending_items: list = []
        self._pending_deltas: list = []

    def _object_push(self, i, v) -> None:
        """Apply one turnstile record. ValueError at the call for an item
        outside [1, n]; an item or delta that is not an integer within
        int64 is refused at the next flush, which then drops its records."""
        if not 1 <= i <= self._domain:
            raise ValueError(f"item {i} outside domain [1, {self._domain}]")
        self._pending_items.append(i)
        self._pending_deltas.append(v)

    push = _object_push

    def _take(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The buffered records as (items, deltas) int64 array pairs, and
        the buffer emptied. ValueError, with every buffered record dropped,
        when one is not an integer within int64."""
        items, deltas = self._pending_items, self._pending_deltas
        if not items:
            return []
        self._pending_items, self._pending_deltas = [], []
        return [(_int64_list(items, "items"), _int64_list(deltas, "deltas"))]


def _compiled(module) -> type:
    """The buffer class over the extension `module`'s type: its `push`, and
    `TwinBuffer`'s path for the records that `push` hands on."""

    class CompiledBuffer(module.Records, TwinBuffer):
        """Scalar records in the compiled type's int64 arrays, and the
        records it hands on in `TwinBuffer`'s lists."""

        def _take(self) -> list[tuple[np.ndarray, np.ndarray]]:
            exact = self._take_exact()
            batches = TwinBuffer._take(self)
            if exact is None:
                return batches
            pairs = np.frombuffer(exact, dtype=np.int64).reshape(2, -1)
            return [*batches, (pairs[0], pairs[1])]

    return CompiledBuffer


# records that every buffer must refuse or take as `TwinBuffer` does, over
# the domain [1, 10]: the domain's ends and the items just past them, int64
# extremes as items and deltas, and the types the compiled type hands on;
# then groups whose take refuses a fractional delta and item. The first
# group outgrows the compiled type's first allocation of 16 records.
_SPOT_DOMAIN = 10
_SPOT_RECORDS = (
    [(1, 5), (10, -3), (0, 1), (11, 1), (-1, 2), ((1 << 63) - 1, 1), (-(1 << 63), 1),
     (1 << 63, 1), (2, (1 << 63) - 1), (3, -(1 << 63)), (4, 0), (True, 7), (5, False),
     (6.0, 2), (7, -4.0), (np.int64(8), np.int32(-9)), (np.uint8(9), 2**40),
     (10, 2**62 + 1)] + [(k % 10 + 1, k - 8) for k in range(16)],
    [(3, 1), (4, 2.5), (5, 6), (0, 2.5), (np.int64(11), 1)],
    [(2.5, 1), (2, 3)],
)


def _outcome(call):
    """What `call()` returned, or the type and message of what it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # a build that disagrees may raise anything
        return type(exc), str(exc)


def _agrees(cls) -> bool:
    """Whether buffers of `cls` refuse, at each push and take, what
    `TwinBuffer`'s do, and take the same multiset of records."""
    buffers = [cls(), TwinBuffer()]
    for buffer in buffers:
        buffer._open(_SPOT_DOMAIN)
    for records in _SPOT_RECORDS:
        outcomes = []
        for buffer in buffers:
            pushed = [_outcome(lambda: buffer.push(i, v)) for i, v in records]
            kind, taken = _outcome(buffer._take)
            if kind == "ok":
                taken = sorted(pair for items, deltas in taken
                               for pair in zip(items.tolist(), deltas.tolist()))
            outcomes.append((pushed, kind, taken, _outcome(buffer._take)))
        if outcomes[0] != outcomes[1]:
            return False
    return True


_SOURCE = pathlib.Path(__file__).with_name("records.c").read_text(encoding="ascii")
_CFLAGS = ("-O2", "-shared", "-fPIC")
# the interpreter's extension suffix, sysconfig's EXT_SUFFIX: it names the
# ABI a build is for, and reading it here avoids importing sysconfig
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def _load():
    """The compiled buffer class, or None when it cannot be built or loaded
    or disagrees with `TwinBuffer` (`_agrees`)."""
    path = hashing._library_path("records", _SOURCE, _CFLAGS, _EXT_SUFFIX)
    try:
        if not os.path.exists(path):
            import sysconfig

            include = sysconfig.get_paths()["include"]
            if not os.path.exists(os.path.join(include, "Python.h")):
                return None
            hashing._build_library(path, _SOURCE, (*_CFLAGS, "-I", include))
        loader = importlib.machinery.ExtensionFileLoader("f1sketch._records", path)
        spec = importlib.util.spec_from_file_location(loader.name, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        cls = _compiled(module)
    except (OSError, ImportError, AttributeError):  # no compiler, bad library
        return None
    return cls if _agrees(cls) else None


_compiled_buffer = _load()
RecordBuffer = TwinBuffer if _compiled_buffer is None else _compiled_buffer
RECORDS_BACKEND = "python" if _compiled_buffer is None else "c-type"
