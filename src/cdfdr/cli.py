"""Command-line interface: fdr fitting, standalone pi0, and simulations.

Outputs are a structured JSON report plus plot-ready CSV curves.  Floats are
serialized with shortest round-trip precision (up to 17 significant digits),
decimal point and LF line endings regardless of locale.  The output paths are
checked before any work.  Both files are staged in ``.cdfdr-*`` directories
beside them and committed together, never renamed onto an earlier run's files,
so a failed run leaves no partial file and no mixed pair (:func:`_write_outputs`).

Exit codes: 0 success, 2 input/configuration error (an output file that
cannot be written included), 3 numerical failure (message carries the
pipeline step label).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from json.encoder import encode_basestring_ascii
from itertools import chain
from stat import S_ISREG

import numpy as np

from .density import DEFAULT_FLOOR
from .errors import (
    CdfdrError,
    ConfigError,
    DegenerateSampleError,
    InputError,
    InsufficientDataError,
)
from .pipeline import (
    CdfrModel,
    EstimatorConfig,
    NullSpec,
    discoveries,
    evaluate,
    fit_cdfdr,
    integrate_nonnull_density,
    t_to_z,
)
from .simulate import (
    MixtureNormalDesign,
    MixtureUniformDesign,
    run_replicates,
)
from .special import _blocks

__all__ = ["main"]

_INPUT_ERRORS = (InputError, ConfigError, InsufficientDataError, DegenerateSampleError)

# Items of a float array or string list that report.json formats at a time,
# so the text held while it is written does not grow with the number of cases.
_JSON_BLOCK = 65_536


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _power_table(low: int, high: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**q = (hi + lo) * 2**exp for q in [low, high], hi in [1, 2] and lo
    within 2**-53 of it, from the 106-bit rounding of Python integers."""
    his, los, exps = [], [], []
    for q in range(low, high + 1):
        power = 10 ** abs(q)
        if q >= 0:
            exp = power.bit_length() - 1
            mant = power << 105 - exp if exp <= 105 else ((power >> exp - 106) + 1) >> 1
        else:
            exp = -power.bit_length()
            mant = ((1 << 106 - exp) // power + 1) >> 1
        hi, lo = mant >> 53, mant & ((1 << 53) - 1)
        if lo >= 1 << 52:  # round hi to nearest; lo takes the sign
            hi, lo = hi + 1, lo - (1 << 53)
        his.append(math.ldexp(hi, -52))
        los.append(math.ldexp(lo, -105))
        exps.append(exp)
    return np.array(his), np.array(los), np.array(exps, dtype=np.int32)


# Decimal exponents q that scale a normal double into [1e16, 1e17).
_Q_LOW = -292
_TEN_HI, _TEN_LO, _TEN_EXP = _power_table(_Q_LOW, 324)
# Dekker's split of each hi into two halves of at most 26 bits.
_SPLITTER = 134217729.0  # 2**27 + 1
_TEN_HI_HEAD = _SPLITTER * _TEN_HI - (_SPLITTER * _TEN_HI - _TEN_HI)
_TEN_HI_TAIL = _TEN_HI - _TEN_HI_HEAD
# A lane whose rounding or interval end lies this close to a decision is
# left to float.__repr__; the double-double product errs by under 2**-45.
_UNDECIDED = 2.0 ** -36
_MIN_NORMAL = sys.float_info.min

_WORD = np.dtype("<u8")  # eight text bytes, the first in the low byte
_FOURS = np.arange(10_000)
# The four digits of i, zero-padded, as text bytes.
_DIGITS4 = sum(((_FOURS // 10 ** (3 - b)) % 10 + 48).astype(_WORD) << np.uint64(8 * b)
               for b in range(4))
# The trailing zero digits of i written with four digits (4 for 0).
_ZEROS4 = sum((_FOURS % 10 ** b == 0).astype(np.int8) for b in range(1, 5)).astype(np.int8)


def _byte_masks(byte: int, low: int, high: int) -> np.ndarray:
    """Column t: three words holding ``byte`` at each byte index i with
    t + low <= i < t + high, and 0 elsewhere, for t = 0..24."""
    return np.ascontiguousarray(np.frombuffer(bytes(
        byte if t + low <= i < t + high else 0 for t in range(25) for i in range(24)),
        _WORD).reshape(25, 3).T)


_BEFORE = _byte_masks(255, -24, 0)  # the bytes below t
_AFTER = _byte_masks(255, 1, 24)  # the bytes above t
_POINT = _byte_masks(ord("."), 0, 1)  # "." at byte t
# Sign and leading "0.", "0.0", ... of repr's positional form: entry
# 5 * negative + (1 - decimal point position, where that is 0 to -3).  The
# six bytes of "-0.000" do not fit the five-byte slot; such lanes take repr.
_LEADS = np.array([int.from_bytes((sign + lead).encode(), "little")
                   for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")], _WORD)


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digits ``repr`` writes for each positive double of ``a``: the
    17-digit integer C = 100 * head + tail with trailing zeros for digits it
    leaves out, the decimal point position, and ``ok``, false where this
    function cannot decide (zero, subnormal or least normal, non-finite, a
    close call).

    repr gives the fewest digits that read back as the same double and, among
    those, the nearest to it, ties to even (Gay's dtoa; Ryu's rule too).  Each
    lane scales x, and the half-way points to its neighbours, by a double-double
    10**q into [1e16, 1e17).  An interval of integers [A, B] then holds the
    17-digit candidates; its width is below 23, so the shortest candidate is
    the multiple of 100 in it, if any, else the nearest multiple of 10 in it,
    else the nearest integer.  Everything is computed relative to
    100 * (floor(y) // 100), so the offsets are small exact floats.
    """
    ok = (a > _MIN_NORMAL) & (a <= sys.float_info.max)
    if not ok.all():
        a = np.where(ok, a, 1.0)
    frac, exp = np.frexp(a)
    k = np.floor(np.log10(a))
    qi = (16 - _Q_LOW - k).astype(np.intp)
    hi, lo, hh, ht = _TEN_HI[qi], _TEN_LO[qi], _TEN_HI_HEAD[qi], _TEN_HI_TAIL[qi]
    shift = exp + _TEN_EXP[qi]
    # y = frac * (hi + lo) * 2**shift as yh + yl, with frac * hi exact by Dekker.
    split = _SPLITTER * frac
    fh = split - (split - frac)
    fl = frac - fh
    p = frac * hi
    err = (((fh * hh - p) + fh * ht + fl * hh) + fl * ht) + frac * lo
    s = p + err
    yh = np.ldexp(s, shift)
    yl = np.ldexp(err - (s - p), shift)
    # The rounding interval: half an ulp up, and down (a quarter below a power of 2).
    up = np.ldexp(hi, shift - 54)
    down = np.ldexp(hi, shift - 54 - (frac == 0.5))
    yfloor = np.floor(yl)
    f = yl - yfloor
    ok &= yh >= 1e16  # an integer from 2**53 on
    whole = yh.astype(np.int64)
    base = whole // 100
    r = (whole - 100 * base).astype(float) + yfloor  # y = 100 base + r + f
    low = f - down
    high = f + up
    A = np.ceil(low)
    B = np.floor(high)
    ok &= (np.abs(A - low - 0.5) <= 0.5 - _UNDECIDED) & (np.abs(high - B - 0.5) <= 0.5 - _UNDECIDED)
    # Where 10**q is exact, so is y; elsewhere f must stay clear of 0, 1/2 and 1.
    inexact = lo != 0.0
    if inexact.any():
        near = np.abs(f - 0.5)
        ok &= ~inexact | ((near <= 0.5 - _UNDECIDED) & (near >= _UNDECIDED))
    A += r
    B += r
    hundred = (B >= 100.0) * 100.0  # A > -31 and B < 131, so 0 or 100
    tens = np.floor(r / 10.0)
    units = r - 10.0 * tens
    odd_tens = np.floor(0.5 * tens) * 2.0 != tens
    up10 = (units > 5.0) | ((units == 5.0) & ((f > 0.0) | odd_tens))
    low10 = 10.0 * np.ceil(A / 10.0)
    high10 = 10.0 * np.floor(B / 10.0)
    near10 = np.minimum(np.maximum(10.0 * (tens + up10), low10), high10)
    up1 = (f > 0.5) | ((f == 0.5) & (np.floor(0.5 * r) * 2.0 != r))
    c = np.minimum(np.maximum(r + up1, A), B)
    c += (low10 <= high10) * (near10 - c)
    c += ((A <= hundred) & (B >= 0.0)) * (hundred - c)
    carry = np.floor(c / 100.0)
    head = base.astype(float) + carry  # below 2**53, exact
    ok &= (head >= 1e14) & (head < 1e15)
    return head, c - 100.0 * carry, k.astype(np.intp) + 1, ok


def _repr_text(x: np.ndarray, sep: bytes) -> str:
    """``repr`` of each double of the 1-d array ``x``, each followed by ``sep``
    (which holds no NUL).

    Each lane's text is laid out in words of zero-padded bytes: sign and
    leading "0." at byte 0, the digits with their point at byte 5, the
    trailing "0" or exponent at byte 23 and ``sep`` at byte 28.  One translate
    drops the padding.  Zeros are laid out as "0.0" and "-0.0"; the other
    lanes :func:`_shortest` cannot decide get ``repr``, written in one pass.
    """
    head, tail, point, ok = _shortest(np.abs(x))
    negative = np.signbit(x)
    ok &= ~(negative & (point == -3))
    if not ok.all():
        head[~ok], tail[~ok] = 1e14, 0.0
        # Zero has point 1 here: no digits, then "0." and the trailing "0".
        zero = x == 0.0
        head[zero] = 0.0
        ok |= zero
    # C's digits as chunks 0-3, 4-7, 8-11, 12-15 and 16.
    h11, h7, h3, t1 = (np.floor(head / 1e11), np.floor(head / 1e7), np.floor(head / 1e3),
                       np.floor(tail / 10.0))
    d1 = h11.astype(np.intp)
    d2 = (h7 - 1e4 * h11).astype(np.intp)
    d3 = (h3 - 1e4 * h7).astype(np.intp)
    d4 = ((head - 1e3 * h3) * 10.0 + t1).astype(np.intp)
    d5 = (tail - 10.0 * t1).astype(np.intp)
    n = 17 - (d5 == 0) * (1 + _ZEROS4[d4] + (d4 == 0) * (
        _ZEROS4[d3] + (d3 == 0) * (_ZEROS4[d2] + (d2 == 0) * _ZEROS4[d1])))
    sci = (point < -3) | (point > 16)
    lead = ~sci & (point <= 0)
    fixed = ~sci & (point > 0)
    trail = fixed & (point >= n)  # "123.0": the digits run to the point
    shown = n + trail * (point - n)
    at = 24 + fixed * (point - 24) - 23 * (sci & (n > 1))  # the point's byte; 24: none
    suffix = trail.astype(_WORD) * np.uint64(ord("0"))
    if sci.any():  # "e", the sign, two or three digits
        e = np.abs(point - 1)
        wide = (e >= 100).astype(_WORD)
        sign = np.uint64(ord("+")) + np.uint64(2) * (point < 1).astype(_WORD)
        exp_text = (np.uint64(ord("e")) | sign << np.uint64(8)
                    | wide * (e // 100 + 48).astype(_WORD) << np.uint64(16)
                    | (e // 10 % 10 + 48).astype(_WORD) << np.uint64(16) + np.uint64(8) * wide
                    | (e % 10 + 48).astype(_WORD) << np.uint64(24) + np.uint64(8) * wide)
        suffix = np.where(sci, exp_text, suffix)
    # The shown digits, then the point inserted at byte `at`.
    digits = np.empty((3, x.size), _WORD)
    digits[0] = _DIGITS4[d1] | _DIGITS4[d2] << np.uint64(32)
    digits[1] = _DIGITS4[d3] | _DIGITS4[d4] << np.uint64(32)
    digits[2] = d5.astype(_WORD) + np.uint64(48)
    digits &= np.take(_BEFORE, shown, axis=1)
    moved = digits << np.uint64(8)
    moved[1:] |= digits[:-1] >> np.uint64(56)
    body = (digits & np.take(_BEFORE, at, axis=1)) | (moved & np.take(_AFTER, at, axis=1))
    body |= np.take(_POINT, at, axis=1)
    sep_words = np.frombuffer((b"\0" * 4 + sep).ljust(4 + len(sep) + 7 & -8, b"\0"), _WORD)
    rows = np.empty((x.size, 3 + sep_words.size), _WORD)
    rows[:, 0] = _LEADS[5 * negative + lead * (1 - point)] | body[0] << np.uint64(40)
    rows[:, 1] = body[0] >> np.uint64(24) | body[1] << np.uint64(40)
    rows[:, 2] = body[1] >> np.uint64(24) | body[2] << np.uint64(40) | suffix << np.uint64(56)
    rows[:, 3] = suffix >> np.uint64(8) | sep_words[0]
    rows[:, 4:] = sep_words[1:]
    bad = np.flatnonzero(~ok)
    if bad.size:  # repr's text, NUL-padded to 24 bytes
        texts = np.array(list(map(repr, x[bad].tolist())), "S24")
        rows[bad, :3] = texts.view(_WORD).reshape(-1, 3)
        rows[bad, 3] = sep_words[0]
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _join_floats(sep: str, block) -> str:
    """``sep.join(map(repr, block))`` for a float array, rendered a
    ``special._blocks`` block at a time."""
    block = np.ascontiguousarray(block, dtype=float).ravel()
    text = "".join(_repr_text(sub, sep.encode()) for sub, in _blocks(block))
    return text[:len(text) - len(sep)]


def _float_text(values) -> list[str]:
    """Shortest round-trip text of each float, as ``repr`` writes it."""
    values = np.asarray(values, dtype=float)
    return _join_floats("\n", values).split("\n") if values.size else []


def _join_strings(sep: str, block) -> str:
    return sep.join(map(encode_basestring_ascii, block))


def _default(obj):
    """JSON form of numpy arrays and scalars; numpy floats already encode as floats."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _records_text(records: list, pad: str) -> str | None:
    """The text of ``json.dumps(records, indent=1)`` nested ``len(pad)`` levels
    deep, for a list of dicts that share one tuple of string keys and whose
    every field holds only strings, only ints or only finite floats; None for
    any other list.

    Each field is rendered as one column, and each record fills one template.
    """
    if not (records and type(records[0]) is dict and records[0]):
        return None
    keys = tuple(records[0])
    if not (all(type(key) is str for key in keys)
            and all(type(record) is dict and tuple(record) == keys for record in records)):
        return None
    columns = []
    for key in keys:
        column = [record[key] for record in records]
        kinds = set(map(type, column))
        if kinds == {str}:
            columns.append(map(encode_basestring_ascii, column))
        elif kinds == {int} or kinds == {float} and all(map(math.isfinite, column)):
            columns.append(map(repr, column))
        else:
            return None
    inner, field = pad + " ", pad + "  "
    template = "{\n" + field + (",\n" + field).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys) + f"\n{inner}}}"
    return f"[\n{inner}" + (",\n" + inner).join(map(template.__mod__, zip(*columns))) + f"\n{pad}]"


def _json_text(value, pad: str = ""):
    """The text of ``json.dumps(value, indent=1, default=_default)`` in pieces,
    nested ``len(pad)`` levels deep.

    Dicts with string keys, lists of strings and 1-d float64 arrays are written
    here, an array or list :data:`_JSON_BLOCK` items at a time; lists of like
    records go through :func:`_records_text`; everything else is left to
    ``json.dumps``.  ``json`` writes non-finite floats as ``NaN``/``Infinity``
    where ``repr`` writes ``nan``/``inf``, so an array holding one is left to
    ``json.dumps`` too.
    """
    inner = pad + " "
    if (type(value) is np.ndarray and value.ndim == 1 and value.dtype == np.float64
            and value.size and np.isfinite(value).all()):
        join = _join_floats
    elif type(value) is list and set(map(type, value)) == {str}:
        join = _join_strings
    elif type(value) is dict and value and all(type(key) is str for key in value):
        sep = "{\n" + inner
        for key, item in value.items():
            yield f"{sep}{encode_basestring_ascii(key)}: "
            yield from _json_text(item, inner)
            sep = ",\n" + inner
        yield f"\n{pad}}}"
        return
    else:
        text = _records_text(value, pad) if type(value) is list else None
        yield text or json.dumps(value, indent=1, default=_default).replace("\n", "\n" + pad)
        return
    sep = ",\n" + inner
    for start in range(0, len(value), _JSON_BLOCK):
        yield (sep if start else "[\n" + inner) + join(sep, value[start:start + _JSON_BLOCK])
    yield f"\n{pad}]"


def _check_outputs(args) -> None:
    """Refuse output paths that name one file, a directory or a file in a missing directory."""
    if os.path.realpath(args.out) == os.path.realpath(args.curves):  # the CSV would replace it
        raise ConfigError(f"--out and --curves name the same file {args.curves!r}")
    for path in (args.out, args.curves):
        if os.path.isdir(path):  # the commit would move it aside
            raise ConfigError(f"cannot write output file {path!r}: Is a directory")
        if not os.path.exists(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"cannot write output file {path!r}: No such file or directory")


def _write_outputs(args, payload: dict, header: list[str], columns: list[list[str]]) -> None:
    """Write ``payload`` as JSON to ``args.out`` and the CSV of the equal-length
    text ``columns`` (one line per row) to ``args.curves``: both or neither.

    Each text goes to ``new`` in a private ``.cdfdr-*`` stage directory beside
    its target, as :func:`_json_text` yields it, so it is never held whole.
    Once both are written, each existing target is renamed into its stage as
    ``old``, and ``new`` onto the freed name.  Nothing is renamed onto an
    existing name: on ext4 that writes the new file to disk at once, and the
    next run waits to free its blocks.  Any failure renames everything back.
    Each name is absent for a moment, and nothing is flushed to disk.
    """
    outputs = [(args.out, chain(_json_text(payload), "\n")),
               (args.curves, ["\n".join([",".join(header), *map(",".join, zip(*columns)), ""])])]
    stages: list[str] = []
    undo: list[tuple[str, str]] = []
    try:
        for path, pieces in outputs:
            stages.append(tempfile.mkdtemp(prefix=".cdfdr-", dir=os.path.dirname(os.path.abspath(path))))
            with open(os.path.join(stages[-1], "new"), "w", newline="") as handle:
                handle.writelines(pieces)
        _check_outputs(args)  # again, so a directory made meanwhile is never moved aside
        for stage, (path, _) in zip(stages, outputs):
            moves = [(path, os.path.join(stage, "old"))] if os.path.lexists(path) else []
            for src, dst in moves + [(os.path.join(stage, "new"), path)]:
                os.rename(src, dst)
                undo.append((dst, src))
    except BaseException as exc:
        for src, dst in reversed(undo):
            os.rename(src, dst)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output file {path!r}: {exc.strerror}") from exc
        raise
    finally:
        for stage in stages:
            shutil.rmtree(stage)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def read_input_table(path: str, column: str) -> tuple[list[str], np.ndarray]:
    """Read the id (optional) and value columns from a headered CSV.

    Every value must parse as a finite number; p-values must lie in [0, 1].
    Violations raise :class:`InputError` citing the data row number, and a file
    that is not UTF-8 or not parseable as CSV raises one naming the file.
    """
    if column not in ("stat", "pvalue"):
        raise ConfigError(f"column must be 'stat' or 'pvalue', got {column!r}")
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot open input file {path!r}: {exc}") from exc
    with handle:
        # A regular file can be read a second time; a pipe cannot.
        if S_ISREG(os.fstat(handle.fileno()).st_mode):
            with open(path, "rb") as data:
                table = _read_plain(data, column)
            if table is not None:
                return table
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path!r} is empty (header row required)")
            header = [h.strip() for h in header]
            if column not in header:
                raise InputError(
                    f"{path!r} has no {column!r} column (header: {header})"
                )
            return _parse_rows(path, reader, header, column)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"cannot read {path!r} as UTF-8 CSV: {exc}") from exc


# Bytes of a plain file that read_input_table splits at a time.
_PLAIN_CHUNK = 1 << 16


def _plain_text(data: bytes, encoding: str = "utf-8") -> str | None:
    """``data`` decoded, with CRLF line ends as LF; None unless it is UTF-8
    with no quote, NUL, lone carriage return or empty line."""
    if b'"' in data or b"\0" in data:
        return None
    if b"\r" in data:
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    newline = np.frombuffer(data, np.uint8) == ord("\n")
    if newline[:1].any() or (newline[1:] & newline[:-1]).any():
        return None
    try:
        return data.decode(encoding)
    except UnicodeDecodeError:
        return None


def _plain_chunks(handle):
    """The rest of the binary ``handle``, about _PLAIN_CHUNK bytes of whole
    lines at a time, each as :func:`_plain_text` gives it."""
    rest = b""
    while data := handle.read(_PLAIN_CHUNK):
        data = rest + data
        cut = data.rfind(b"\n") + 1
        if cut:
            yield _plain_text(data[:cut])
        rest = data[cut:]
    if rest:  # a last line with no line break
        yield _plain_text(rest + b"\n")


def _plain_cells(text: str, width: int) -> list[str] | None:
    """The cells of ``text``'s lines, each line's followed by a NUL cell, if
    every line has ``width`` fields none longer than csv's field limit."""
    lines = text.count("\n")
    cells = text.replace("\n", ",\0,").split(",")[:-1]
    if len(cells) != lines * (width + 1) or cells[width::width + 1] != ["\0"] * lines:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, cells)) > limit:
        return None
    return cells


def _read_plain(handle, column: str) -> tuple[list[str], np.ndarray] | None:
    """read_input_table's result for a plain file read from the binary
    ``handle``, None for any other.

    A plain file is UTF-8 with no quote, NUL, lone carriage return or empty
    line, each of whose lines has the header's field count and a finite
    value (in [0, 1] for p-values).  A first pass checks all but the last two
    with C-speed scans, so a file that fails them is left to the csv reader
    before any splitting.  The second pass splits _PLAIN_CHUNK bytes of lines
    at a time by one ``str.split`` and parses their values by one
    ``np.array(..., dtype=float)``, which calls ``float`` on each cell.  Any
    line it cannot take returns None, so that the csv path reads the file and
    gives every error message.
    """
    first = _plain_text(handle.readline(), "utf-8-sig")
    if not first or first[-1] != "\n" or len(first) > csv.field_size_limit():
        return None
    header = [h.strip() for h in first[:-1].split(",")]
    if column not in header:
        return None
    start = handle.tell()
    if any(text is None for text in _plain_chunks(handle)):
        return None
    handle.seek(start)
    width = len(header) + 1  # cells to a line, with its NUL
    value_idx = header.index(column)
    id_idx = header.index("id") if "id" in header else None
    ids: list[str] = []
    values: list[np.ndarray] = []
    for text in _plain_chunks(handle):
        cells = _plain_cells(text, width - 1)
        if cells is None:
            return None
        try:
            chunk = np.array(cells[value_idx::width], dtype=float)
        except ValueError:  # a blank or non-numeric value
            return None
        if not np.isfinite(chunk).all() or (
                column == "pvalue" and not ((chunk >= 0.0) & (chunk <= 1.0)).all()):
            return None
        ids += (map(str.strip, cells[id_idx::width]) if id_idx is not None
                else map(str, range(len(ids) + 1, len(ids) + chunk.size + 1)))
        values.append(chunk)
    return (ids, np.concatenate(values)) if ids else None


def _parse_rows(path: str, rows, header: list[str], column: str) -> tuple[list[str], np.ndarray]:
    """Ids and values of the data ``rows`` (lists of cells) below ``header``.

    A blank row is skipped but keeps its row number; the first bad row raises.
    """
    width = len(header)
    value_idx = header.index(column)
    id_idx = header.index("id") if "id" in header else None
    check_range = column == "pvalue"
    ids: list[str] = []
    values: list[float] = []
    for row_number, row in enumerate(rows, start=1):
        # Only a row of the wrong width or with an empty value can be blank.
        if len(row) != width or not (cell := row[value_idx].strip()):
            if not any(map(str.strip, row)):
                continue
            if len(row) != width:
                raise InputError(f"row {row_number}: expected {width} fields, got {len(row)}")
            raise InputError(f"row {row_number}: missing {column} value")
        try:
            value = float(cell)
        except ValueError:
            raise InputError(f"row {row_number}: {column} value {cell!r} is not a number")
        if not math.isfinite(value):
            raise InputError(f"row {row_number}: {column} value {cell!r} is not finite")
        if check_range and not 0.0 <= value <= 1.0:
            raise InputError(f"row {row_number}: p-value {value!r} outside [0, 1]")
        ids.append(row[id_idx].strip() if id_idx is not None else str(row_number))
        values.append(value)
    if not values:
        raise InputError(f"{path!r} contains a header but no data rows")
    return ids, np.array(values)


def parse_null_spec(text: str) -> NullSpec:
    """Parse ``std-normal``, ``normal:MU,SIGMA``, or ``t:DF``."""
    if text == "std-normal":
        return NullSpec.standard_normal()
    if text.startswith("normal:"):
        parts = text[len("normal:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(f"expected normal:MU,SIGMA, got {text!r}")
        try:
            mu, sigma = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"non-numeric null parameters in {text!r}")
        return NullSpec.normal(mu, sigma)
    if text.startswith("t:"):
        try:
            df = float(text[len("t:"):])
        except ValueError:
            raise ConfigError(f"non-numeric degrees of freedom in {text!r}")
        return NullSpec.student_t(df)
    raise ConfigError(
        f"unknown null spec {text!r} (use std-normal, normal:MU,SIGMA, or t:DF)"
    )


# ---------------------------------------------------------------------------
# fdr subcommand
# ---------------------------------------------------------------------------

def _prepare_model(args) -> tuple[list[str], CdfrModel]:
    """Shared ingestion + fitting for the fdr and pi0 subcommands."""
    if args.column == "pvalue" and (args.df is not None or args.null != "std-normal"):
        raise ConfigError("--null and --df apply to --column stat only")
    if args.df is not None and args.null.startswith("t:"):
        raise ConfigError("--df converts t statistics to z; it cannot go with a t: null")
    ids, values = read_input_table(args.input, args.column)
    mode = args.transform.replace("-", "_")
    if args.column == "pvalue":
        null_spec, data = NullSpec.precomputed(), values
    else:
        null_spec = parse_null_spec(args.null)
        data = t_to_z(values, args.df) if args.df is not None else values
    model = fit_cdfdr(
        data, null_spec, mode=mode,
        m_density=args.m_density, m_mdc=args.m_mdc, grid_step=args.lambda_step,
    )
    return ids, model


def _curve_columns(model: CdfrModel) -> list[list[str]]:
    """Text of the t, u, v, d_hat, fdr curves on the 401-point evaluation grid."""
    if model.stats is not None:
        t_grid = np.linspace(float(np.min(model.stats)), float(np.max(model.stats)), 401)
        t_text = _float_text(t_grid)
    else:
        t_grid = np.linspace(0.0, 1.0, 403)[1:-1]
        t_text = [""] * t_grid.size
    grid = evaluate(model, t_grid)
    return [t_text] + [_float_text(column) for column in (grid.u, grid.v, grid.d, grid.fdr)]


def _config_echo(args, keys: list[str]) -> dict:
    return {key: getattr(args, key.replace("-", "_")) for key in keys}


def cmd_fdr(args) -> int:
    ids, model = _prepare_model(args)
    fit = model.beta_fit
    coeffs = model.cd_model.coeffs
    path = model.deviance_path
    fitted = model.fitted
    report_stats = fitted.u if model.stats is None else model.stats
    disc = discoveries(model, report_stats, args.fdr_threshold)
    hits = disc.indices
    diag_f1 = None if model.pi0 >= 1.0 else integrate_nonnull_density(model)
    report = {
        # The input's base name, so the bytes do not depend on its directory.
        "config": {"input": os.path.basename(args.input), **_config_echo(args, [
            "column", "null", "transform", "df",
            "m_density", "m_mdc", "lambda_step", "fdr_threshold",
        ])},
        "n": fit.n,
        "beta_fit": {
            "alpha": fit.alpha,
            "beta": fit.beta,
            "log_likelihood": fit.log_likelihood,
            "n": fit.n,
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
        "coefficients": {
            "m": coeffs.m,
            "theta_tilde": coeffs.theta_tilde,
            "theta_hat": coeffs.theta_hat,
            "threshold": coeffs.threshold,
            "selected": coeffs.selected(),
        },
        "pi0": {
            "lambda_star": path.lambda_star,
            "pi0_hat": path.pi0_hat,
            "flat_path": path.flat,
            "n_missing": int(np.sum(path.n_lambda == 0)),
        },
        "discoveries": {
            "threshold": disc.threshold,
            "n_discoveries": disc.n_discoveries,
            "n_left": disc.n_left,
            "n_right": disc.n_right,
            "indices": disc.indices,
            "cases": [
                {"index": i, "id": ids[i], "stat": stat, "pvalue": pvalue, "fdr": case_fdr}
                for i, stat, pvalue, case_fdr in zip(
                    hits, report_stats[hits].tolist(), fitted.u[hits].tolist(),
                    fitted.fdr[hits].tolist())
            ],
        },
        "cases": {
            "id": ids,
            "pvalue": fitted.u,
            "d_hat": fitted.d,
            "fdr": fitted.fdr,
        },
        "diagnostics": {
            "floor_hits": int(np.count_nonzero(fitted.d == DEFAULT_FLOOR)),
            "integral_f1": diag_f1,
        },
    }
    _write_outputs(args, report, ["t", "u", "v", "d_hat", "fdr"], _curve_columns(model))
    return 0


def cmd_pi0(args) -> int:
    _, model = _prepare_model(args)
    path = model.deviance_path
    keep = path.n_lambda > 0
    columns = [_float_text(path.lambdas[keep]), _float_text(path.deviances[keep]),
               list(map(str, path.n_lambda[keep].tolist()))]
    _write_outputs(args, {"lambda_star": path.lambda_star, "pi0_hat": path.pi0_hat},
                   ["lambda", "D_lambda", "n_lambda"], columns)
    return 0


def cmd_simulate(args) -> int:
    config = EstimatorConfig(
        m_density=args.m_density, m_mdc=args.m_mdc, grid_step=args.lambda_step,
    )
    if args.design == "mixnorm":
        if args.mu is None:
            raise ConfigError("--design mixnorm requires --mu")
        design = MixtureNormalDesign(
            mu=args.mu, n=args.n, n_null=args.n_null,
            replicates=args.replicates, seed=args.seed,
            mu_redraw="once" if args.mu_redraw == "once" else "per_replicate",
        )
    else:
        if args.pi0 is None or args.a is None:
            raise ConfigError("--design mixunif requires --pi0 and --a")
        design = MixtureUniformDesign(
            pi0=args.pi0, a=args.a, n=args.n,
            replicates=args.replicates, seed=args.seed,
        )
    report = run_replicates(design, config)
    curves = {key: getattr(report, key) for key in ("grid", "true_fdr", "mean_fdr", "sd_fdr")}
    payload = {
        "design": _config_echo(args, [
            "design", "mu", "pi0", "a", "n", "n_null",
            "replicates", "seed", "mu_redraw",
        ]),
        "estimator": {
            "m_density": config.m_density,
            "m_mdc": config.m_mdc,
            "grid_step": config.grid_step,
        },
        **curves,
        "mise": report.mise,
        "tail_mise": report.tail_mise,
        "pi0_estimates": report.pi0_estimates,
        "n_replicates": report.n_replicates,
        "failed_replicates": report.failed_replicates,
    }
    _write_outputs(args, payload, list(curves), list(map(_float_text, curves.values())))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV file with a header row")
    parser.add_argument("--column", choices=["stat", "pvalue"], required=True,
                        help="which column to analyze")
    parser.add_argument("--null", default="std-normal",
                        help="null model: std-normal | normal:MU,SIGMA | t:DF")
    parser.add_argument("--transform", choices=["pit", "two-sided"], default="pit",
                        help="statistic-to-p-value transform")
    parser.add_argument("--df", type=float, default=None,
                        help="convert input t statistics to z scale with this df first")
    _add_tuning_flags(parser)


def _add_tuning_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m-density", type=int, default=EstimatorConfig.m_density,
                        dest="m_density", help="series length for the density estimate")
    parser.add_argument("--m-mdc", type=int, default=EstimatorConfig.m_mdc, dest="m_mdc",
                        help="series length for the deviance scan")
    parser.add_argument("--lambda-step", type=float, default=EstimatorConfig.grid_step,
                        dest="lambda_step", help="grid step of the deviance scan over [1, 3.5]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfdr",
        description="Local false discovery rate estimation via comparison density",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fdr = sub.add_parser("fdr", help="fit the model and report discoveries")
    _add_input_flags(p_fdr)
    p_fdr.add_argument("--fdr-threshold", type=float, default=0.2, dest="fdr_threshold",
                       help="discovery threshold on the estimated fdr")
    p_fdr.add_argument("--out", required=True, help="output JSON report path")
    p_fdr.add_argument("--curves", required=True, help="output curves CSV path")
    p_fdr.set_defaults(func=cmd_fdr)

    p_pi0 = sub.add_parser("pi0", help="estimate the true-null proportion only")
    _add_input_flags(p_pi0)
    p_pi0.add_argument("--out", required=True, help="output JSON path")
    p_pi0.add_argument("--curves", required=True, help="output deviance-path CSV path")
    p_pi0.set_defaults(func=cmd_pi0)

    p_sim = sub.add_parser("simulate", help="run a seeded replicate study")
    p_sim.add_argument("--design", choices=["mixnorm", "mixunif"], required=True)
    p_sim.add_argument("--mu", type=float, default=None, help="signal mean (mixnorm)")
    p_sim.add_argument("--pi0", type=float, default=None, help="null proportion (mixunif)")
    p_sim.add_argument("--a", type=float, default=None, help="signal interval length (mixunif)")
    p_sim.add_argument("--n", type=int, default=5000, help="cases per replicate")
    p_sim.add_argument("--n-null", type=int, default=4500, dest="n_null",
                       help="null cases per replicate (mixnorm)")
    p_sim.add_argument("--replicates", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mu-redraw", choices=["once", "per-rep"], default="once",
                       dest="mu_redraw", help="draw non-null means once or per replicate")
    _add_tuning_flags(p_sim)
    p_sim.add_argument("--out", required=True, help="output JSON report path")
    p_sim.add_argument("--curves", required=True, help="output curves CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as the CLI prints its errors: its message, without source location."""
    print(f"cdfdr: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            _check_outputs(args)
            return args.func(args)
        except _INPUT_ERRORS as exc:
            print(f"cdfdr: input error: {exc}", file=sys.stderr)
            return 2
        except CdfdrError as exc:
            print(f"cdfdr: numerical failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
