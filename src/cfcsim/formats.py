"""On-disk formats: CSV schemas and the run summary record.

Every float is written as its ``repr``, the shortest decimal that
round-trips exactly, and files are UTF-8 with ``\\n`` line endings
whatever the locale, so that reruns with the same seed are
byte-identical on any platform.

The table writers send each block of a column by its kind.  Integers
go to a numpy kernel (:func:`_int_cells`) that writes one band per
decimal place.  Floats are deduplicated by one sort; at most
``_REPR_MAX`` distinct ones are written with ``repr`` (through ``str``),
more go to a numpy kernel (:func:`_float_cells`) that finds the same
digits with the Schubfach algorithm and writes each character of
``repr``'s layout into a fixed band, checked against ``repr`` on every
power of two and of ten, the subnormals, random bit patterns and a block
of every binade.  Its 126-bit multiplier and shift follow from each
value's binary exponent; when all the values of a block share one
(biased) exponent and none is a power of two, as in most blocks of a
sorted time column, the kernel takes them once, as numpy scalars, for
the whole block.  Such blocks hold 82% of the values the kernel formats
in the benchmark's ``staircase`` workload, 84% in ``roundtrip`` and 36%
in ``neuron``.  One product per value gives its digits and both ends of
its rounding interval, and its 17 digits split by levels
(:func:`_digits`), all the groups of a level in one step.  Text and
booleans are deduplicated the same way and written with ``str``.
Tables are written in blocks of at most ``core._BLOCK`` rows, cut from
the columns as they come (:func:`core._spans`): each column's block
becomes a band matrix, one value a column and NUL where a value has no
character; the matrices are copied, each transposed, into their slots of
one row buffer, between ``,`` and ``\\n`` bytes written in place, and
the rows are written without the NULs, by ``bytes.replace`` where they
are few (below ``_REPLACE_MAX_NUL``) and by a boolean compress where
they are many.  The working memory is one block, about 1.05 MB for an
events or recon table (traced peak), whatever the table's length.

An events file has one line rule and one field rule: lines end at
``\\n``, ``\\r\\n`` or ``\\r``, and each field is stripped with
``str.strip`` before it is parsed.  A regular file not named as
compressed is parsed by ``np.loadtxt`` from its path, which applies the
same rules.  Any other input, a pipe too, and a file that route refuses,
is read once, row by row, in Python, which stops at the first fault.

Schemas:
    events  ``t_req_s,channel,sf``            sf: 0 = low, 1 = high
    trace   ``t_s,v_low_V,v_high_V,phase,selected``
            phase: ``integrating``, ``request_pending`` or ``reset_pulse``
    recon   ``t_s,i_A,range``
    signal  ``t_s,i_A``                       ground-truth currents
    spikes  ``t_s``
    sweep   ``level_A,i_decoded_A,n_events``  empty decode = no measurement
    comparison  ``t_s,i_model_A,i_decoded_A,rel_err,flag``
                flag: ``ok``, ``below_floor`` or ``above_valid``, judged
                by the preset that builds the table
    fit     flat ``key=value`` lines
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from pathlib import Path
from typing import Union

import numpy as np

from .core import _spans
from .decoder import ExponentialFit, ReconstructedSignal, SweepPoint
from .simulator import EventStream, StateTrace
from .stimulus import CurrentSignal, SpikeTrain

EVENTS_HEADER = "t_req_s,channel,sf"
TRACE_HEADER = "t_s,v_low_V,v_high_V,phase,selected"
RECON_HEADER = "t_s,i_A,range"
SIGNAL_HEADER = "t_s,i_A"
SPIKES_HEADER = "t_s"
SWEEP_HEADER = "level_A,i_decoded_A,n_events"
COMPARISON_HEADER = "t_s,i_model_A,i_decoded_A,rel_err,flag"

class CsvFormatError(ValueError):
    """A CSV file does not match its documented schema."""


def _write_table(path: Union[str, Path], header: str, blocks) -> Path:
    """Write CSV rows under ``header`` from an iterable of tuples of
    equal-length columns, whose rows follow on from tuple to tuple.

    A column is a numpy array of floats, integers, booleans or ``<U``
    text; each cell is the UTF-8 text of ``str`` of its value, which for
    a float is its shortest round-tripping ``repr``.
    Each tuple is cut into blocks of at most ``core._BLOCK`` rows
    (:func:`core._spans`), and rows are formatted one block at a time, so
    memory is bounded by one block, and by the largest tuple, rather than
    by the table.  A row's bytes do not depend on which block holds it.
    The band matrices of the columns
    (:func:`_block_cells`: integers by :func:`_int_cells`, floats by
    :func:`_float_cells` or by ``str`` after dedupe, text and booleans
    by ``str`` after dedupe) are each copied once, transposed, into their
    slots of one ``(rows, width)`` buffer, each followed by a ``,`` byte
    (``\\n`` for the last), and the rows are written without the NULs,
    half a block at a time.  A half with a share of NULs below
    ``_REPLACE_MAX_NUL`` drops them with ``bytes.replace``, whose cost
    grows with their count, any other with a boolean compress, whose cost
    does not.  A text cell must therefore hold no NUL.
    """
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for block in blocks:
            for lo, hi in _spans(len(block[0])):
                cells = [_block_cells(column[lo:hi]) for column in block]
                rows = np.empty((hi - lo, sum(len(c) + 1 for c in cells)), dtype=np.uint8)
                at = 0
                for c in cells:
                    rows[:, at:at + len(c)] = c.T
                    rows[:, at + len(c)] = ord(",")
                    at += len(c) + 1
                rows[:, -1] = ord("\n")
                del cells, c  # free the column bands before the copies below
                for half in np.array_split(rows, 2):  # the copies of half a block at a time
                    if half.size - np.count_nonzero(half) < _REPLACE_MAX_NUL * half.size:
                        fh.write(half.tobytes().replace(b"\0", b""))
                    else:
                        fh.write(half[half != 0])
                del rows, half
    return path


#: Below this share of NULs a half block drops them with ``bytes.replace``,
#: at or above it with a boolean compress.  On the 386 row halves the
#: benchmark's workloads write, ``replace`` and the count of NULs cost
#: about 0.2 ns a byte and 17 ns per NUL, the compress 0.7 to 1.7 ns a
#: byte however many it drops, and the two break even at 5-6% NUL (timeit
#: on a 2-vCPU x86_64 VM).  Events and recon blocks hold about 2%; the
#: blocks of a ground-truth signal, whose times step by round amounts
#: from 0, 15-30%.
_REPLACE_MAX_NUL = 0.05


#: At most this many distinct floats are written with ``repr``, more with
#: :func:`_float_cells`, whose few hundred numpy calls cost as much as
#: ``repr`` on 300 to 400 values (timeit on a 2-vCPU x86_64 VM).  Text and
#: booleans always go to ``str``, integers never.
_REPR_MAX = 300


def _block_cells(block) -> np.ndarray:
    """The cell texts of one block of a column (see :func:`_write_table`)
    as a ``(width, rows)`` uint8 matrix of UTF-8 bytes: each cell is a
    column, and its characters lie in the bands in order, with NULs
    between or after them.

    The block holds floats of at most 64 bits, integers, booleans or
    ``<U`` text.  Integers go straight to :func:`_int_cells`, whose cost
    does not depend on how many values repeat.  Of the other kinds each
    distinct value is formatted once by :func:`_cells`, keyed by its
    bytes (so ``0.0`` and ``-0.0`` stay apart), and its column is
    repeated for every cell that holds it.  The keys are deduplicated by
    one sort: the distinct ones are those that differ from the key before
    them, and each cell finds its own among them by binary search.  A
    block whose cells are all distinct, a strictly increasing one without
    the sort, is formatted in order.
    """
    if block.dtype.kind in "iu":
        return _int_cells(block)
    key = block
    if block.dtype.kind == "f":
        block = block.astype(np.float64, copy=False)
        key = block.view(np.uint64)
    if (block[1:] > block[:-1]).all():
        return _cells(block)
    ordered = np.sort(key)
    new = np.empty(ordered.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if new.all():
        return _cells(block)
    distinct = ordered[new]
    return _cells(distinct.view(block.dtype))[:, np.searchsorted(distinct, key)]


def _cells(values) -> np.ndarray:
    """:func:`_float_cells` of more than ``_REPR_MAX`` floats, else
    ``str`` of each float, text or boolean, which is ``repr`` for a
    float; integers never come here."""
    return _float_cells(values) if values.dtype == np.float64 and values.size > _REPR_MAX else _str_cells(values)


def _str_cells(values) -> np.ndarray:
    """The UTF-8 text of ``str`` of each value, one band per character."""
    texts = np.array([str(x).encode() for x in values.tolist()], dtype=bytes)
    return texts.view(np.uint8).reshape(texts.size, texts.itemsize).T


# Shortest round-trip text of float64 values, as ``repr`` writes it.
#
# The digits come from the Schubfach algorithm (R. Giulietti, "The
# Schubfach way to render doubles", 2020), as in Java's ``DoubleToDecimal``
# but with no two-digit minimum: a finite, nonzero double v = c * 2**q
# lies in a rounding interval R; among the decimals s * 10**k and
# (s + 1) * 10**k that bracket v, and the one-digit-shorter multiples of
# 10**(k + 1), the shortest in R is taken, the closer to v of two, the
# even one on a tie.  The scaled values 4 * v / 10**k and the interval's
# ends are ``rop`` (x * g / 2**127 rounded to odd) of x and x +- 2**w:
# one 64 x 126-bit product, on 32-bit limbs in uint64 arrays, gives x's,
# and g shifted by w, with one carry or borrow, moves it to the ends'.

_M32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_M63 = np.uint64(2**63 - 1)
_POS_INF = np.uint64(0x7FF << 52)
_ONE = np.uint64(0x3FF << 52)  # 1.0, which stands in for the values the digits do not cover
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of the multipliers
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
#: the characters of the values that have no digits, 0.0, inf and nan, in the places of "1.0"
_SPECIAL = np.array([list(b"0.0"), list(b"inf"), list(b"nan")], dtype=np.uint8)
_DIGIT_RANK = np.arange(1, 18, dtype=np.uint8)[:, None]  # digit m of 17 is the (m + 1)-th
_RANK = np.arange(17, dtype=np.int16)[:, None]  # the index m of each digit
_C = {c: np.uint8(ord(c)) for c in "-+0.e"}


@functools.cache
def _multipliers() -> tuple[np.ndarray, ...]:
    """For each k in [_K_MIN, _K_MAX], g = floor(10**-k * 2**(125 - r)) + 1
    with r = floor(log2(10**-k)), a 126-bit integer in (2**125, 2**126),
    as its 63-bit halves g1 = g >> 63 and g0 = g mod 2**63, and r + 2.
    Built once, with Python integers."""
    g1, g0, r2 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 1
            g = (p << 125 - r if r <= 125 else p >> r - 125) + 1
        else:
            p = 10**k  # never a power of two, so r = -bit_length
            r = -p.bit_length()
            g = (1 << 125 - r) // p + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
        r2.append(r + 2)
    tables = np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64), np.array(r2, dtype=np.int64)
    for t in tables:
        t.flags.writeable = False
    return tables


def _mul_high(x0, x1, gh, gl):
    """floor(x * g / 2**64) for x < 2**60 given as its 32-bit limbs
    (x0 low, x1 high) and g < 2**63 as (gh, gl); no sum overflows."""
    return ((gl * x0 >> _32) + gl * x1 + gh * x0 >> _32) + gh * x1


def _rop_moved(hi, z, lo, g1, g0, w, up):
    """``rop`` of x + 2**w (``up``) or of x - 2**w, for 0 < w < 64, from
    x's F = hi * 2**63 + z and ``lo`` (see :func:`_shortest`).  Up, F
    gains A = floor(g * 2**w / 2**64) = g1 * 2**(w - 1) + (g0 >> 64 - w),
    split as a1 * 2**63 + a0, and the carry out of lo + (g0 << w mod 2**64).
    Down, it loses A and the borrow of lo - (g0 << w mod 2**64), taken as
    F + ~A + 1 - borrow, ~A the 127-bit complement of A.  The moved z
    stays below 2**64, and its bit 63 carries into hi.  The borrow moves the
    lower end of 147,574 doubles in [2**105, 2**106), and the text of 14,758."""
    t = np.uint8(64) - w
    a0 = g1 << w - np.uint8(1)
    a0 |= g0 >> t
    a0 &= _M63
    if up:
        carry = lo > ~(g0 << w)
    else:
        a0 ^= _M63
        carry = lo >= g0 << w
    z = z + a0
    z += carry
    del a0, carry
    vb = z >> np.uint64(63)
    vb += hi
    vb += g1 >> t if up else ~(g1 >> t)
    z &= _M63
    vb |= z != 0
    return vb


def _shortest(bits):
    """The shortest decimal f * 10**k that reads back as each finite,
    nonzero double (given as its bits): f < 10**17 as uint64 and k as
    int16.

    When all the doubles share one biased exponent and none is a power
    of two, the exponent is taken as one numpy scalar, and so are k, the
    multiplier, the shift and the interval's half-width that follow from
    it: the same lines then run on them by broadcasting, and k is 0-d.
    Otherwise each value has its own.  Columns are updated in place (an
    augmented assignment rebinds a scalar) and dropped once used, so
    that few columns of the block are alive at a time.
    """
    q = (bits >> np.uint64(52)).astype(np.int64)
    q &= 0x7FF  # the biased exponent
    c = bits & np.uint64(2**52 - 1)
    del bits
    irregular = (c == 0) & (q > 1)  # a power of two: the double below is half as far as the one above
    if not irregular.any() and (q == q[0]).all():
        q, irregular = q[0], np.False_  # one binade: one multiplier and one shift for the block
    c |= (q != 0) * np.uint64(2**52)
    q = np.maximum(q, 1)
    q -= 1075  # v = c * 2**q
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular (Java's MathUtils)
    k = q * 661_971_961_083
    k -= irregular * 274_743_187_321
    k >>= 41
    k -= _K_MIN
    g1, g0, h = (t[k] for t in _multipliers())
    k = (k + _K_MIN).astype(np.int16)
    h += q
    del q
    h = h.astype(np.uint8)
    x = c << h + np.uint8(2)  # 4 * c, scaled so that x * g / 2**127 is near 4 * v / 10**k
    odd = (c & np.uint64(1)) != 0  # R excludes its ends when c is odd
    del c
    # rop reads x * g, g = g1 * 2**63 + g0, as F = floor(x * g1 / 2) + floor(x * g0 / 2**64),
    # kept as hi * 2**63 + z with z < 2**63: rop(x) is hi, its lowest bit set if z is not 0;
    # lo, the low word of x * g0, gives the ends their carry or borrow
    x0, x1 = x & _M32, x >> _32
    z = x * g1
    z >>= np.uint64(1)
    z += _mul_high(x0, x1, g0 >> _32, g0 & _M32)
    hi = _mul_high(x0, x1, g1 >> _32, g1 & _M32)
    hi += z >> np.uint64(63)
    z &= _M63
    lo = x * g0
    del x, x0, x1
    w = h + np.uint8(1)  # R's half-width is 2**w, its upper half-width when irregular
    del h
    vb = hi | (z != 0)
    vbr = _rop_moved(hi, z, lo, g1, g0, w, up=True)
    vbl = _rop_moved(hi, z, lo, g1, g0, w - irregular, up=False)
    del hi, z, lo, g1, g0, w
    vbl += odd
    vbr -= odd
    s = vb >> np.uint64(2)
    # the one-digit-shorter candidates: at most one lies in R
    sp10 = s // np.uint64(10)
    sp10 *= np.uint64(10)
    upin = vbl <= sp10 << np.uint64(2)
    wpin = sp10 + np.uint64(10) << np.uint64(2) <= vbr
    shorter = (upin != wpin) & (s >= np.uint64(10))
    del upin
    # s or s + 1: the one in R, else the closer to v, else the even one
    uin = vbl <= s << np.uint64(2)
    win = s + np.uint64(1) << np.uint64(2) <= vbr
    del vbl, vbr
    vb += s & np.uint64(1)
    up = np.where(uin == win, vb > (s << np.uint64(2)) + np.uint64(2), win)
    del vb
    s += up
    sp10 += wpin * np.uint64(10)
    return np.where(shorter, sp10, s), k


def _digits(f):
    """The 17 decimal digits of each f < 10**17 (uint64), the highest first,
    as a ``(17, n)`` uint8 matrix.  f splits by levels, all the groups of a
    level by one ``//``, one multiply and one subtract into the narrowest
    type (where the product wraps, the remainder still fits): the lead
    digit and two 8-digit halves, then quarters, pairs and digits."""
    n = f.size
    digits = np.empty((17, n), dtype=np.uint8)
    head = f // np.uint64(10**8)
    groups = np.empty((2, n), dtype=np.uint32)  # the halves
    np.subtract(f, head * np.uint64(10**8), out=groups[1], casting="unsafe")
    head = head.astype(np.uint32)
    np.floor_divide(head, np.uint32(10**8), out=groups[0])
    digits[0] = groups[0]
    groups[0] *= np.uint32(10**8)
    np.subtract(head, groups[0], out=groups[0])
    for p, parts in ((np.uint16(10**4), np.empty((2, 2, n), dtype=np.uint16)),
                     (np.uint8(100), np.empty((2, 2, 2, n), dtype=np.uint8)),
                     (np.uint8(10), digits[1:].reshape(2, 2, 2, 2, n))):
        high, low = parts[..., 0, :], parts[..., 1, :]
        np.floor_divide(groups, p, out=high, casting="unsafe")
        np.multiply(high, p, out=low)
        np.subtract(groups, low, out=low, casting="unsafe")
        groups = parts
    return digits


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 as a ``(width, n)`` uint8 band matrix.

    ``repr`` writes the shortest digits d1 d2 ... dn with the decimal point
    after ``decpt`` of them: in fixed notation when -4 < decpt <= 16,
    padded with zeros and given ``.0`` when the value is integral, else
    as d1.d2...dn followed by ``e``, the sign and at least two exponent
    digits.  Each value is a column, and each band holds one place of that
    layout, NUL in the values that do not use it:

        sign | ``0`` | the 17 digits, kept before the point | ``.`` |
        three zeros | the same 17 digits, kept from the point on |
        ``e``, the exponent's sign and its (two or) three digits

    Bands that no value of the block uses are left out.  The values with
    no digits (zeros, infinities and NaNs) are laid out as ``1.0`` with
    their own three characters in its places.  :func:`_digits` splits
    the digits by levels.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    plain = (bits & _M63) - np.uint64(1) < _POS_INF - np.uint64(1)  # finite and nonzero
    neg = (bits >> np.uint64(63)).astype(bool) & (bits & _M63 <= _POS_INF)  # a NaN has no sign
    f, decpt = _shortest(np.where(plain, bits, _ONE))
    size = np.searchsorted(_POW10, f, side="right")
    f *= _POW10[17 - size]  # 17 digits, the shortest ones first
    decpt += size.astype(np.int16)
    del size
    digits = _digits(f)
    del f
    nd = np.max((digits != 0) * _DIGIT_RANK, axis=0).astype(np.int16)  # significant digits
    digits += ord("0")
    sci = (decpt < -3) | (decpt > 16)
    dot = (~sci | (nd > 1)) * _C["."]
    (o,) = np.nonzero(~plain)
    if o.size:  # the places of "1.0": the digit before the point, the point and the digit after it
        mag = bits[o] & _M63
        digits[0, o], dot[o], digits[1, o] = _SPECIAL[np.where(mag > _POS_INF, 2, mag != 0)].T
    point = np.where(sci, 1, np.maximum(decpt, 0))  # the digits before the point
    zeros = np.where(sci, 0, np.maximum(-decpt, 0))  # the zeros after "0."
    # the digits written: all significant ones, and the zeros of an integral fixed value
    keep = np.where(sci | (decpt <= 0), nd, np.maximum(nd, decpt + 1))
    before, after, last, nz = int(point.max()), int(point.min()), int(keep.max()), int(zeros.max())
    bands = [neg * _C["-"]] if neg.any() else []
    if after == 0:
        bands.append((point == 0) * _C["0"])
    rank = _RANK[after:last]
    bands += [digits[:before] * (_RANK[:before] < point), dot, (_RANK[:nz] < zeros) * _C["0"],
              digits[after:last] * ((rank >= point) & (rank < keep))]
    del digits, rank, point, zeros, keep
    if sci.any():
        mag = np.abs(decpt - 1)  # at most 15 in fixed notation
        bands += [sci * _C["e"], sci * np.where(decpt > 0, _C["+"], _C["-"])]
        if mag.max() >= 100:
            bands.append((mag >= 100) * (mag // 100 + ord("0")))
        bands += [sci * (mag // 10 % 10 + ord("0")), sci * (mag % 10 + ord("0"))]
    return np.vstack(bands, dtype=np.uint8, casting="unsafe")


def _int_cells(x: np.ndarray) -> np.ndarray:
    """``str`` of each integer of at most 64 bits as a ``(width, n)`` uint8
    band matrix: a ``-`` band if any value is negative, then one band per
    decimal place of the largest magnitude, the highest first, NUL above
    each value's leading digit.  The digits are peeled off the units
    first with ``//`` by ten, which numpy runs far faster than ``%``, in
    the narrowest unsigned type that holds the largest magnitude."""
    neg = x < 0
    mag = x.astype(np.uint64)
    sign = []
    if neg.any():
        np.negative(mag, out=mag, where=neg)  # modulo 2**64, so int64's minimum becomes 2**63
        sign.append(neg * _C["-"])
    top, digits = mag.max(), []
    mag = mag.astype(np.min_scalar_type(top), copy=False)
    for p in range(len(str(top))):
        rest = mag // 10
        digit = (mag - rest * 10).astype(np.uint8, copy=False) + _C["0"]
        digits.append(digit * (mag != 0) if p else digit)  # mag is 0 above the leading digit
        mag = rest
    return np.vstack(sign + digits[::-1])


def write_events_csv(path: Union[str, Path], events: EventStream) -> Path:
    channel = np.broadcast_to(np.int64(events.channel), len(events))
    return _write_table(path, EVENTS_HEADER, [(events.t_req, channel, events.sf)])


#: One row of an events file as parsed by ``np.loadtxt``.
_EVENTS_DTYPE = np.dtype([("t_req_s", np.float64), ("channel", np.int64), ("sf", np.int64)])


def read_events_csv(path: Union[str, Path]) -> EventStream:
    """Parse an events file; malformed rows name their line number.

    A row is malformed if it does not have three fields, does not parse,
    or has a non-finite time, a channel outside [0, 2**63) or a flag
    other than 0 and 1, or if its channel is not the first row's: a file
    holds one channel.  A file holding only whitespace, or a header
    followed only by blank lines, reads as an empty stream.  Lines end at
    ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines), and each field is
    stripped of the whitespace ``str.strip`` removes before it is parsed.
    No ordering is imposed here; consumers that need sorted input enforce
    it themselves.

    A regular file not named as compressed goes to ``np.loadtxt`` by its
    path (see :func:`_read_plain`), and its columns are checked whole.
    Any other input, a pipe too, and a file that route refuses, is read
    once by :func:`_read_events_rows` with Python's ``float`` and ``int``,
    which also take spellings such as ``1_0``.  The two rules are the
    ones ``np.loadtxt`` applies, so both routes read the same text alike.
    The text is UTF-8: a byte that does not decode names its line.  Of
    several faults the first in the file is named, and nothing after it
    is read, so a live pipe reports a bad line as soon as it arrives.
    """
    path = Path(path)
    # ``loadtxt`` reads a path once more after the header check (a pipe
    # would be used up) and opens a compressed name with a decompressor
    plain = path.is_file() and path.suffix not in _COMPRESSED_SUFFIXES
    events = _read_plain(path) if plain else None
    return _read_events_rows(path) if events is None else events


def _read_plain(path: Path) -> EventStream | None:
    """:func:`read_events_csv` of a regular file by ``np.loadtxt``, or None
    if it lacks the header or a row, does not decode (``UnicodeDecodeError``
    is a ``ValueError``), holds two channels, or ``loadtxt`` or
    :class:`EventStream` refuses it."""
    try:
        with path.open(encoding="utf-8") as fh:  # universal newlines, as ``loadtxt`` reads it
            if fh.readline().strip() != EVENTS_HEADER or not any(map(str.strip, fh)):
                return None  # ``loadtxt`` warns on a file without rows
        rows = np.loadtxt(path, skiprows=1, encoding="utf-8", delimiter=",", comments=None, ndmin=1,
                          dtype=_EVENTS_DTYPE)
        t, ch, sf = (np.ascontiguousarray(rows[name]) for name in _EVENTS_DTYPE.names)
        return EventStream(t, ch[0], sf) if (ch == ch[0]).all() else None
    except ValueError:
        return None


def _read_events_rows(path: Path) -> EventStream:
    """:func:`read_events_csv` in one forward pass, one row at a time, into
    ``array("d")`` and ``array("B")`` as the event kernel fills them.  The
    first fault read, a byte UTF-8 does not decode or a malformed line,
    is raised there, and nothing after it is read."""
    t, sf = array("d"), array("B")
    channel_0 = 0  # the first row's channel; a stream without rows has channel 0
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.isascii():  # ``surrogateescape`` reads a byte UTF-8 does not decode as a lone surrogate
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CsvFormatError(f"{path}: line {ln}: byte {exc.object[exc.start]:#04x} is not UTF-8 "
                                         f"({exc.reason})") from None
            if ln == 1:
                header = line.removesuffix("\n")
                has_header = header.strip() == EVENTS_HEADER
            if not line.strip() or ln == 1 and has_header:
                continue
            if not has_header:  # a line 1 that is not the header, or a blank one above a row
                raise CsvFormatError(f"{path}: line 1: expected header {EVENTS_HEADER!r}, got {header!r}")
            try:
                parts = line.split(",")
                if len(parts) != 3:
                    raise ValueError(f"expected 3 fields, got {len(parts)}")
                # ``float`` and ``int`` do not skip \x1c-\x1f, which ``str.strip`` and ``loadtxt`` do
                time_s, channel, flag = float(parts[0].strip()), int(parts[1].strip()), int(parts[2].strip())
                if not math.isfinite(time_s):
                    raise ValueError(f"t_req_s must be finite, got {parts[0]!r}")
                if channel < 0:
                    raise ValueError(f"channel must be non-negative, got {channel}")
                if channel >= 2**63:
                    raise ValueError(f"channel must be below 2**63, got {channel}")
                if flag not in (0, 1):
                    raise ValueError(f"sf must be 0 or 1, got {flag}")
                if t and channel != channel_0:
                    raise ValueError(f"channel {channel} differs from the first row's channel {channel_0}; "
                                     "an events file holds one channel")
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {ln}: {exc}") from None
            channel_0 = channel
            t.append(time_s)
            sf.append(flag)
    return EventStream(np.frombuffer(t), channel_0, np.frombuffer(sf, dtype=np.uint8))


#: The suffixes for which ``np.loadtxt`` opens a path with a decompressor.
_COMPRESSED_SUFFIXES = frozenset({".bz2", ".gz", ".lzma", ".xz"})


def write_trace_csv(path: Union[str, Path], trace: StateTrace) -> Path:
    # the text of each phase, indexed by its code
    phase = np.array(("integrating", "request_pending", "reset_pulse"))[trace.phase]
    return _write_table(path, TRACE_HEADER, [(trace.t, trace.v_low, trace.v_high, phase, trace.selected)])


def write_recon_csv(path: Union[str, Path], signal: ReconstructedSignal) -> Path:
    return _write_table(path, RECON_HEADER, [(signal.t, signal.i_est, signal.ranges)])


def write_signal_csv(path: Union[str, Path], signal: CurrentSignal) -> Path:
    """Emit a piecewise-linear signal as its segment endpoints.

    Adjacent rows with the same time mark a step discontinuity, which
    external plotting tools render as a vertical edge.  A segment's start
    row is left out where it repeats the previous segment's end row.  The
    rows are built one block of segments (:func:`core._spans`) at a time.
    """
    times, i_start, i_end = signal.times, signal.i_start, signal.i_end

    def rows(lo, hi):
        t = np.column_stack((times[lo:hi], signal._ends(lo, hi))).ravel()
        i = np.column_stack((i_start[lo:hi], i_end[lo:hi])).ravel()
        keep = np.ones(t.size, dtype=bool)
        keep[0] = lo == 0 or i_start[lo] != i_end[lo - 1]
        keep[2::2] = i_start[lo + 1:hi] != i_end[lo:hi - 1]
        return t[keep], i[keep]

    return _write_table(path, SIGNAL_HEADER, (rows(lo, hi) for lo, hi in _spans(times.size)))


def write_spikes_csv(path: Union[str, Path], train: SpikeTrain) -> Path:
    return _write_table(path, SPIKES_HEADER, [(train.times,)])


def write_sweep_csv(path: Union[str, Path], points: list[SweepPoint]) -> Path:
    levels = np.array([p.level for p in points], dtype=np.float64)
    decoded = np.array(["" if p.decoded is None else repr(float(p.decoded)) for p in points], dtype=str)
    n_events = np.array([p.n_events for p in points], dtype=np.int64)
    return _write_table(path, SWEEP_HEADER, [(levels, decoded, n_events)])


def write_comparison_csv(path: Union[str, Path], t, model, decoded, rel, flag) -> Path:
    """Decoded against modelled current on a time grid, with each point's
    relative error and flag as judged by the caller."""
    return _write_table(path, COMPARISON_HEADER, [(t, model, decoded, rel, flag)])


def write_fit_record(path: Union[str, Path], fit: ExponentialFit, extra: dict | None = None) -> Path:
    """Flat key=value record of a fit result."""
    path = Path(path)
    record = {
        "amplitude_A": fit.amplitude,
        "tau_s": fit.tau,
        "baseline_A": fit.baseline,
        "residual_norm_A": fit.residual_norm,
    }
    if extra:
        record.update(extra)
    lines = [f"{key}={float(value)!r}" for key, value in record.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_summary_json(path: Union[str, Path], summary: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    return path
