"""Products of int-coefficient Laurent polynomials by Kronecker substitution.

A polynomial is a dict {exponent: int coefficient}, as in qgraph.laurent.  Both
operands are packed into one Python int, a slot of whole bytes per exponent,
and CPython's Karatsuba multiply does the convolution exactly.  Packing and
unpacking convert whole operands at once, through array words, strided byte
copies and map over int.to_bytes / int.from_bytes: no coefficient goes through
a Python loop, so their cost stays small next to the multiply.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from itertools import compress, count, repeat
from operator import add, eq, sub
from typing import Iterable

# A two's complement slot's top byte -> the byte that sign-extends it.
_SIGN_FILL = bytes(128) + b"\xff" * 128
_BIG_ENDIAN = sys.byteorder == "big"


def _dense(p: dict, lo: int, span: int) -> list:
    """p's coefficients of v^lo .. v^(lo+span-1) as a list, 0 where p has no term."""
    if len(p) == span and all(map(eq, p, count(lo))):
        return list(p.values())
    dense = [0] * span
    deque(map(dense.__setitem__, map(sub, p, repeat(lo)), p.values()), 0)
    return dense


def _sparse(dense, lo: int) -> dict:
    """{lo + k: dense[k]} over the nonzero entries of dense, the inverse of _dense."""
    return dict(compress(zip(count(lo), dense), dense))


def _reslot(raw, src: int, dst: int, n: int):
    """n two's complement slots of src bytes each, cut to dst bytes each.

    Narrowing drops high bytes, so every value must fit dst bytes; widening
    fills the new bytes with each slot's sign.  Each byte position is one
    strided copy, so no slot goes through a Python loop.
    """
    if src == dst:
        return raw
    out = bytearray(dst * n)
    for j in range(min(src, dst)):
        out[j::dst] = raw[j::src]
    if dst > src:
        fill = raw[src - 1 :: src].translate(_SIGN_FILL)
        for j in range(src, dst):
            out[j::dst] = fill
    return out


def _word_bytes(dense: list) -> bytes:
    """The ints of dense, each below 2^63 in size, as little-endian 8-byte words."""
    words = array("q", dense)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tobytes()


def _read_words(raw) -> Iterable[int]:
    """The little-endian signed 8-byte words of raw."""
    if _BIG_ENDIAN:
        words = array("q", bytes(raw))
        words.byteswap()
        return words
    return memoryview(raw).cast("q")


def _slot_bias(width: int, n: int) -> int:
    """2^(8*width-1) in each of n slots of width bytes."""
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * n, "little")


def _pack(p: dict[int, int], lo: int, span: int, width: int, small: bool) -> int:
    """Sum of p[lo + k] * 2^(8*width*k), every coefficient below 2^(8*width-1) in size.

    Each slot is written as its coefficient plus the bias 2^(8*width-1), which
    lies in [0, 2^(8*width)), so the slots never carry into each other; the
    packed bias is then taken off once.  A small p, every coefficient below
    2^63, goes through 8-byte words (_word_bytes, _reslot): a two's complement
    slot xor the bias is the biased slot.
    """
    bias = _slot_bias(width, span)
    dense = _dense(p, lo, span)
    if small:
        return (int.from_bytes(_reslot(_word_bytes(dense), 8, width, span), "little") ^ bias) - bias
    slots = map(int.to_bytes, map(add, dense, repeat(1 << 8 * width - 1)), repeat(width), repeat("little"))
    return int.from_bytes(b"".join(slots), "little") - bias


def multiply(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two nonzero int dicts by Kronecker substitution.

    A product coefficient sums at most min(len a, len b) terms, each below
    2^(bitlen max|a| + bitlen max|b|) in size, so with one more bit for the
    sign every coefficient fits its slot of width bytes and the product is
    exact.  Packing and unpacking run on bytes and words (_pack): adding
    the packed bias 2^(8*width-1) per slot to the product makes every slot
    its coefficient plus the bias, and xor with the same bias turns that into
    the coefficient's two's complement.  Slots of at most 8 bytes are read as
    8-byte words after _reslot widens them; wider ones one int.from_bytes
    each.  The words are little-endian, byte-swapped on a big-endian host.
    """
    abits = max(map(abs, a.values())).bit_length()
    bbits = max(map(abs, b.values())).bit_length()
    width = (abits + bbits + min(len(a), len(b)).bit_length() + 1 + 7) // 8
    alo, blo = min(a), min(b)
    aspan, bspan = max(a) - alo + 1, max(b) - blo + 1
    prod = _pack(a, alo, aspan, width, abits < 64) * _pack(b, blo, bspan, width, bbits < 64)
    span = aspan + bspan - 1
    bias = _slot_bias(width, span)
    if width <= 8:
        raw = ((prod + bias) ^ bias).to_bytes(width * span, "little")
        coeffs = _read_words(_reslot(raw, width, 8, span))
    else:
        raw = (prod + bias).to_bytes(width * span, "little")
        size = width * span
        slots = map(raw.__getitem__, map(slice, range(0, size, width), range(width, size + width, width)))
        coeffs = list(map(sub, map(int.from_bytes, slots, repeat("little")), repeat(1 << 8 * width - 1)))
    return _sparse(coeffs, alo + blo)
