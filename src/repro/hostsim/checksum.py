"""The Internet one's-complement checksum (RFC 1071), as UDP uses it.

The paper's §4.3.4 experiment hinges on a structural blind spot of this
checksum: it is a *commutative* sum of 16-bit words, so exchanging two
aligned 16-bit words — "swapping bits that are 16 bits apart" — leaves
the checksum unchanged.  That is how "Have a lot of fun" became
"veHa a lot of fun" and still passed.
"""

from __future__ import annotations

import struct


def ones_complement_sum(data: bytes) -> int:
    """16-bit one's-complement sum of ``data`` (odd length zero-padded).

    The big-endian words are summed as plain integers and the end-around
    carries folded in once at the end, which gives the same result as
    folding after every word (RFC 1071 §2): the sum is 0 only when every
    word is 0.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """The transmitted checksum: one's complement of the sum.

    As in real UDP, a computed value of 0x0000 is transmitted as 0xFFFF
    (0x0000 on the wire means "no checksum").
    """
    value = (~ones_complement_sum(data)) & 0xFFFF
    return 0xFFFF if value == 0 else value


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (which embeds its checksum field) verifies.

    A correct checksum makes the one's-complement sum of the whole
    message 0xFFFF.
    """
    return ones_complement_sum(data) == 0xFFFF
