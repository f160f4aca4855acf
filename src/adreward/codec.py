"""Canonical tag-length-value codec for transaction arguments and state hashing.

Contract call arguments, private-input envelopes, and the transaction log all
round-trip through these bytes, which is what makes replay-from-genesis and
state hashing bit-exact.

Primitives (None, bool, int, bytes, str, sequences) have their own tags. Every
other value is a record: ``RECORDS`` maps its tag to its dataclass and to one
kind per dataclass field, in declaration order, and both directions walk that
layout. The kinds are ``i`` (unsigned int), ``b`` (blob), ``c`` (an ElGamal
ciphertext written inline as its two ints) and ``v`` (a nested tagged value).
Tag 0x07 is retired: it carried a separate decryption-proof record, and a
payment request's decryption proof is now an ordinary ``DleqProof``. Do not
reuse it, so old logs never decode as another record.
"""

from __future__ import annotations

import dataclasses

from .dkg import PartialDecryption
from .elgamal import Ciphertext
from .hybrid import WrappedKey
from .payments import PaymentNote, SettlementBatch
from .proofs import DleqProof, Signature
from .vrf import VrfOutput

_TAG_NONE = 0x00
_TAG_INT = 0x01
_TAG_BYTES = 0x02
_TAG_STR = 0x03
_TAG_SEQ = 0x04
_TAG_BOOL = 0x0D

RECORDS = {
    0x05: (Ciphertext, "ii"),
    0x06: (Signature, "iii"),
    0x08: (DleqProof, "iiii"),
    0x09: (WrappedKey, "cb"),
    0x0A: (VrfOutput, "iiv"),
    0x0B: (PartialDecryption, "iiv"),
    0x0C: (PaymentNote, "bbii"),
    0x0E: (SettlementBatch, "viiii"),
}


def _int_bytes(value: int) -> bytes:
    if value < 0:
        raise ValueError("codec ints are unsigned")
    length = max(1, (value.bit_length() + 7) // 8)
    return length.to_bytes(2, "big") + value.to_bytes(length, "big")


def _take(data: bytes, pos: int, length: int) -> tuple[bytes, int]:
    """The next ``length`` bytes and the position after them; never reads past the end."""
    end = pos + length
    if end > len(data):
        raise ValueError(f"truncated input: {length} bytes needed at offset {pos}, {len(data) - pos} left")
    return data[pos:end], end


def _read_int(data: bytes, pos: int) -> tuple[int, int]:
    length, pos = _take(data, pos, 2)
    body, pos = _take(data, pos, int.from_bytes(length, "big"))
    return int.from_bytes(body, "big"), pos


def _blob(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _read_blob(data: bytes, pos: int) -> tuple[bytes, int]:
    length, pos = _take(data, pos, 4)
    return _take(data, pos, int.from_bytes(length, "big"))


def _ciphertext_bytes(ct) -> bytes:
    return _int_bytes(ct.c1) + _int_bytes(ct.c2)


def _read_ciphertext(data: bytes, pos: int) -> tuple[Ciphertext, int]:
    c1, pos = _read_int(data, pos)
    c2, pos = _read_int(data, pos)
    return Ciphertext(c1, c2), pos


def encode_value(value) -> bytes:
    if value is None:
        return bytes([_TAG_NONE])
    if isinstance(value, bool):
        return bytes([_TAG_BOOL, 1 if value else 0])
    if isinstance(value, int):
        return bytes([_TAG_INT]) + _int_bytes(value)
    if isinstance(value, bytes):
        return bytes([_TAG_BYTES]) + _blob(value)
    if isinstance(value, str):
        return bytes([_TAG_STR]) + _blob(value.encode())
    if isinstance(value, (tuple, list)):
        body = b"".join(encode_value(item) for item in value)
        return bytes([_TAG_SEQ]) + len(value).to_bytes(4, "big") + body
    layout = _WRITERS.get(type(value))
    if layout is None:
        raise TypeError(f"cannot encode {type(value).__name__}")
    out, fields = layout  # out starts as the record's tag byte
    for name, write in fields:
        out += write(getattr(value, name))
    return out


def _decode_at(data: bytes, pos: int):
    (tag,), pos = _take(data, pos, 1)
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_BOOL:
        flag, pos = _take(data, pos, 1)
        return flag == b"\x01", pos
    if tag == _TAG_INT:
        return _read_int(data, pos)
    if tag == _TAG_BYTES:
        return _read_blob(data, pos)
    if tag == _TAG_STR:
        blob, pos = _read_blob(data, pos)
        return blob.decode(), pos
    if tag == _TAG_SEQ:
        count, pos = _take(data, pos, 4)
        items = []
        for _ in range(int.from_bytes(count, "big")):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return tuple(items), pos
    layout = _READERS.get(tag)
    if layout is None:
        raise ValueError(f"unknown codec tag {tag:#x}")
    cls, readers = layout
    values = []
    for read in readers:
        value, pos = read(data, pos)
        values.append(value)
    return cls(*values), pos


# one writer and one reader per field kind; each record's layout is resolved against them once, here
_WRITE = {"i": _int_bytes, "b": _blob, "c": _ciphertext_bytes, "v": encode_value}
_READ = {"i": _read_int, "b": _read_blob, "c": _read_ciphertext, "v": _decode_at}
_WRITERS = {
    cls: (bytes([tag]), tuple((f.name, _WRITE[kind]) for f, kind in zip(dataclasses.fields(cls), kinds, strict=True)))
    for tag, (cls, kinds) in RECORDS.items()
}
_READERS = {tag: (cls, tuple(_READ[kind] for kind in kinds)) for tag, (cls, kinds) in RECORDS.items()}


def decode_value(data: bytes):
    """Decode one value; malformed, truncated or too deeply nested input raises ValueError."""
    try:
        value, pos = _decode_at(data, 0)
    except RecursionError:
        raise ValueError("value nested too deeply") from None
    if pos != len(data):
        raise ValueError("trailing bytes after decoded value")
    return value


def encode_args(args: tuple) -> bytes:
    return encode_value(tuple(args))


def decode_args(data: bytes) -> tuple:
    value = decode_value(data)
    if not isinstance(value, tuple):
        raise ValueError("argument encoding must be a sequence")
    return value
