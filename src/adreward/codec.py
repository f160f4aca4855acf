"""Canonical tag-length-value codec for transaction arguments and state hashing.

Contract call arguments, private-input envelopes, and the transaction log all
round-trip through these bytes, which is what makes replay-from-genesis and
state hashing bit-exact.
"""

from __future__ import annotations

from .dkg import PartialDecryption
from .elgamal import Ciphertext
from .payments import PaymentNote, SettlementBatch
from .proofs import DecryptionProof, DleqProof, Signature
from .vrf import VrfOutput

_TAG_NONE = 0x00
_TAG_INT = 0x01
_TAG_BYTES = 0x02
_TAG_STR = 0x03
_TAG_SEQ = 0x04
_TAG_CIPHERTEXT = 0x05
_TAG_SIGNATURE = 0x06
_TAG_DECRYPT_PROOF = 0x07
_TAG_DLEQ = 0x08
_TAG_WRAPPED = 0x09
_TAG_VRF_OUT = 0x0A
_TAG_PARTIAL = 0x0B
_TAG_NOTE = 0x0C
_TAG_BOOL = 0x0D
_TAG_BATCH = 0x0E

# WrappedKey imported lazily to keep the module import graph acyclic
from .hybrid import WrappedKey  # noqa: E402


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
    if isinstance(value, Ciphertext):
        return bytes([_TAG_CIPHERTEXT]) + _int_bytes(value.c1) + _int_bytes(value.c2)
    if isinstance(value, Signature):
        return bytes([_TAG_SIGNATURE]) + _int_bytes(value.challenge) + _int_bytes(value.response) + _int_bytes(value.signer_pk)
    if isinstance(value, DecryptionProof):
        return (bytes([_TAG_DECRYPT_PROOF]) + _int_bytes(value.commitment_a) + _int_bytes(value.commitment_b)
                + _int_bytes(value.challenge) + _int_bytes(value.response))
    if isinstance(value, DleqProof):
        return (bytes([_TAG_DLEQ]) + _int_bytes(value.commitment_a) + _int_bytes(value.commitment_b)
                + _int_bytes(value.challenge) + _int_bytes(value.response))
    if isinstance(value, WrappedKey):
        return (bytes([_TAG_WRAPPED]) + _int_bytes(value.kem_ciphertext.c1) + _int_bytes(value.kem_ciphertext.c2)
                + _blob(value.sealed_payload))
    if isinstance(value, VrfOutput):
        return (bytes([_TAG_VRF_OUT]) + _int_bytes(value.rand) + _int_bytes(value.gamma)
                + encode_value(value.proof))
    if isinstance(value, PartialDecryption):
        return (bytes([_TAG_PARTIAL]) + _int_bytes(value.participant_id) + _int_bytes(value.d_i)
                + encode_value(value.proof))
    if isinstance(value, PaymentNote):
        return (bytes([_TAG_NOTE]) + _blob(value.tx_ref) + _blob(value.recipient)
                + _int_bytes(value.commitment) + _int_bytes(value.range_tag))
    if isinstance(value, SettlementBatch):
        return (bytes([_TAG_BATCH]) + encode_value(value.notes) + _int_bytes(value.total)
                + _int_bytes(value.proof_commitment) + _int_bytes(value.challenge)
                + _int_bytes(value.response))
    raise TypeError(f"cannot encode {type(value).__name__}")


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
    if tag == _TAG_CIPHERTEXT:
        c1, pos = _read_int(data, pos)
        c2, pos = _read_int(data, pos)
        return Ciphertext(c1=c1, c2=c2), pos
    if tag == _TAG_SIGNATURE:
        challenge, pos = _read_int(data, pos)
        response, pos = _read_int(data, pos)
        signer, pos = _read_int(data, pos)
        return Signature(challenge=challenge, response=response, signer_pk=signer), pos
    if tag == _TAG_DECRYPT_PROOF or tag == _TAG_DLEQ:
        a, pos = _read_int(data, pos)
        b, pos = _read_int(data, pos)
        challenge, pos = _read_int(data, pos)
        response, pos = _read_int(data, pos)
        cls = DecryptionProof if tag == _TAG_DECRYPT_PROOF else DleqProof
        return cls(commitment_a=a, commitment_b=b, challenge=challenge, response=response), pos
    if tag == _TAG_WRAPPED:
        c1, pos = _read_int(data, pos)
        c2, pos = _read_int(data, pos)
        sealed, pos = _read_blob(data, pos)
        return WrappedKey(kem_ciphertext=Ciphertext(c1=c1, c2=c2), sealed_payload=sealed), pos
    if tag == _TAG_VRF_OUT:
        rand, pos = _read_int(data, pos)
        gamma, pos = _read_int(data, pos)
        proof, pos = _decode_at(data, pos)
        return VrfOutput(rand=rand, gamma=gamma, proof=proof), pos
    if tag == _TAG_PARTIAL:
        pid, pos = _read_int(data, pos)
        d_i, pos = _read_int(data, pos)
        proof, pos = _decode_at(data, pos)
        return PartialDecryption(participant_id=pid, d_i=d_i, proof=proof), pos
    if tag == _TAG_NOTE:
        tx_ref, pos = _read_blob(data, pos)
        recipient, pos = _read_blob(data, pos)
        commitment, pos = _read_int(data, pos)
        range_tag, pos = _read_int(data, pos)
        return PaymentNote(tx_ref=tx_ref, recipient=recipient, commitment=commitment, range_tag=range_tag), pos
    if tag == _TAG_BATCH:
        notes, pos = _decode_at(data, pos)
        total, pos = _read_int(data, pos)
        proof_commitment, pos = _read_int(data, pos)
        challenge, pos = _read_int(data, pos)
        response, pos = _read_int(data, pos)
        return SettlementBatch(
            notes=notes, total=total, proof_commitment=proof_commitment,
            challenge=challenge, response=response,
        ), pos
    raise ValueError(f"unknown codec tag {tag:#x}")


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
