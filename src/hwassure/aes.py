"""Iterative AES-128 with register-level switching accounting.

The core mirrors a one-round-per-cycle hardware implementation: an
encryption takes 11 cycles (one load cycle plus ten rounds), holding its
working values in three registers: the 16-byte state, the 16-byte round
key (expanded on the fly), and the S-box output bus (16 state bytes plus
the 4 key-schedule bytes). The per-cycle toggle count is the Hamming
distance between consecutive register snapshots, with all registers
starting from zero at the beginning of every encryption.

Everything is vectorized over a batch of plaintexts under one key.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

CYCLES_PER_ENCRYPTION = 11

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _gf_mul(a: int, b: int) -> int:
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return p


def _gf_inverse(x: int) -> int:
    """x^254 by square-and-multiply: the inverse of x in GF(2^8), and 0 for
    x = 0. Since 254 = 2 + 4 + ... + 128, x^254 is the product of x^2,
    x^4, ..., x^128, each the square of the one before."""
    power, inverse = x, 1
    for _ in range(7):
        power = _gf_mul(power, power)
        inverse = _gf_mul(inverse, power)
    return inverse


def _build_sbox() -> np.ndarray:
    """S-box from first principles: GF(2^8) inversion then the affine map."""
    box = np.zeros(256, dtype=np.uint8)
    for x in range(256):
        b = _gf_inverse(x)
        r = 0x63
        for shift in (0, 1, 2, 3, 4):
            r ^= ((b << shift) | (b >> (8 - shift))) & 0xFF if shift else b
        box[x] = r & 0xFF
    return box


SBOX = _build_sbox()

_XTIME = np.array(
    [((x << 1) ^ 0x1B if x & 0x80 else x << 1) & 0xFF for x in range(256)],
    dtype=np.uint8,
)

# flat state layout is column-major (byte i = row i%4, column i//4)
_SHIFT_ROWS = np.array(
    [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11], dtype=np.intp
)


def expand_key(key: bytes) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Round-key register contents and the key-schedule S-box bytes per round.

    Returns 11 entries; entry 0 is (original key, zero bus) for the load
    cycle, entries 1..10 carry each round's register value and the four
    SubWord outputs produced while computing it.
    """
    if len(key) != 16:
        raise ValueError("AES-128 key must be 16 bytes")
    rk = np.frombuffer(key, dtype=np.uint8).copy()
    schedule = [(rk.copy(), np.zeros(4, dtype=np.uint8))]
    for rnd in range(10):
        prev = schedule[-1][0]
        rot = np.array([prev[13], prev[14], prev[15], prev[12]], dtype=np.uint8)
        sub = SBOX[rot]
        nxt = np.empty(16, dtype=np.uint8)
        nxt[0:4] = prev[0:4] ^ sub
        nxt[0] ^= _RCON[rnd]
        for w in range(1, 4):
            nxt[4 * w : 4 * w + 4] = nxt[4 * (w - 1) : 4 * w] ^ prev[4 * w : 4 * w + 4]
        schedule.append((nxt, sub))
    return schedule


def _mix_columns(state: np.ndarray) -> np.ndarray:
    s = state.reshape(-1, 4, 4)  # (batch, column, row)
    a, b, c, d = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
    out = np.empty_like(s)
    out[:, :, 0] = _XTIME[a] ^ (_XTIME[b] ^ b) ^ c ^ d
    out[:, :, 1] = a ^ _XTIME[b] ^ (_XTIME[c] ^ c) ^ d
    out[:, :, 2] = a ^ b ^ _XTIME[c] ^ (_XTIME[d] ^ d)
    out[:, :, 3] = (_XTIME[a] ^ a) ^ b ^ c ^ _XTIME[d]
    return out.reshape(-1, 16)


def _to_batch(plaintexts: Sequence[bytes]) -> np.ndarray:
    arr = np.zeros((len(plaintexts), 16), dtype=np.uint8)
    for i, pt in enumerate(plaintexts):
        if len(pt) != 16:
            raise ValueError("AES-128 block must be 16 bytes")
        arr[i] = np.frombuffer(pt, dtype=np.uint8)
    return arr


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bits that differ in each row of two (n, 16) uint8 arrays, counted
    on the rows' two 8-byte words. The difference is made row-major: the
    last round's state comes from the ShiftRows gather, which numpy lays
    out column-major, and a word view needs contiguous rows."""
    words = np.bitwise_xor(a, b, order="C").view(np.uint64)
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _bit_flips(a: np.ndarray, b: np.ndarray) -> int:
    """Bits that differ between two registers that every encryption of a
    batch shares."""
    return int(np.bitwise_count(a ^ b).sum())


def aes128_encrypt_batch(
    key: bytes, plaintexts: Sequence[bytes]
) -> Tuple[np.ndarray, np.ndarray]:
    """Encrypt a batch under one key.

    Returns (ciphertexts: (n, 16) uint8, toggles: (n, 11) int64) where
    toggles[i, t] counts the register bits that flip entering cycle t of
    encryption i.
    """
    if not len(plaintexts):
        raise ValueError("empty plaintext batch")
    schedule = expand_key(key)
    pts = plaintexts if isinstance(plaintexts, np.ndarray) else _to_batch(plaintexts)
    n = pts.shape[0]
    toggles = np.zeros((n, CYCLES_PER_ENCRYPTION), dtype=np.int64)

    # reset values: every register starts at zero. The s-box bus is the
    # 16 state bytes of each encryption plus 4 key-schedule bytes that
    # every encryption shares, so those 4 are counted once per cycle.
    state_prev = np.zeros((n, 16), dtype=np.uint8)
    key_prev = np.zeros(16, dtype=np.uint8)
    sub_prev = np.zeros((n, 16), dtype=np.uint8)

    # load cycle: initial AddRoundKey, key register loads, s-box bus idle
    key_reg, key_sbox_prev = schedule[0]
    state = pts ^ key_reg
    toggles[:, 0] = _hamming(state, state_prev) + _bit_flips(key_reg, key_prev)
    state_prev, key_prev = state, key_reg

    for rnd in range(1, 11):
        key_reg, key_sbox = schedule[rnd]
        sub = SBOX[state_prev]
        shifted = sub[:, _SHIFT_ROWS]
        mixed = _mix_columns(shifted) if rnd < 10 else shifted
        state = mixed ^ key_reg
        shared = _bit_flips(key_reg, key_prev) + _bit_flips(key_sbox, key_sbox_prev)
        toggles[:, rnd] = _hamming(state, state_prev) + _hamming(sub, sub_prev) + shared
        state_prev, key_prev, sub_prev, key_sbox_prev = state, key_reg, sub, key_sbox

    return state_prev, toggles


def aes128_encrypt(key: bytes, plaintext: bytes) -> bytes:
    ct, _ = aes128_encrypt_batch(key, [plaintext])
    return bytes(ct[0])


def aes128_encrypt_trace(key: bytes, plaintext: bytes) -> Tuple[bytes, Tuple[int, ...]]:
    """Ciphertext plus the 11 per-cycle register toggle counts."""
    ct, tg = aes128_encrypt_batch(key, [plaintext])
    return bytes(ct[0]), tuple(int(x) for x in tg[0])
