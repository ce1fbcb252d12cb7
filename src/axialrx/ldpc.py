"""Regular LDPC code with systematic encoding and normalized min-sum decoding.

Construction is a seeded (3, 6)-regular edge matching:
duplicate edges are repaired by stub swaps, several candidates are drawn,
and the one with the fewest 4-cycles that also keeps the GF(2) rank
deficiency at most one (rate within 0.01 of one half) wins. Candidates stay
edge lists (the columns of each check) while their 4-cycles are counted;
a candidate becomes byte-packed rows of H only for the GF(2) rank test, so
at most one packed candidate is alive at a time, no dense H is ever built
and the code keeps none. The encoder comes from the reduced row echelon
form of H, eliminated 8 columns (one byte) at a time on the packed rows:
free columns carry the information bits, pivot columns are parity solved
by a bit-packed GF(2) back-substitution block.

Decoding is one batched normalized min-sum kernel over (B, n) LLRs;
`decode` runs it on a single row and `decode_info` on one row or a stack.
Messages are kept slot-major, (row_weight, m, B): slot s of every check
is one contiguous (m, B) slab, so each check-node step is an elementwise
op over whole slabs, and the variable-node gathers use flat edge ids
`col_slots * m + col_rows`. After every syndrome check the rows that
converged are written out and dropped from the batch, so the remaining
iterations only touch rows still being decoded. Rows never interact:
a row decodes to the same bits, `converged` and `iterations` whatever
else shares its batch.

LLR sign convention at the API: positive means bit 1 is more likely
(matching the receiver chain); internally the decoder flips to the usual
positive-means-zero convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

COL_WEIGHT = 3
ROW_WEIGHT = 2 * COL_WEIGHT
CANDIDATES = 60
MIN_SUM_SCALE = 0.75
DEFAULT_MAX_ITER = 25
RATE_TARGET = 0.5
RATE_TOLERANCE = 0.01
ASSEMBLE_BLOCK_ROWS = 256


class LdpcConstructionError(RuntimeError):
    """No acceptable parity-check matrix found within the retry budget."""


@dataclass
class LdpcCode:
    n: int
    k: int
    info_cols: np.ndarray  # (k,) column indices carrying information bits
    pivot_cols: np.ndarray  # (rank,) parity column indices
    back_sub: np.ndarray  # (rank, ceil(k/8)) parity solver rows, np.packbits along k
    row_cols: np.ndarray  # (m, row_weight) ascending columns of each check (primary)
    col_rows: np.ndarray  # (n, col_weight) ascending rows of each variable
    col_slots: np.ndarray  # (n, col_weight) slot of the variable within row_cols
    four_cycles: int

    @property
    def m(self) -> int:
        return self.row_cols.shape[0]

    @property
    def rate(self) -> float:
        return self.k / self.n


class DecodeResult(NamedTuple):
    bits: np.ndarray
    converged: bool
    iterations: int


# PARITY[b] is the XOR of the eight bits of byte b.
PARITY = np.array([bin(b).count("1") & 1 for b in range(256)], dtype=np.uint8)


def _sample_regular_h(n: int, m: int, col_weight: int, row_weight: int,
                      rng: np.random.Generator) -> np.ndarray | None:
    """Random stub matching; duplicate edges repaired by bounded stub swaps.

    Returns the (m, row_weight) ascending columns of each check, or None
    when the swap budget runs out.

    Check r owns stubs r*row_weight.., so sorting the edges by (check,
    column) only sorts within checks, which one row-wise sort does. The
    repeated columns of the few checks that have one are then found by a
    stable sort of those checks alone, and swapped in (check, column,
    stub) order.
    """
    cols = np.repeat(np.arange(n), col_weight)
    rng.shuffle(cols)
    checks = cols.reshape(m, row_weight)
    for _ in range(500):
        sorted_checks = np.sort(checks, axis=1)
        bad = np.flatnonzero((sorted_checks[:, 1:] == sorted_checks[:, :-1]).any(axis=1))
        if bad.size == 0:
            return sorted_checks
        bad_checks = checks[bad]
        order = np.argsort(bad_checks, axis=1, kind="stable")
        ranked = np.take_along_axis(bad_checks, order, axis=1)
        repeat = ranked[:, 1:] == ranked[:, :-1]
        dup_positions = (bad[:, None] * row_weight + order[:, 1:])[repeat]
        swap_with = rng.integers(0, cols.size, size=dup_positions.size)
        for p, q in zip(dup_positions, swap_with):
            cols[p], cols[q] = cols[q], cols[p]
    return None


def _count_four_cycles(row_cols: np.ndarray, n: int) -> int:
    """4-cycles = column pairs shared by more than one check."""
    # Slot-major, so each pair's codes come from two whole contiguous rows.
    slots = row_cols.T.astype(np.int32 if n * n < 2**31 else np.int64)
    ii, jj = np.triu_indices(row_cols.shape[1], k=1)
    codes = slots[ii]
    codes *= n
    codes += slots[jj]
    codes = codes.ravel()
    codes.sort()
    # Runs of equal codes: one per column pair, as long as its check count.
    ends = np.flatnonzero(codes[1:] != codes[:-1])
    counts = np.diff(ends, prepend=-1, append=codes.size - 1)
    return int((counts * (counts - 1) // 2).sum())


def _packed_h(row_cols: np.ndarray, n: int) -> np.ndarray:
    """H as (m, ceil(n/8)) byte-packed rows, bit 7 - c % 8 of byte c // 8."""
    m = row_cols.shape[0]
    packed = np.zeros((m, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (np.arange(m)[:, None], row_cols >> 3),
                     (0x80 >> (row_cols & 7)).astype(np.uint8))
    return packed


def _gf2_rref(packed: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) of byte-packed rows, in place.

    Rows are packed as `_packed_h` packs them, with zero bits past the last
    column; the pivots are column indices.

    Gauss-Jordan one byte panel (8 columns) at a time, Four-Russians style.
    Rows r.. are zero left of panel b, so their panel bytes alone give the
    panel's pivots: up to 8 rows whose bytes are independent are moved to
    r..r+k-1, a table of the 2^k XORs of those rows (from byte b on) is
    built, and one table row clears the pivot bits of each other row. The
    RREF over GF(2) is unique, so which rows are picked does not matter.
    """
    m, width = packed.shape
    pivots: list[int] = []
    r = 0
    for b in range(width):
        if r >= m:
            break
        column = packed[:, b].copy()
        values = np.flatnonzero(np.bincount(column[r:], minlength=256)[1:]) + 1
        # Gauss-Jordan on plain ints: reduced[bit] is the reduced byte with
        # pivot `bit` and the mask of the picked bytes it is the XOR of.
        reduced: dict[int, tuple[int, int]] = {}
        picked: list[int] = []
        for value in values.tolist():
            byte, mask = value, 1 << len(picked)
            for bit, (other, other_mask) in reduced.items():
                if byte & bit:
                    byte ^= other
                    mask ^= other_mask
            if not byte:
                continue
            lead = 1 << (byte.bit_length() - 1)
            for bit, (other, other_mask) in reduced.items():
                if other & lead:
                    reduced[bit] = (other ^ byte, other_mask ^ mask)
            reduced[lead] = (byte, mask)
            picked.append(value)
            if len(picked) == 8:
                break
        k = len(picked)
        if not k:
            continue
        # Move the first row holding each picked byte up to r..r+k-1.
        wanted = np.array(picked, dtype=np.uint8)[:, None]
        rows = (r + (wanted == column[r:]).argmax(axis=1)).tolist()
        top = list(range(r, r + k))
        dst = top + [p for p in rows if p >= r + k]
        src = rows + [t for t in top if t not in rows]
        packed[dst, b:] = packed[src, b:]
        column[dst] = column[src]
        # table[mask] is the XOR of the picked rows in `mask`.
        table = np.zeros((1 << k, width - b), dtype=np.uint8)
        for i in range(k):
            np.bitwise_xor(table[:1 << i], packed[r + i, b:], out=table[1 << i:2 << i])
        order = sorted(reduced, reverse=True)  # leftmost column first
        packed[r:r + k, b:] = table[[reduced[bit][1] for bit in order]]
        # lut[byte] is the mask whose table row clears the pivot bits of `byte`.
        lut = np.zeros(256, dtype=np.uint8)
        for j in range(8):
            lut[1 << j:2 << j] = lut[:1 << j] ^ reduced.get(1 << j, (0, 0))[1]
        idx = np.take(lut, column)
        idx[r:r + k] = 0
        hit = np.flatnonzero(idx)
        # Gather, XOR and write back: `packed[hit, b:] ^= ...` is slower.
        x = np.take(table, idx[hit], axis=0)
        x ^= packed[hit, b:]
        packed[hit, b:] = x
        pivots += [8 * b + 8 - bit.bit_length() for bit in order]
        r += k
    return packed, pivots


def construct(n: int, seed: int) -> LdpcCode:
    """Build a (COL_WEIGHT, ROW_WEIGHT)-regular code of length n, the best
    of CANDIDATES seeded draws."""
    if (n * COL_WEIGHT) % ROW_WEIGHT != 0:
        raise LdpcConstructionError(
            f"n={n} incompatible with ({COL_WEIGHT},{ROW_WEIGHT}) regularity")
    m = n * COL_WEIGHT // ROW_WEIGHT
    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(CANDIDATES):
        row_cols = _sample_regular_h(n, m, COL_WEIGHT, ROW_WEIGHT, rng)
        if row_cols is not None:
            candidates.append((_count_four_cycles(row_cols, n), row_cols))
    candidates.sort(key=lambda pair: pair[0])
    for cycles, row_cols in candidates:
        rref, pivots = _gf2_rref(_packed_h(row_cols, n))
        rank = len(pivots)
        k = n - rank
        if m - rank > 1 or abs(k / n - RATE_TARGET) > RATE_TOLERANCE:
            continue
        return _assemble(n, rref, pivots, cycles, row_cols)
    raise LdpcConstructionError(f"no valid ({COL_WEIGHT},{ROW_WEIGHT})-regular matrix for "
                                f"n={n} in {CANDIDATES} tries")


def _assemble(n: int, rref: np.ndarray, pivots: list[int], cycles: int,
              row_cols: np.ndarray) -> LdpcCode:
    rank = len(pivots)
    pivot_cols = np.asarray(pivots, dtype=np.int64)
    info_cols = np.setdiff1d(np.arange(n), pivot_cols)
    # bit c of every pivot row, gathered from the packed RREF for the info
    # columns a block of rows at a time, so no (rank, k) byte array is built
    byte_cols, shifts = info_cols >> 3, (7 - (info_cols & 7)).astype(np.uint8)
    pivot_rows = rref[:rank]
    back_sub = np.empty((rank, (info_cols.size + 7) // 8), dtype=np.uint8)
    for start in range(0, rank, ASSEMBLE_BLOCK_ROWS):
        block = slice(start, start + ASSEMBLE_BLOCK_ROWS)
        info_bits = np.take(pivot_rows[block], byte_cols, axis=1)
        info_bits >>= shifts
        info_bits &= 1
        back_sub[block] = np.packbits(info_bits, axis=1)

    # A stable sort of the row-major edge list by column lists each
    # column's edges in ascending row order.
    order = np.argsort(row_cols.ravel(), kind="stable").reshape(n, COL_WEIGHT)
    col_rows, col_slots = order // ROW_WEIGHT, order % ROW_WEIGHT
    return LdpcCode(n=n, k=n - rank, info_cols=info_cols, pivot_cols=pivot_cols,
                    back_sub=back_sub, row_cols=row_cols, col_rows=col_rows,
                    col_slots=col_slots, four_cycles=cycles)


def encode(code: LdpcCode, info_bits: np.ndarray) -> np.ndarray:
    """Systematic encoding; the result always satisfies H c = 0."""
    u = np.asarray(info_bits, dtype=np.uint8)
    if u.shape != (code.k,):
        raise ValueError(f"expected {code.k} information bits, got shape {u.shape}")
    c = np.zeros(code.n, dtype=np.uint8)
    c[code.info_cols] = u
    c[code.pivot_cols] = PARITY[np.bitwise_xor.reduce(code.back_sub & np.packbits(u), axis=1)]
    return c


def syndrome(code: LdpcCode, bits: np.ndarray) -> np.ndarray:
    return bits[code.row_cols].sum(axis=1) % 2


def _min_sum(code: LdpcCode, llr: np.ndarray, max_iter: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched normalized min-sum over (B, n) API-convention LLRs.

    Returns per-row hard decisions (B, n), `converged` (B,) and
    `iterations` (B,). Rows never interact, so each row's result is the
    same whatever else shares its batch.
    """
    batch = llr.shape[0]
    m, row_weight = code.row_cols.shape
    check_cols = code.row_cols.T  # (row_weight, m): slot s of every check
    edges = (code.col_slots * m + code.col_rows).T  # (col_weight, n) flat slot-major edge ids
    bits = np.empty((batch, code.n), dtype=np.uint8)
    converged = np.zeros(batch, dtype=bool)
    iterations = np.full(batch, max_iter, dtype=np.int64)
    active = np.arange(batch)
    chan = -np.ascontiguousarray(llr.T)  # (n, B); decoder-internal: positive favors bit 0
    posterior = chan
    msgs = np.zeros((row_weight, m, batch))  # check-to-variable, one slab per slot
    for iteration in range(1, max_iter + 1):
        parity = np.bitwise_xor.reduce((posterior < 0.0)[check_cols], axis=0)  # (m, B) syndrome
        done = (posterior != 0.0).all(axis=0) & ~parity.any(axis=0)
        if done.any():
            rows = active[done]
            bits[rows] = (posterior[:, done] < 0.0).T
            converged[rows] = True
            iterations[rows] = iteration
            # np.compress keeps the arrays C-contiguous; `x[..., keep]` would not.
            keep = ~done
            active = active[keep]
            chan, posterior, msgs = (np.compress(keep, x, axis=-1)
                                     for x in (chan, posterior, msgs))
            if active.size == 0:
                return bits, converged, iterations
        # Variable-to-check messages, in place and one slot at a time: each
        # edge's posterior minus the message it got from that check.
        for cols, slab in zip(check_cols, msgs):
            np.subtract(posterior[cols], slab, out=slab)
        negative = msgs < 0.0
        mag = np.abs(msgs, out=msgs)
        # Running scan with strict `<`: the first minimal slot wins and a tie
        # leaves min2 == min1, as np.partition and argmin would.
        min1, min2 = np.minimum(mag[0], mag[1]), np.maximum(mag[0], mag[1])
        argmin = (mag[1] < mag[0]).astype(np.uint8)
        for s in range(2, row_weight):
            # a new strict minimum at slot s moves argmin up to s, never down
            np.maximum(argmin, (mag[s] < min1) * np.uint8(s), out=argmin)
            np.minimum(min2, np.maximum(min1, mag[s]), out=min2)
            np.minimum(min1, mag[s], out=min1)
        # Magnitudes: min1 on every edge, then min2 scattered onto each argmin.
        np.copyto(msgs, MIN_SUM_SCALE * min1)
        at_argmin = argmin.ravel().astype(np.intp) * min1.size + np.arange(min1.size)
        msgs.reshape(-1)[at_argmin] = MIN_SUM_SCALE * min2.ravel()
        # Signs: an edge's message is negative when the other slots' signs
        # XOR to one; setting the sign bit of a magnitude negates it exactly.
        row_negative = np.bitwise_xor.reduce(negative, axis=0)
        for slab_bits, slab_negative in zip(msgs.view(np.uint64), negative):
            sign_bits = (slab_negative ^ row_negative).astype(np.uint64)
            sign_bits <<= 63
            slab_bits |= sign_bits
        flat = msgs.reshape(row_weight * m, -1)
        posterior = flat[edges[0]] + flat[edges[1]]
        for ids in edges[2:]:
            posterior += flat[ids]
        posterior += chan
    bits[active] = (posterior < 0.0).T
    return bits, converged, iterations


def decode(code: LdpcCode, llr: np.ndarray) -> DecodeResult:
    """Normalized min-sum belief propagation with syndrome early exit.

    Convergence requires a zero syndrome with every posterior decided
    (nonzero); degenerate all-zero input therefore reports converged=False
    even though the all-zero word is a codeword.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"expected {code.n} LLRs, got shape {llr.shape}")
    bits, converged, iterations = _min_sum(code, llr[None], DEFAULT_MAX_ITER)
    return DecodeResult(bits=bits[0], converged=bool(converged[0]),
                        iterations=int(iterations[0]))


def decode_info(code: LdpcCode, llr: np.ndarray) -> np.ndarray:
    """Decode (n,) or (B, n) LLRs; return the (k,) or (B, k) information bits."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim not in (1, 2) or llr.shape[-1] != code.n:
        raise ValueError(f"expected {code.n} LLRs per row, got shape {llr.shape}")
    bits = _min_sum(code, llr.reshape(-1, code.n), DEFAULT_MAX_ITER)[0]
    return bits.reshape(llr.shape)[..., code.info_cols]


def to_alist(code: LdpcCode) -> str:
    """Standard alist text for the parity-check matrix (1-based indices)."""
    n, col_weight = code.col_rows.shape
    m, row_weight = code.row_cols.shape
    lines = [f"{n} {m}", f"{col_weight} {row_weight}",
             " ".join([str(col_weight)] * n), " ".join([str(row_weight)] * m)]
    lines += [" ".join(map(str, rows)) for rows in (code.col_rows + 1).tolist()]
    lines += [" ".join(map(str, cols)) for cols in (code.row_cols + 1).tolist()]
    return "\n".join(lines) + "\n"
