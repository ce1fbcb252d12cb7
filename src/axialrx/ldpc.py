"""Regular LDPC code with systematic encoding and normalized min-sum decoding.

Construction is a seeded (col_weight, 2*col_weight)-regular edge matching:
duplicate edges are repaired by stub swaps, several candidates are drawn,
and the one with the fewest 4-cycles that also keeps the GF(2) rank
deficiency at most one (rate within 0.01 of one half) wins. Candidates stay
edge lists (the columns of each check) while their 4-cycles are counted;
a candidate becomes byte-packed rows of H only for the GF(2) rank test, so
at most one packed candidate is alive at a time, no dense H is ever built
and the code keeps none. The encoder comes from the reduced row echelon
form of H: free columns carry the information bits, pivot columns are
parity solved by a bit-packed GF(2) back-substitution block.

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

MIN_SUM_SCALE = 0.75
DEFAULT_MAX_ITER = 25
RATE_TARGET = 0.5
RATE_TOLERANCE = 0.01


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
    """
    cols = np.repeat(np.arange(n), col_weight)
    rng.shuffle(cols)
    rows = np.repeat(np.arange(m), row_weight)
    for _ in range(500):
        key = rows.astype(np.int64) * n + cols
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        dup_sorted = np.flatnonzero(sorted_key[1:] == sorted_key[:-1]) + 1
        if dup_sorted.size == 0:
            return (sorted_key % n).reshape(m, row_weight)
        dup_positions = order[dup_sorted]
        swap_with = rng.integers(0, cols.size, size=dup_positions.size)
        for p, q in zip(dup_positions, swap_with):
            cols[p], cols[q] = cols[q], cols[p]
    return None


def _count_four_cycles(row_cols: np.ndarray, n: int) -> int:
    """4-cycles = column pairs shared by more than one check."""
    ii, jj = np.triu_indices(row_cols.shape[1], k=1)
    codes = (row_cols[:, ii] * n + row_cols[:, jj]).ravel()
    counts = np.unique(codes, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _packed_h(row_cols: np.ndarray, n: int) -> np.ndarray:
    """H as (m, ceil(n/8)) byte-packed rows, bit 7 - c % 8 of byte c // 8."""
    m = row_cols.shape[0]
    packed = np.zeros((m, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (np.arange(m)[:, None], row_cols >> 3),
                     (0x80 >> (row_cols & 7)).astype(np.uint8))
    return packed


def _gf2_rref(packed: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2) of n-column byte-packed rows, in place."""
    m = packed.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        byte, shift = c >> 3, 7 - (c & 7)
        column = (packed[:, byte] >> shift) & 1
        candidates = np.flatnonzero(column[r:])
        if candidates.size == 0:
            continue
        swap = r + candidates[0]
        if swap != r:
            packed[[r, swap]] = packed[[swap, r]]
            column[[r, swap]] = column[[swap, r]]
        hit = np.flatnonzero(column)
        hit = hit[hit != r]
        if hit.size:
            packed[hit] ^= packed[r]
        pivots.append(c)
        r += 1
    return packed, pivots


def construct(n: int, col_weight: int = 3, seed: int = 0, tries: int = 60) -> LdpcCode:
    """Build a (col_weight, 2*col_weight)-regular code of length n."""
    if col_weight < 2:
        raise LdpcConstructionError(f"column weight must be >= 2, got {col_weight}")
    row_weight = 2 * col_weight
    if (n * col_weight) % row_weight != 0:
        raise LdpcConstructionError(f"n={n} incompatible with ({col_weight},{row_weight}) regularity")
    m = n * col_weight // row_weight
    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(tries):
        row_cols = _sample_regular_h(n, m, col_weight, row_weight, rng)
        if row_cols is not None:
            candidates.append((_count_four_cycles(row_cols, n), row_cols))
    candidates.sort(key=lambda pair: pair[0])
    for cycles, row_cols in candidates:
        rref, pivots = _gf2_rref(_packed_h(row_cols, n), n)
        rank = len(pivots)
        k = n - rank
        if m - rank > 1 or abs(k / n - RATE_TARGET) > RATE_TOLERANCE:
            continue
        return _assemble(n, rref, pivots, cycles, row_cols, col_weight)
    raise LdpcConstructionError(
        f"no valid ({col_weight},{row_weight})-regular matrix for n={n} in {tries} tries")


def _assemble(n: int, rref: np.ndarray, pivots: list[int], cycles: int,
              row_cols: np.ndarray, col_weight: int) -> LdpcCode:
    row_weight = row_cols.shape[1]
    rank = len(pivots)
    pivot_cols = np.asarray(pivots, dtype=np.int64)
    info_cols = np.setdiff1d(np.arange(n), pivot_cols)
    # bit c of every pivot row, gathered from the packed RREF for the info columns
    info_bits = np.take(rref[:rank], info_cols >> 3, axis=1)
    info_bits >>= (7 - (info_cols & 7)).astype(np.uint8)
    info_bits &= 1
    back_sub = np.packbits(info_bits, axis=1)

    # A stable sort of the row-major edge list by column lists each
    # column's edges in ascending row order.
    order = np.argsort(row_cols.ravel(), kind="stable").reshape(n, col_weight)
    col_rows, col_slots = order // row_weight, order % row_weight
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
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
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


def decode(code: LdpcCode, llr: np.ndarray, max_iter: int = DEFAULT_MAX_ITER) -> DecodeResult:
    """Normalized min-sum belief propagation with syndrome early exit.

    Convergence requires a zero syndrome with every posterior decided
    (nonzero); degenerate all-zero input therefore reports converged=False
    even though the all-zero word is a codeword.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"expected {code.n} LLRs, got shape {llr.shape}")
    bits, converged, iterations = _min_sum(code, llr[None], max_iter)
    return DecodeResult(bits=bits[0], converged=bool(converged[0]),
                        iterations=int(iterations[0]))


def decode_info(code: LdpcCode, llr: np.ndarray, max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Decode (n,) or (B, n) LLRs; return the (k,) or (B, k) information bits."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim not in (1, 2) or llr.shape[-1] != code.n:
        raise ValueError(f"expected {code.n} LLRs per row, got shape {llr.shape}")
    bits = _min_sum(code, llr.reshape(-1, code.n), max_iter)[0]
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
