"""LDPC construction, encoding and min-sum decoding."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axialrx import ldpc
from axialrx.ldpc import (
    LdpcConstructionError,
    construct,
    decode,
    decode_info,
    encode,
    syndrome,
    to_alist,
)
from helpers import dense_h


def gf2_rref_oracle(h: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Plain boolean Gauss-Jordan elimination, independent of the packed path.

    Returns the reduced row echelon form as a bool array and its pivot columns.
    """
    work = h.astype(bool).copy()
    m, n = work.shape
    pivots: list[int] = []
    for c in range(n):
        rank = len(pivots)
        if rank == m:
            break
        rows = np.flatnonzero(work[rank:, c])
        if rows.size == 0:
            continue
        pivot = rank + rows[0]
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(m):
            if r != rank and work[r, c]:
                work[r] ^= work[rank]
        pivots.append(c)
    return work, pivots


def sample_regular_h_oracle(n: int, m: int, col_weight: int, row_weight: int,
                            rng: np.random.Generator) -> np.ndarray | None:
    """The stub matching with one global stable argsort per repair round.

    `ldpc._sample_regular_h` must return the same arrays and make the same
    RNG draws, since they pick the code of every seed.
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


def count_four_cycles_oracle(row_cols: np.ndarray, n: int) -> int:
    """Column pairs shared by more than one check, counted with np.unique."""
    ii, jj = np.triu_indices(row_cols.shape[1], k=1)
    codes = (row_cols[:, ii] * n + row_cols[:, jj]).ravel()
    counts = np.unique(codes, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


@st.composite
def gf2_matrices(draw) -> np.ndarray:
    """(m, n) bool matrices: any n % 8, m above or below n, sparse to dense
    fills, optional low rank, all-zero and duplicated rows."""
    m, n = draw(st.integers(1, 48)), draw(st.integers(1, 100))
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
    inner = draw(st.one_of(st.none(), st.integers(0, 10)))
    zero_rows, duplicate_rows = draw(st.integers(0, m)), draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.random((m, n)) < density
    if inner is not None:  # rank <= inner: a GF(2) product through `inner` rows
        mix = rng.integers(0, 2, (m, inner))
        h = (mix @ (rng.random((inner, n)) < density)) % 2 == 1
    h[rng.integers(0, m, zero_rows)] = False
    h[rng.integers(0, m, duplicate_rows)] = h[rng.integers(0, m, duplicate_rows)]
    return h


_rng = np.random.default_rng(2024)
RREF_EDGE_CASES = {"all-zero": np.zeros((6, 13), dtype=bool),
                   "one-row-repeated": np.tile(_rng.random(37) < 0.5, (9, 1)),
                   "tall": _rng.random((30, 5)) < 0.5,
                   "dense-full-panels": _rng.random((40, 96)) < 0.5,
                   "sparse-empty-columns": _rng.random((48, 100)) < 0.02}


def assert_rref_matches_oracle(h: np.ndarray) -> None:
    n = h.shape[1]
    rref, pivots = ldpc._gf2_rref(np.packbits(h, axis=1))
    expected, expected_pivots = gf2_rref_oracle(h)
    bits = np.unpackbits(rref, axis=1)
    np.testing.assert_array_equal(bits[:, :n], expected)
    assert not bits[:, n:].any()
    assert pivots == expected_pivots


@pytest.fixture(scope="module")
def code48():
    return construct(48, seed=5)


@pytest.fixture(scope="module")
def code576():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ldpc, "CANDIDATES", 20)
        return construct(576, seed=5)


@pytest.fixture(scope="module")
def small_codes():
    """Codes of several even lengths and seeds, keyed by (n, seed)."""
    return {(n, seed): construct(n, seed=seed)
            for n in (48, 96, 192, 576) for seed in range(3)}


class TestConstruct:
    def test_dimensions_and_rate(self, code48):
        assert dense_h(code48).shape == (24, 48)
        assert abs(code48.rate - 0.5) <= 0.01

    def test_regular_weights(self, code48):
        np.testing.assert_array_equal(dense_h(code48).sum(axis=0), np.full(48, 3))
        np.testing.assert_array_equal(dense_h(code48).sum(axis=1), np.full(24, 6))

    def test_rank_matches_elimination_oracle(self, code48):
        assert len(gf2_rref_oracle(dense_h(code48))[1]) == code48.n - code48.k

    def test_determinism(self):
        a = construct(48, seed=9)
        b = construct(48, seed=9)
        np.testing.assert_array_equal(dense_h(a), dense_h(b))

    def test_larger_code(self, code576):
        assert dense_h(code576).shape == (288, 576)
        assert abs(code576.rate - 0.5) <= 0.01
        assert len(gf2_rref_oracle(dense_h(code576))[1]) == code576.n - code576.k

    def test_adjacency_is_consistent(self, code576):
        n = code576.n
        np.testing.assert_array_equal(code576.row_cols[code576.col_rows, code576.col_slots],
                                      np.broadcast_to(np.arange(n)[:, None], (n, 3)))
        assert (np.diff(code576.col_rows, axis=1) > 0).all()
        assert (np.diff(code576.row_cols, axis=1) > 0).all()

    def test_invalid_parameters(self):
        with pytest.raises(LdpcConstructionError):
            construct(49, seed=0)


class TestRref:
    """The byte-panel packed RREF against the boolean oracle, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(h=gf2_matrices())
    def test_matches_boolean_oracle(self, h):
        assert_rref_matches_oracle(h)

    @pytest.mark.parametrize("name", RREF_EDGE_CASES)
    def test_edge_cases_match_boolean_oracle(self, name):
        assert_rref_matches_oracle(RREF_EDGE_CASES[name])


class TestCandidates:
    """The per-check sampler and the sort-based 4-cycle count against the
    global-argsort and np.unique oracles: same arrays, same RNG state."""

    @settings(max_examples=80, deadline=None)
    @given(col_weight=st.sampled_from([2, 3, 4]), half_n=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 3))
    def test_sampler_and_counter_match_oracles(self, col_weight, half_n, seed, draws):
        n, row_weight = 2 * half_n, 2 * col_weight
        m = n * col_weight // row_weight
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            row_cols = ldpc._sample_regular_h(n, m, col_weight, row_weight, rng)
            expected = sample_regular_h_oracle(n, m, col_weight, row_weight, oracle_rng)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            if expected is None:
                assert row_cols is None
                continue
            assert row_cols.dtype == expected.dtype and row_cols.flags.c_contiguous
            np.testing.assert_array_equal(row_cols, expected)
            assert ldpc._count_four_cycles(row_cols, n) == count_four_cycles_oracle(expected, n)

    def test_sampler_gives_up_when_no_matching_exists(self):
        # one check of four stubs over two columns always repeats a column
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        assert ldpc._sample_regular_h(2, 1, 2, 4, rng) is None
        assert sample_regular_h_oracle(2, 1, 2, 4, oracle_rng) is None
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("row_cols, n, cycles", [
        ([[0, 1, 2, 3], [4, 5, 6, 7]], 8, 0),
        ([[0, 1, 2, 3], [0, 1, 4, 5]], 8, 1),
        # pair (0, 1) in three checks, (2, 3) and (4, 5) in two each
        ([[0, 1, 2, 3], [0, 1, 4, 5], [0, 1, 6, 7], [2, 3, 4, 5]], 8, 5),
        ([[0, 1, 2], [0, 1, 2], [0, 1, 2]], 3, 9),
        # codes past 2**31; in int32 pairs (0, 20000) and (61356, 67296) would collide
        ([[0, 20000], [61356, 67296], [69998, 69999], [69998, 69999]], 70000, 1),
    ])
    def test_counter_on_checks_sharing_pairs(self, row_cols, n, cycles):
        row_cols = np.array(row_cols)
        assert ldpc._count_four_cycles(row_cols, n) == cycles
        assert count_four_cycles_oracle(row_cols, n) == cycles


class TestEncode:
    def test_all_zero_info_gives_all_zero_codeword(self, code48):
        np.testing.assert_array_equal(encode(code48, np.zeros(code48.k, dtype=int)),
                                      np.zeros(48, dtype=np.uint8))

    def test_linearity(self, code48):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 2, code48.k)
        v = rng.integers(0, 2, code48.k)
        lhs = encode(code48, u ^ v)
        rhs = encode(code48, u) ^ encode(code48, v)
        np.testing.assert_array_equal(lhs, rhs)

    def test_syndrome_zero_by_direct_gf2_product(self, code48):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = encode(code48, rng.integers(0, 2, code48.k))
            direct = (dense_h(code48).astype(np.int64) @ c.astype(np.int64)) % 2
            assert not direct.any()
            assert not syndrome(code48, c).any()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([48, 96, 192, 576]), seed=st.integers(0, 2))
    def test_codeword_has_zero_syndrome_and_carries_info(self, small_codes, data, n, seed):
        code = small_codes[n, seed]
        u = data.draw(arrays(np.uint8, code.k, elements=st.integers(0, 1)))
        c = encode(code, u)
        assert not syndrome(code, c).any()
        np.testing.assert_array_equal(c[code.info_cols], u)

    def test_wrong_length_rejected(self, code48):
        with pytest.raises(ValueError):
            encode(code48, np.zeros(code48.k + 1, dtype=int))


class TestDecode:
    def test_noiseless_converges_immediately(self, code48):
        rng = np.random.default_rng(2)
        c = encode(code48, rng.integers(0, 2, code48.k))
        llr = np.where(c == 1, 20.0, -20.0)  # positive means bit 1
        result = decode(code48, llr)
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_array_equal(result.bits, c)

    def test_corrects_every_single_bit_flip(self, code48):
        rng = np.random.default_rng(3)
        c = encode(code48, rng.integers(0, 2, code48.k))
        base = np.where(c == 1, 20.0, -20.0)
        for position in range(code48.n):
            llr = base.copy()
            llr[position] = -llr[position]
            result = decode(code48, llr)
            assert result.converged, f"flip at {position} not corrected"
            np.testing.assert_array_equal(result.bits, c)

    def test_all_zero_llrs_degenerate(self, code48):
        result = decode(code48, np.zeros(code48.n))
        assert not result.converged
        assert result.bits.shape == (code48.n,)

    def test_high_snr_round_trip_blocks(self, code576):
        """AWGN at high SNR: 1000 blocks decode without block errors."""
        rng = np.random.default_rng(4)
        n0 = 10.0 ** (-8.0 / 10.0)  # 8 dB Eb-ish margin on BPSK LLRs
        failures = 0
        for _ in range(1000):
            u = rng.integers(0, 2, code576.k)
            c = encode(code576, u)
            symbols = 1.0 - 2.0 * c.astype(float)  # bit 1 -> -1
            y = symbols + rng.standard_normal(code576.n) * np.sqrt(n0 / 2.0)
            llr = -4.0 * y / n0  # positive means bit 1
            decoded = decode(code576, llr)
            if (decoded.bits[code576.info_cols] != u).any():
                failures += 1
        assert failures == 0

    def test_decoder_monotonic_in_snr(self, code576):
        """BLER non-increasing over a 5-point sweep, one inversion allowed."""
        rng = np.random.default_rng(5)
        snrs = [0.0, 1.0, 2.0, 3.0, 4.0]
        blocks = 2000
        rates = []
        halfwidths = []
        for snr_db in snrs:
            n0 = 10.0 ** (-snr_db / 10.0)
            wrong = 0
            for _ in range(blocks):
                u = rng.integers(0, 2, code576.k)
                c = encode(code576, u)
                y = (1.0 - 2.0 * c) + rng.standard_normal(code576.n) * np.sqrt(n0 / 2.0)
                decoded = decode(code576, -4.0 * y / n0)
                wrong += (decoded.bits[code576.info_cols] != u).any()
            p = wrong / blocks
            rates.append(p)
            halfwidths.append(np.sqrt(max(p * (1 - p), 1e-9) / blocks))
        inversions = [i for i in range(4) if rates[i + 1] > rates[i]]
        assert len(inversions) <= 1
        for i in inversions:
            assert rates[i + 1] - rates[i] <= halfwidths[i] + halfwidths[i + 1]

    def test_invalid_inputs(self, code48):
        with pytest.raises(ValueError):
            decode(code48, np.zeros(code48.n + 1))

    @pytest.mark.parametrize("shape", [(49,), (3, 49), (2, 3, 48), (1, 48), ()],
                             ids=["short-1d", "short-2d", "3d", "batched", "scalar"])
    def test_decode_rejects_shapes(self, code48, shape):
        with pytest.raises(ValueError, match="LLRs"):
            decode(code48, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(47,), (3, 49), (2, 3, 48), ()],
                             ids=["short-1d", "long-2d", "3d", "scalar"])
    def test_decode_info_rejects_shapes(self, code48, shape):
        with pytest.raises(ValueError, match="LLRs"):
            decode_info(code48, np.zeros(shape))

    def test_decode_info_shapes(self, code48):
        llr = np.ones((5, code48.n))
        assert decode_info(code48, llr[0]).shape == (code48.k,)
        assert decode_info(code48, llr).shape == (5, code48.k)
        assert decode_info(code48, llr[:0]).shape == (0, code48.k)


def reference_min_sum(code, llr, max_iter=ldpc.DEFAULT_MAX_ITER):
    """One block of normalized min-sum, check-major, with np.partition.

    An independent reference written the plain way: the batched
    slot-major kernel must agree with it bit for bit.
    """
    chan = -np.asarray(llr, dtype=np.float64)
    rows, slots = code.col_rows, code.col_slots
    v2c = chan[code.row_cols]
    posterior = chan
    iterations = 0
    for iterations in range(1, max_iter + 1):
        bits = (posterior < 0).astype(np.uint8)
        if (posterior != 0.0).all() and not syndrome(code, bits).any():
            return bits, True, iterations
        sgn = np.where(v2c < 0.0, -1.0, 1.0)
        mag = np.abs(v2c)
        row_sign = sgn.prod(axis=1)
        part = np.partition(mag, 1, axis=1)
        min1, min2 = part[:, 0], part[:, 1]
        argmin = mag.argmin(axis=1)
        use_min = np.where(np.arange(v2c.shape[1])[None, :] == argmin[:, None],
                           min2[:, None], min1[:, None])
        c2v = ldpc.MIN_SUM_SCALE * row_sign[:, None] * sgn * use_min
        col_msgs = c2v[rows, slots]
        posterior = chan + col_msgs.sum(axis=1)
        v2c_scattered = np.empty_like(v2c)
        v2c_scattered[rows, slots] = posterior[:, None] - col_msgs
        v2c = v2c_scattered
    return (posterior < 0).astype(np.uint8), False, iterations


def awgn_llrs(code, rng, snrs_db, zero_frac=0.0, quantize=False):
    """One BPSK-over-AWGN LLR row per SNR (positive means bit 1).

    `zero_frac` erases positions to exact zeros; `quantize` rounds the
    LLRs to integers so that check-node magnitudes tie.
    """
    snrs_db = np.asarray(snrs_db, dtype=np.float64)
    n0 = 10.0 ** (-snrs_db / 10.0)[:, None]
    c = np.stack([encode(code, u) for u in rng.integers(0, 2, (snrs_db.size, code.k))])
    llr = -4.0 * ((1.0 - 2.0 * c) + rng.standard_normal(c.shape) * np.sqrt(n0 / 2.0)) / n0
    if zero_frac:
        llr[rng.random(llr.shape) < zero_frac] = 0.0
    return np.round(llr) if quantize else llr


def assert_rows_match(code, llr, max_iter):
    """Batched kernel == the kernel on one row == the reference loop, row by row."""
    bits, converged, iterations = ldpc._min_sum(code, llr, max_iter)
    for row in range(llr.shape[0]):
        single_bits, single_converged, single_iterations = \
            ldpc._min_sum(code, llr[row:row + 1], max_iter)
        ref_bits, ref_converged, ref_iterations = reference_min_sum(code, llr[row], max_iter)
        np.testing.assert_array_equal(bits[row], single_bits[0])
        np.testing.assert_array_equal(single_bits[0], ref_bits)
        assert converged[row] == single_converged[0] == ref_converged
        assert iterations[row] == single_iterations[0] == ref_iterations


class TestBatchedDecode:
    """The batched slot-major kernel against per-row decoding."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           snrs_db=st.lists(st.sampled_from([-6.0, -3.0, -1.5, 0.0, 3.0, 10.0]),
                            min_size=1, max_size=6),
           zero_frac=st.sampled_from([0.0, 0.02, 0.3]),
           quantize=st.booleans(),
           max_iter=st.one_of(st.integers(1, 3), st.just(ldpc.DEFAULT_MAX_ITER)))
    @pytest.mark.parametrize("name", ["code48", "code576"])
    def test_rows_match_single_decode(self, name, request, seed, snrs_db, zero_frac,
                                      quantize, max_iter):
        code = request.getfixturevalue(name)
        llr = awgn_llrs(code, np.random.default_rng(seed), snrs_db, zero_frac, quantize)
        assert_rows_match(code, llr, max_iter)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), batch=st.integers(1, 5), max_iter=st.integers(1, 3))
    def test_tied_and_zero_llrs_match(self, code48, data, batch, max_iter):
        """Few distinct values: exact zeros and magnitude ties everywhere."""
        llr = data.draw(arrays(np.float64, (batch, code48.n),
                               elements=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                               fill=st.nothing()))
        assert_rows_match(code48, llr, max_iter)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           snrs_db=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    @pytest.mark.parametrize("name", ["code48", "code576"])
    def test_decode_info_batch_equals_rows(self, name, request, seed, snrs_db):
        code = request.getfixturevalue(name)
        llr = awgn_llrs(code, np.random.default_rng(seed), snrs_db)
        expected = np.stack([decode(code, row).bits[code.info_cols] for row in llr])
        np.testing.assert_array_equal(decode_info(code, llr), expected)

    def test_mixed_batch_converges_row_by_row(self, code576):
        """Converged rows leave the batch at their own iteration."""
        llr = awgn_llrs(code576, np.random.default_rng(8), [10.0, -6.0, 0.0, 10.0, -6.0, 0.0])
        _, converged, iterations = ldpc._min_sum(code576, llr, ldpc.DEFAULT_MAX_ITER)
        assert converged.tolist() == [True, False, True, True, False, True]
        assert iterations[0] == iterations[3] == 1
        assert (iterations[[1, 4]] == ldpc.DEFAULT_MAX_ITER).all()
        assert 1 < iterations[2] < ldpc.DEFAULT_MAX_ITER
        assert_rows_match(code576, llr, ldpc.DEFAULT_MAX_ITER)

    def test_golden_decode_results(self, code576):
        """sha256 of (bits, converged, iterations) over AWGN blocks at three SNRs.

        Recorded from the check-major np.partition decoder that the batched
        kernel replaced, so it pins bitwise equality with it.
        """
        rng = np.random.default_rng(11)
        digest = hashlib.sha256()
        for snr_db in (-3.0, -1.5, 0.0):
            for llr in awgn_llrs(code576, rng, [snr_db] * 32):
                result = decode(code576, llr)
                digest.update(result.bits.tobytes())
                digest.update(bytes([result.converged, result.iterations]))
        assert digest.hexdigest() == (
            "000d243c6f5a3ff30b63caf3e6aac716a0acdbbba1cd6fe788c71b147514c5a0")


class TestAlist:
    def test_round_trip_structure(self, code48, tmp_path):
        text = to_alist(code48)
        lines = text.strip().split("\n")
        n, m = map(int, lines[0].split())
        assert (n, m) == (48, 24)
        assert lines[1] == "3 6"
        col_degs = list(map(int, lines[2].split()))
        row_degs = list(map(int, lines[3].split()))
        assert col_degs == [3] * 48
        assert row_degs == [6] * 24
        # rebuild H from the per-column lists and compare
        rebuilt = np.zeros((m, n), dtype=np.uint8)
        for c in range(n):
            for r in map(int, lines[4 + c].split()):
                rebuilt[r - 1, c] = 1
        np.testing.assert_array_equal(rebuilt, dense_h(code48))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encoder_hashes(code) -> tuple[str, str, str]:
    """sha256 of the bytes of `back_sub` (uint8), `pivot_cols` and `info_cols` (int64)."""
    return tuple(sha256(a.tobytes()) for a in (code.back_sub, code.pivot_cols, code.info_cols))


class TestGoldenCodes:
    """The same seed must keep giving the same code, bit for bit.

    The hashes were recorded from the dense-candidate construction, so they
    pin the sampler's RNG draws, the 4-cycle ranking, the rank test and
    the alist text across any rewrite of the construction path. The
    encoder arrays (`back_sub`, `pivot_cols`, `info_cols`) come straight
    from the GF(2) RREF; their hashes were recorded from the one-column-
    per-step elimination, so they pin its output bit for bit.
    """

    @pytest.mark.parametrize("n, seed, alist_sha, k, cycles", [
        (48, 5, "a7c0c85623e2bd1c0b6b63d81b0511ef60d38810ae849daf147342f7b7bc01f5", 24, 14),
        (576, 7, "ddebaa66dcc357b777f36fd5a01c8be788435a23f2be7b7533329a63bb89418e", 288, 17),
    ])
    def test_desk_codes(self, n, seed, alist_sha, k, cycles):
        code = construct(n, seed=seed)
        assert (code.k, code.four_cycles) == (k, cycles)
        assert sha256(to_alist(code).encode()) == alist_sha

    def test_desk_encoder_arrays(self):
        assert encoder_hashes(construct(576, seed=7)) == (
            "e510e5522f483c2c54b2a643b0e3dd4a8e276d2c21e0ef3a16fa57e0060e63af",
            "dec2b7cab191240888b85e4afe3b8d78d25040422511e5c4c7b27572f70d8b23",
            "9c7adf440184f820fb84130dfa9f5406653accbb859b088e126324544c0d124e")

    def test_paper_construction_peak_memory(self):
        """`back_sub` is gathered a block of rows at a time. The (rank, k) byte
        array it replaced (21 MB at n = 9216) put the traced peak at 43 MiB."""
        tracemalloc.start()
        try:
            construct(9216, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_paper_code_and_codeword(self):
        code = construct(9216, seed=7)
        assert (code.k, code.four_cycles) == (4608, 12)
        assert sha256(to_alist(code).encode()) == (
            "b97a1b8bed071add039dfbc811fdfb719a2e0ca2c3a46f3890eeabe39bc32fe4")
        assert encoder_hashes(code) == (
            "236022f4ac9361d61497e8a6a42afd08c38e29f6d5cc260e8bf4fb88c7d60581",
            "8f33fe11e0544610db143f5ca3fd3c24b064b312267cc0712a001a0678ea754a",
            "74303c996fb0f07b8f71e1ca8f86f935dd834732048a7038dfcdf051d97924f3")
        u = np.random.default_rng(2026).integers(0, 2, code.k).astype(np.uint8)
        c = encode(code, u)
        assert sha256(c.tobytes()) == (
            "a3212f975c47acfbdcbfbc45009df357f041abbbbae4a794aaac3ce527e334df")
        assert not syndrome(code, c).any()
