"""Fast invariant suite behind the `selftest` CLI subcommand.

Each check returns (name, ok, detail); the whole suite runs in seconds.
Checks call library functions through their modules so that an injected
fault (e.g. a broken softmax) is actually exercised.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from . import baseline, complexity, ldpc, layers, phy, streams, trainer
from .layers import AttentionWeights


FD_STEP = 1e-5
FD_TOL = 1e-4
FD_ABS_FLOOR = 1e-7


def gradcheck(build_loss, leaves) -> float:
    """Compare tape gradients against central differences of step FD_STEP.

    `build_loss` must construct the graph from scratch on each call,
    reading the current contents of every leaf in `leaves`. Each gradient
    component must match within relative FD_TOL, unless it differs by at
    most FD_ABS_FLOOR. Returns the worst relative error seen; raises
    AssertionError naming the leaf shape and index of the first mismatch.
    """
    with ad.Tape() as tape:
        loss = build_loss()
    grads = ad.backward(loss, tape, leaves=leaves)
    worst = 0.0
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        analytic = grads[leaf].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + FD_STEP
            up = build_loss().item()
            flat[idx] = keep - FD_STEP
            down = build_loss().item()
            flat[idx] = keep
            fd = (up - down) / (2.0 * FD_STEP)
            diff = abs(analytic[idx] - fd)
            if diff > FD_ABS_FLOOR:
                rel = diff / max(abs(analytic[idx]), abs(fd))
                worst = max(worst, rel)
                if rel >= FD_TOL:
                    raise AssertionError(
                        f"gradient mismatch at leaf shape {leaf.shape} index {idx}: "
                        f"autodiff {analytic[idx]:.8e} vs finite-diff {fd:.8e} (rel {rel:.3e})")
    return worst


def check_gradients() -> tuple[str, bool, str]:
    rng = np.random.default_rng(0)
    a = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    gamma = ad.Tensor(np.ones(4), requires_grad=True)
    beta = ad.Tensor(np.zeros(4), requires_grad=True)
    cw = ad.Tensor(rng.standard_normal((3, 3, 2, 2)) * 0.5, requires_grad=True)
    cb = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    cx = ad.Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)

    try:
        gradcheck(lambda: ad.mean_all(ad.softmax(ad.layer_norm(ad.matmul(a, w), gamma, beta),
                                                 axis=1) * ad.matmul(a, w)),
                  [a, w, gamma, beta])
        gradcheck(lambda: ad.mean_all(ad.conv2d(cx, cw, cb) * ad.conv2d(cx, cw, cb)),
                  [cx, cw, cb])
    except AssertionError as err:
        return ("gradient finite-difference", False, str(err))
    return ("gradient finite-difference", True, "matmul/softmax/layer_norm/conv2d")


def check_attention_gradients() -> tuple[str, bool, str]:
    """Finite differences of the attention op receivers run, products through
    `layers.bmm`: one chunk, then, at a cap of 6 scores, each (sequence, head)
    in query rows 0:2, 2:3. Those 8 chunks run on at least 2 streams, with
    the interpreter switching threads as often as it can, so streams that
    shared a score buffer would overwrite each other's probabilities."""
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = AttentionWeights(4, 2, rng)
    r = ad.Tensor(rng.standard_normal((2, 3, 4)))
    leaves = [x, w.wq, w.wk, w.wv, w.wo]

    def loss():
        return ad.sum_all(layers.attend(x, w) * r)

    cap, cpus, interval = layers.CORE_CHUNK_SCORES, streams.cpus, sys.getswitchinterval()
    try:
        gradcheck(loss, leaves)
        layers.CORE_CHUNK_SCORES = 6
        streams.cpus = lambda: max(2, cpus())
        sys.setswitchinterval(1e-6)
        gradcheck(loss, leaves)
    except AssertionError as err:
        return ("attention gradient finite-difference", False, str(err))
    finally:
        layers.CORE_CHUNK_SCORES = cap
        streams.cpus = cpus
        sys.setswitchinterval(interval)
    return ("attention gradient finite-difference", True,
            "one chunk and row-split chunks on 2+ streams")


def check_conv_row_blocks() -> tuple[str, bool, str]:
    """`conv2d` of a 2-grid stack of 7 rows at a product cap of 1, so each
    row is a block. The 7 blocks run on at least 2 streams, with the
    interpreter switching threads as often as it can, so streams that
    shared a product buffer would overwrite each other's products. The
    output must be bitwise that of one block, and finite differences of the
    split forward must match the taped gradients."""
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.standard_normal((2, 7, 4, 3)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((3, 3, 3, 2)) * 0.5, requires_grad=True)
    b = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    r = ad.Tensor(rng.standard_normal((2, 7, 4, 2)))
    name = "conv2d row blocks on 2+ streams"
    whole = ad.conv2d(x, w, b).data.tobytes()
    cap, cpus, interval = ad.CONV_BLOCK_PRODUCT, streams.cpus, sys.getswitchinterval()
    try:
        ad.CONV_BLOCK_PRODUCT = 1
        streams.cpus = lambda: max(2, cpus())
        sys.setswitchinterval(1e-6)
        if ad.conv2d(x, w, b).data.tobytes() != whole:
            return (name, False, "7 row blocks differ from one block")
        gradcheck(lambda: ad.sum_all(ad.conv2d(x, w, b) * r), [x, w, b])
    except AssertionError as err:
        return (name, False, str(err))
    finally:
        ad.CONV_BLOCK_PRODUCT = cap
        streams.cpus = cpus
        sys.setswitchinterval(interval)
    return (name, True, "7 row blocks bitwise one block, gradients")


def check_feed_forward_gradients() -> tuple[str, bool, str]:
    """Finite differences of the feed-forward op receivers run. b1 puts every
    pre-activation at least 0.5 from the ReLU kink: even hidden units are
    active at all positions, odd ones at none."""
    rng = np.random.default_rng(6)
    x = ad.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = layers.FeedForward(4, 5, rng)
    pre = x.data.reshape(-1, 4) @ w.w1.data
    w.b1.data = np.where(np.arange(5) % 2 == 0, 0.5 - pre.min(axis=0), -0.5 - pre.max(axis=0))
    w.b2.data = rng.standard_normal(4)
    r = ad.Tensor(rng.standard_normal((2, 3, 4)))
    try:
        gradcheck(lambda: ad.sum_all(layers.feed_forward(x, w) * r),
                  [x, w.w1, w.b1, w.w2, w.b2])
    except AssertionError as err:
        return ("feed-forward gradient finite-difference", False, str(err))
    return ("feed-forward gradient finite-difference", True, "active and inactive units")


def check_bce_gradients() -> tuple[str, bool, str]:
    """Finite differences of the masked BCE-with-logits loss over logits of
    both signs, with a mask that drops every third position. No logit is
    exactly 0: there the op returns its composed graph's gradient, -bits,
    where the loss's derivative is 1/2 - bits (ROADMAP, open items)."""
    rng = np.random.default_rng(7)
    x = ad.Tensor(rng.standard_normal((3, 4, 2)) * 2.0, requires_grad=True)
    bits = rng.integers(0, 2, (3, 4, 2)).astype(np.float64)
    mask = np.broadcast_to((np.arange(12) % 3 != 0).reshape(3, 4, 1), x.shape)
    try:
        gradcheck(lambda: ad.bce_with_logits(x, bits, mask), [x])
    except AssertionError as err:
        return ("BCE gradient finite-difference", False, str(err))
    return ("BCE gradient finite-difference", True, "both signs, partial mask")


def check_softmax_rows() -> tuple[str, bool, str]:
    rng = np.random.default_rng(1)
    y = ad.softmax(ad.Tensor(rng.standard_normal((8, 13)) * 20.0), axis=1)
    sums = y.data.sum(axis=1)
    shifted = ad.softmax(ad.Tensor(rng.standard_normal((4, 7))), axis=1)
    ok = bool(np.abs(sums - 1.0).max() < 1e-12 and np.isfinite(y.data).all()
              and np.abs(shifted.data.sum(axis=1) - 1.0).max() < 1e-12)
    return ("softmax normalization", ok, f"max row-sum error {np.abs(sums - 1.0).max():.2e}")


def check_degenerate_equivalence() -> tuple[str, bool, str]:
    rng = np.random.default_rng(2)
    worst = 0.0
    for seed in range(8):
        w = AttentionWeights(8, 2, np.random.default_rng(seed))
        x_col = ad.Tensor(rng.standard_normal((9, 1, 8)))
        d1 = np.abs(layers.axial_time_attention(x_col, w).data
                    - layers.global_mhsa(x_col, w).data).max()
        x_row = ad.Tensor(rng.standard_normal((1, 9, 8)))
        d2 = np.abs(layers.axial_freq_attention(x_row, w).data
                    - layers.global_mhsa(x_row, w).data).max()
        worst = max(worst, d1, d2)
    return ("axial/global degenerate equivalence", worst < 1e-10, f"max diff {worst:.2e}")


def check_stacked_forward() -> tuple[str, bool, str]:
    """A forward of a stack of 3 tiny grids gives each grid its own forward's
    LLRs, for every variant: an op that mixes the block axis with a grid
    axis changes a stacked forward but no single-grid one. The evaluation
    receiver, with its slice cap lowered to one grid, must give the stack
    the bits of its single grids too: its 3 slices run on up to 3 threads."""
    rng = np.random.default_rng(8)
    y = rng.standard_normal((3, 4, 3, 1)) + 1j * rng.standard_normal((3, 4, 3, 1))
    grid = phy.ResourceGrid(y=y, bits=np.zeros((3, 4, 3, 2)), pilot_mask=np.zeros((4, 3), bool),
                            n0=0.5)
    worst = 0.0
    cap = trainer.STACK_ELEMENTS
    try:
        trainer.STACK_ELEMENTS = 4 * 3 * 4  # T*F*width of one grid
        for variant in layers.VARIANTS:
            cfg = layers.ReceiverConfig(variant=variant, t=4, f=3, n_rx=1, d=4, heads=2,
                                        n_blocks=1, bits_per_symbol=2, resnet_units=1,
                                        resnet_channels=4)
            model = layers.Receiver(cfg, seed=9)
            model.output_conv.w.data = rng.standard_normal(model.output_conv.w.shape)
            stacked = model.forward(grid).data
            single = [model.forward(grid[b]).data for b in range(3)]
            worst = max(worst, float(np.abs(stacked - np.stack(single)).max()))
            receive = trainer.neural_receiver(model)
            sliced = receive(grid, {})
            single = [receive(grid[b], {}) for b in range(3)]
            worst = max(worst, float(np.abs(sliced - np.stack(single)).max()))
    finally:
        trainer.STACK_ELEMENTS = cap
    return ("stacked forward equals single grids", worst < 1e-12, f"max diff {worst:.2e}")


def check_demapper() -> tuple[str, bool, str]:
    from .phy import Constellation

    rng = np.random.default_rng(3)
    qpsk = Constellation.make(4)
    nu = np.exp(rng.uniform(np.log(0.02), np.log(1.0), 2000))
    x = qpsk.points[rng.integers(0, 4, 2000)] + \
        (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * np.sqrt(nu / 2)
    qpsk_gap = np.abs(baseline.maxlog_demap(x, nu, qpsk)
                      - baseline.exact_demap(x, nu, qpsk)).max()
    qam = Constellation.make(16)
    nu16 = np.exp(rng.uniform(np.log(0.02), np.log(0.5), 20000))
    x16 = qam.points[rng.integers(0, 16, 20000)] + \
        (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) * np.sqrt(nu16 / 2)
    ml = baseline.maxlog_demap(x16, nu16, qam)
    ex = baseline.exact_demap(x16, nu16, qam)
    mask = np.abs(ex) > 0.5
    signs_ok = bool((np.sign(ml[mask]) == np.sign(ex[mask])).all())
    ok = qpsk_gap < 1e-9 and signs_ok
    return ("max-log vs exact demapper", ok,
            f"QPSK gap {qpsk_gap:.2e}, 16-QAM sign agreement {signs_ok}")


def check_ldpc() -> tuple[str, bool, str]:
    code = ldpc.construct(48, seed=5)
    rng = np.random.default_rng(4)
    c = ldpc.encode(code, rng.integers(0, 2, code.k))
    base = np.where(c == 1, 20.0, -20.0)
    clean = ldpc.decode(code, base)
    ok = clean.converged and (clean.bits == c).all()
    for position in range(code.n):
        llr = base.copy()
        llr[position] = -llr[position]
        result = ldpc.decode(code, llr)
        ok = ok and result.converged and (result.bits == c).all()
    return ("LDPC round trip and single-flip sweep", bool(ok), f"n={code.n}, k={code.k}")


def check_flops() -> tuple[str, bool, str]:
    ok = True
    for t in (2, 5, 14, 16):
        for f in (2, 17, 64, 128):
            for d in (8, 32, 128):
                lhs = Fraction(complexity.attn_flops_global(t, f, d),
                               complexity.attn_flops_axial(t, f, d))
                ok = ok and lhs == Fraction(t * f, t + f)
    printed = f"{complexity.reduction_factor(14, 128):.2f}"
    ok = ok and printed == "12.62"
    return ("attention FLOP reduction identity", bool(ok), f"T=14 F=128 factor {printed}")


ALL_CHECKS = (
    check_gradients,
    check_attention_gradients,
    check_conv_row_blocks,
    check_feed_forward_gradients,
    check_bce_gradients,
    check_softmax_rows,
    check_degenerate_equivalence,
    check_stacked_forward,
    check_demapper,
    check_ldpc,
    check_flops,
)


def run() -> bool:
    all_ok = True
    for check in ALL_CHECKS:
        try:
            name, ok, detail = check()
        except Exception as err:  # a crashed check is a failed check
            name, ok, detail = check.__name__, False, f"raised {err!r}"
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name:<40} {detail}")
    return all_ok
