"""Binary parameter checkpoint format."""

import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from axialrx.autodiff import Tensor
from axialrx.checkpoint import MAGIC, CheckpointError, load, save
from axialrx.layers import Receiver, ReceiverConfig


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "b.weight": Tensor(rng.standard_normal((3, 4))),
        "a.scalar": Tensor(np.array(2.5)),
        "c.vec": Tensor(rng.standard_normal(7)),
    }
    path = tmp_path / "model.axrx"
    save(params, str(path))
    loaded = load(str(path))
    assert set(loaded) == set(params)
    for name, tensor in params.items():
        np.testing.assert_array_equal(loaded[name], tensor.data)


def test_lexicographic_order_and_magic(tmp_path):
    path = tmp_path / "ordered.axrx"
    save({"zz": Tensor(np.ones(1)), "aa": Tensor(np.zeros(1))}, str(path))
    blob = path.read_bytes()
    assert blob.startswith(MAGIC)
    assert blob.find(b"aa") < blob.find(b"zz")


def test_deterministic_bytes(tmp_path):
    params = {"w": Tensor(np.arange(6.0).reshape(2, 3)), "b": Tensor(np.zeros(3))}
    p1, p2 = tmp_path / "one.axrx", tmp_path / "two.axrx"
    save(params, str(p1))
    save(params, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.axrx"
    path.write_bytes(b"NOTAX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load(str(path))


def test_truncated_rejected(tmp_path):
    path = tmp_path / "good.axrx"
    save({"w": Tensor(np.ones((4, 4)))}, str(path))
    clipped = tmp_path / "clipped.axrx"
    clipped.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load(str(clipped))


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "nan.axrx"
    save({"a.ok": Tensor(np.ones(2)), "b.bad": Tensor(np.array([1.0, np.nan]))}, str(path))
    with pytest.raises(CheckpointError, match=r"nan\.axrx.*'b\.bad'"):
        load(str(path))
    save({"w": Tensor(np.array([-np.inf]))}, str(path))
    with pytest.raises(CheckpointError, match="'w'"):
        load(str(path))


def test_repeated_name_rejected(tmp_path):
    one, two = tmp_path / "one.axrx", tmp_path / "two.axrx"
    save({"w": Tensor(np.ones(3))}, str(one))
    save({"w": Tensor(np.zeros(3))}, str(two))
    doubled = tmp_path / "doubled.axrx"
    doubled.write_bytes(one.read_bytes() + two.read_bytes()[len(MAGIC):])
    with pytest.raises(CheckpointError, match=r"doubled\.axrx.*'w'"):
        load(str(doubled))


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "latin1.axrx"
    name = "\u00e9".encode("latin-1")
    # one rank-0 record: name length, name, rank 0, one float64
    path.write_bytes(MAGIC + struct.pack("<I", len(name)) + name + struct.pack("<Id", 0, 1.0))
    with pytest.raises(CheckpointError, match=r"latin1\.axrx.*UTF-8"):
        load(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load(str(tmp_path / "absent.axrx"))


def test_receiver_state_round_trip(tmp_path):
    cfg = ReceiverConfig(variant="axial", t=3, f=4, n_rx=1, d=8, heads=2, n_blocks=1,
                         bits_per_symbol=2)
    model = Receiver(cfg, seed=0)
    path = tmp_path / "rx.axrx"
    save(model.named_parameters(), str(path))
    clone = Receiver(cfg, seed=99)
    clone.load_state(load(str(path)))
    for name, tensor in model.named_parameters().items():
        np.testing.assert_array_equal(clone.named_parameters()[name].data, tensor.data)


PARAMETERS = st.dictionaries(
    st.text(st.characters(codec="utf-8"), max_size=8),
    st.lists(st.integers(0, 3), max_size=4).flatmap(
        lambda shape: hnp.arrays(np.float64, tuple(shape),
                                 elements=st.floats(allow_nan=False, allow_infinity=False))),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(params=PARAMETERS)
def test_round_trip_property(params):
    """Any UTF-8 names and ranks 0-4, zero-size dims included, load back
    bitwise."""
    tensors = {name: Tensor(value) for name, value in params.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.axrx")
        save(tensors, path)
        loaded = load(path)
    assert list(loaded) == sorted(params)
    for name, value in params.items():
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()


@pytest.mark.parametrize("value", [2.5, -0.0, np.nan])
def test_loads_rank_zero_record(tmp_path, value):
    """A rank-0 record has no dims and one float64; it loads as shape (),
    or is rejected by name if it is not finite."""
    path = tmp_path / "scalar.axrx"
    path.write_bytes(MAGIC + struct.pack("<I", 3) + "né".encode("utf-8")
                     + struct.pack("<I", 0) + struct.pack("<d", value))
    if np.isnan(value):
        with pytest.raises(CheckpointError, match=re.escape(repr("né"))):
            load(str(path))
        return
    loaded = load(str(path))
    assert list(loaded) == ["né"]
    assert loaded["né"].shape == ()
    assert loaded["né"].tobytes() == np.float64(value).tobytes()


@settings(max_examples=40, deadline=None)
@given(params=PARAMETERS, pick=st.integers(0, 2**16), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_payload_rejected_property(params, pick, bad):
    """One NaN or inf anywhere is rejected with the parameter's name in the message."""
    sized = sorted(name for name, value in params.items() if value.size)
    assume(sized)
    name = sized[pick % len(sized)]
    poisoned = params[name].copy()
    poisoned.reshape(-1)[pick % poisoned.size] = bad
    params = {**params, name: poisoned}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.axrx")
        save({n: Tensor(value) for n, value in params.items()}, path)
        with pytest.raises(CheckpointError, match=re.escape(repr(name))):
            load(path)
