"""Binary parameter checkpoint format."""

import numpy as np
import pytest

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
