"""The FLOP counter's nested buckets and the attention core's bucket."""

import numpy as np
import pytest

from axialrx import flopcount
from axialrx.autodiff import Tensor
from axialrx.flopcount import FlopCounter
from axialrx.layers import AttentionWeights, attend


class TestBuckets:
    def test_nested_names_join(self):
        with FlopCounter() as counter:
            with flopcount.bucket("block00"):
                flopcount.add(3)
                with flopcount.bucket("#core"):
                    flopcount.add(5)
                flopcount.add(7)
        assert counter.buckets == {"block00": 10, "block00#core": 5}
        assert counter.total == 15

    def test_counts_outside_every_bucket_land_in_other(self):
        with FlopCounter() as counter:
            flopcount.add(2)
            with flopcount.bucket("pos"):
                flopcount.add(4)
            flopcount.add(1)
        assert counter.buckets == {"other": 3, "pos": 4}

    def test_name_restored_after_exception(self):
        with FlopCounter() as counter:
            with flopcount.bucket("block01"):
                with pytest.raises(RuntimeError):
                    with flopcount.bucket("#core"):
                        raise RuntimeError("inside the core")
                flopcount.add(6)
            flopcount.add(1)
        assert counter.buckets == {"block01": 6, "other": 1}

    def test_bucket_without_counter_records_nothing(self):
        with flopcount.bucket("block00"):
            flopcount.add(9)
        with FlopCounter() as counter:
            flopcount.add(1)
        assert counter.buckets == {"other": 1}

    def test_bare_attend_charges_its_two_products_to_core(self):
        s, length, d, heads = 3, 5, 8, 2
        w = AttentionWeights(d, heads, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((s, length, d)))
        with FlopCounter() as counter:
            attend(x, w)
        dh = d // heads
        bmm_pair = 2 * (2 * s * heads * length * length * dh)
        assert counter.buckets["#core"] == bmm_pair
        assert set(counter.buckets) == {"#core", "other"}
