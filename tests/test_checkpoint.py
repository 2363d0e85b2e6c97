"""Checkpoint serialization: bit-exact round trips and typed failures."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleshape import pca
from bundleshape.checkpoint import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)
from bundleshape.features import fit_standardizer
from bundleshape.io import BadMagic, BadVersion, BundleIOError, MalformedHeader, TruncatedFile
from bundleshape.net import init_params


def make_checkpoint(variant="full"):
    rng = np.random.default_rng(0)
    model = pca.fit(rng.normal(size=(40, 10)) * rng.uniform(1, 5, size=10), k=5)
    std = None
    if variant in ("full", "multimodal"):
        std = fit_standardizer(rng.uniform(10, 400, size=(40, 2)))
    return Checkpoint(
        config=TrainConfig(variant=variant),
        params=init_params(variant, seed=1),
        pca=model,
        standardizer=std,
    )


def edited(blob, edit):
    """Re-encode a checkpoint blob after ``edit(header, payloads)`` has
    changed its JSON header and its array name -> raw bytes map."""
    (hlen,) = struct.unpack_from("<I", blob, 5)
    header = json.loads(blob[9 : 9 + hlen])
    payloads, pos = {}, 9 + hlen
    for entry in header["arrays"]:
        nbytes = 8 * int(np.prod(entry["shape"]))
        payloads[entry["name"]] = blob[pos : pos + nbytes]
        pos += nbytes
    edit(header, payloads)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(payloads[entry["name"]] for entry in header["arrays"])
    return blob[:5] + struct.pack("<I", len(new)) + new + body


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["full", "vanilla"])
    def test_bit_exact(self, variant):
        ckpt = make_checkpoint(variant)
        blob = save_checkpoint(ckpt)
        loaded = load_checkpoint(blob)
        assert save_checkpoint(loaded) == blob
        assert loaded.config == ckpt.config
        for k in ckpt.params:
            np.testing.assert_array_equal(loaded.params[k], ckpt.params[k])
        np.testing.assert_array_equal(loaded.pca.components, ckpt.pca.components)
        if variant == "full":
            np.testing.assert_array_equal(loaded.standardizer.mean, ckpt.standardizer.mean)
        else:
            assert loaded.standardizer is None

    def test_deterministic_bytes(self):
        assert save_checkpoint(make_checkpoint()) == save_checkpoint(make_checkpoint())


class TestFailures:
    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_checkpoint(b"NOPE" + b"\x00" * 32)

    def test_bad_version(self):
        blob = bytearray(save_checkpoint(make_checkpoint()))
        blob[4] = 9
        with pytest.raises(BadVersion):
            load_checkpoint(bytes(blob))

    def test_truncations(self):
        blob = save_checkpoint(make_checkpoint())
        for cut in (2, 6, 40, len(blob) - 5):
            with pytest.raises(TruncatedFile):
                load_checkpoint(blob[:cut])

    @pytest.mark.parametrize("key", ["epochs", "sched_period"])
    def test_config_value_below_one(self, key):
        blob = edited(save_checkpoint(make_checkpoint()), lambda h, _: h["config"].update({key: 0}))
        with pytest.raises(MalformedHeader, match=key):
            load_checkpoint(blob)

    def test_unknown_config_key(self):
        blob = edited(save_checkpoint(make_checkpoint()), lambda h, _: h["config"].update(bogus=1))
        with pytest.raises(MalformedHeader, match="bogus"):
            load_checkpoint(blob)

    @pytest.mark.parametrize("name", ["tab.sd", "pca.components", "net.head0.b"])
    def test_missing_array(self, name):
        def drop(header, _):
            header["arrays"] = [e for e in header["arrays"] if e["name"] != name]

        with pytest.raises(MalformedHeader, match=name):
            load_checkpoint(edited(save_checkpoint(make_checkpoint()), drop))

    def test_wrong_param_shape(self):
        def reshape(header, _):
            (entry,) = [e for e in header["arrays"] if e["name"] == "net.head0.b"]
            entry["shape"] = [2, 64]  # same 128 values, wrong shape

        with pytest.raises(MalformedHeader, match="head0.b"):
            load_checkpoint(edited(save_checkpoint(make_checkpoint()), reshape))


    def test_trailing_bytes(self):
        with pytest.raises(MalformedHeader, match="trailing"):
            load_checkpoint(save_checkpoint(make_checkpoint()) + b"garbage!")

    @pytest.mark.parametrize("header", [b'{"arrays": "\xff"}', b"{not json"], ids=["not_utf8", "not_json"])
    def test_undecodable_header(self, header):
        blob = save_checkpoint(make_checkpoint())[:5] + struct.pack("<I", len(header)) + header
        with pytest.raises(MalformedHeader, match="Decode"):
            load_checkpoint(blob)

    @pytest.mark.parametrize(
        "index, shape",
        [
            (0, [2.5]),
            (0, ["a"]),
            # The last array (tab.sd) would take exactly the bytes left over.
            (-1, [-1]),
            (0, [-2, -3]),
            (-1, [1] * 70 + [2]),
        ],
        ids=["float", "str", "minus_one", "negative_pair", "71_dims"],
    )
    def test_bad_shape(self, index, shape):
        def set_shape(header, _):
            header["arrays"][index]["shape"] = shape

        with pytest.raises(MalformedHeader, match="bad array table entry"):
            load_checkpoint(edited(save_checkpoint(make_checkpoint()), set_shape))


BLOB = save_checkpoint(make_checkpoint("vanilla"))
HEADER_END = 9 + struct.unpack_from("<I", BLOB, 5)[0]


def load_or_typed_error(blob):
    """Load a damaged blob: it may load, or raise a BundleIOError subclass."""
    try:
        load_checkpoint(blob)
    except BundleIOError:
        pass


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, len(BLOB) - 1))
    def test_truncated(self, cut):
        with pytest.raises(TruncatedFile):
            load_checkpoint(BLOB[:cut])

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=64))
    def test_appended(self, tail):
        with pytest.raises(BundleIOError):
            load_checkpoint(BLOB + tail)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # Mostly in the magic, length and JSON header; sometimes anywhere.
                st.one_of(st.integers(0, HEADER_END - 1), st.integers(0, len(BLOB) - 1)),
                st.integers(1, 255),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_flipped(self, flips):
        blob = bytearray(BLOB)
        for pos, mask in flips:
            blob[pos] ^= mask
        load_or_typed_error(bytes(blob))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="nope")
        with pytest.raises(ValueError):
            TrainConfig(batch_size=7)
        with pytest.raises(ValueError):
            TrainConfig(lam_pair=-1.0)
