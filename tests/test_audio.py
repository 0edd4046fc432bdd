import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldrec.audio import (DEFAULT_HOP, DEFAULT_SAMPLE_RATE, Spectrogram, load_spectrogram,
                           sample_patch, save_spectrogram, synth_spectrogram)
from coldrec.data import DataError


def make_spec(bins=8, frames=100, seed=0):
    rng = np.random.default_rng(seed)
    return Spectrogram(rng.random((bins, frames)).astype(np.float32))


def frame_indexed(bins=8, frames=100):
    """A spectrogram whose every value is its frame index, so a patch's first
    value is its start frame."""
    return Spectrogram(np.tile(np.arange(frames, dtype=np.float32), (bins, 1)))


def start_of(patch) -> int:
    return int(patch[0, 0])


class TestSamplePatch:
    def test_exact_length_forces_start_zero(self):
        s = frame_indexed(frames=50)
        patch = sample_patch(s, 50, seed=3)
        assert start_of(patch) == 0 and patch.dtype == np.float32
        assert np.array_equal(patch, s.data)

    def test_start_within_bounds(self):
        s = frame_indexed(frames=1000)
        for seed in range(20):
            assert 0 <= start_of(sample_patch(s, 323, seed=seed)) <= 677

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            sample_patch(make_spec(frames=100), 323, seed=0)

    def test_patch_is_contiguous_slice(self):
        s = frame_indexed(frames=200)
        patch = sample_patch(s, 64, seed=9, item_id="song7")
        start = start_of(patch)
        assert np.array_equal(patch, s.data[:, start:start + 64])

    def test_deterministic_per_item_and_seed(self):
        s = frame_indexed(frames=400)
        p1 = sample_patch(s, 100, seed=7, item_id="x")
        p2 = sample_patch(s, 100, seed=7, item_id="x")
        assert np.array_equal(p1, p2)

    def test_different_items_differ_eventually(self):
        s = frame_indexed(frames=4000)
        starts = {start_of(sample_patch(s, 100, seed=7, item_id=f"i{j}")) for j in range(20)}
        assert len(starts) > 1


class TestSynth:
    def test_zero_weights_zero_noise(self):
        s = synth_spectrogram(8, 10, np.zeros(4), seed=0, noise=0.0)
        assert np.array_equal(s.data, np.zeros((8, 10)))

    def test_deterministic(self):
        w = np.array([1.0, 0.5, 2.0])
        s1 = synth_spectrogram(12, 30, w, seed=4, noise=0.1)
        s2 = synth_spectrogram(12, 30, w, seed=4, noise=0.1)
        assert np.array_equal(s1.data, s2.data)

    def test_weighted_band_dominates(self):
        n_templates = 4
        bins = 16
        for j in range(n_templates):
            w = np.zeros(n_templates)
            w[j] = 3.0
            s = synth_spectrogram(bins, 40, w, seed=1, noise=0.05)
            band = bins // n_templates
            means = [s.data[b * band:(b + 1) * band].mean() for b in range(n_templates)]
            assert means[j] > max(m for b, m in enumerate(means) if b != j)

    def test_non_negative(self):
        s = synth_spectrogram(8, 20, np.array([1.0, 2.0]), seed=3, noise=0.2)
        assert np.all(s.data >= 0)


class TestSpectrogramFile:
    def test_round_trip_bit_exact(self, tmp_path):
        s = make_spec(96, 37, seed=11)
        path = tmp_path / "x.cqts"
        save_spectrogram(s, path)
        loaded = load_spectrogram(path)
        assert np.array_equal(loaded.data, s.data)
        # the header carries the default sample rate and hop
        assert path.read_bytes()[:24] == b"CQTS" + struct.pack(
            "<IIIII", 1, 96, 37, DEFAULT_SAMPLE_RATE, DEFAULT_HOP)

    def test_header_rate_and_hop_are_not_read(self, tmp_path):
        s = make_spec(4, 9, seed=2)
        path = tmp_path / "x.cqts"
        path.write_bytes(b"CQTS" + struct.pack("<IIIII", 1, 4, 9, 44100, 512)
                         + s.data.astype("<f4").tobytes())
        assert np.array_equal(load_spectrogram(path).data, s.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cqts"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            load_spectrogram(path)

    def test_truncated_payload(self, tmp_path):
        s = make_spec(4, 4)
        path = tmp_path / "x.cqts"
        save_spectrogram(s, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="payload"):
            load_spectrogram(path)

    @settings(max_examples=20, deadline=None)
    @given(bins=st.integers(1, 16), frames=st.integers(1, 32), seed=st.integers(0, 100))
    def test_round_trip_property(self, tmp_path_factory, bins, frames, seed):
        s = make_spec(bins, frames, seed)
        path = tmp_path_factory.mktemp("cqts") / "s.cqts"
        save_spectrogram(s, path)
        assert np.array_equal(load_spectrogram(path).data, s.data)
