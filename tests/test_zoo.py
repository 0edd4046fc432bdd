import contextlib
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest

from coldrec import nn, zoo
from coldrec.nn import LayerSpec, NetworkSpec, infer_shapes, init_params, net_forward
from coldrec.zoo import (TrainConfig, build_artist_net, build_fusion_net,
                         build_single_branch_net, build_track_net, eval_loss,
                         extract_embeddings, predict_factors, train_mapping)


class TestArtistNet:
    def test_dimensions(self):
        net = build_artist_net(vocab_size=10000, k=200)
        shapes = infer_shapes(net)
        dense_widths = [shapes[f"trunk/{i}"][0]
                        for i, layer in enumerate(net.trunk) if layer.kind == "dense"]
        assert dense_widths == [2048, 2048, 200]

    def test_embed_tap_is_second_hidden_layer(self):
        net = build_artist_net(vocab_size=50, k=8)
        shapes = infer_shapes(net)
        assert shapes[f"trunk/{net.embed_tap % len(net.trunk)}"] == (2048,)

    def test_bad_vocab_rejected(self):
        with pytest.raises(ValueError):
            build_artist_net(vocab_size=0, k=8)

    def test_output_unit_norm(self):
        net = build_artist_net(vocab_size=30, k=8)
        params = init_params(net, 0)
        x = np.abs(np.random.default_rng(0).normal(size=(5, 30)))
        y, _, _ = net_forward(net, params, x, mode="eval")
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-6)


class TestTrackNet:
    # the pyramid leaves 1, 1, 2 and 5 frames; the final pool takes them all
    PATCH_LENGTHS = [64, 96, 150, 323]

    @pytest.mark.parametrize("frames", PATCH_LENGTHS)
    def test_flatten_width_full_scale(self, frames):
        net = build_track_net(bins=96, frames=frames, k=200, scale=1.0)
        shapes = infer_shapes(net)
        flat = [shapes[f"trunk/{i}"]
                for i, layer in enumerate(net.trunk) if layer.kind == "flatten"]
        assert flat == [(1024,)]

    @pytest.mark.parametrize("frames", PATCH_LENGTHS)
    def test_flatten_width_reduced_scale(self, frames):
        net = build_track_net(bins=32, frames=frames, k=16, scale=0.125)
        shapes = infer_shapes(net)
        flat = [shapes[f"trunk/{i}"]
                for i, layer in enumerate(net.trunk) if layer.kind == "flatten"]
        assert flat == [(128,)]

    def test_filter_progression(self):
        net = build_track_net(bins=96, frames=323, k=200, scale=1.0)
        filters = [layer.filters for layer in net.trunk if layer.kind == "conv1d_time"]
        assert filters == [256, 512, 1024, 1024]

    def test_minimum_frames_enforced(self):
        with pytest.raises(ValueError):
            build_track_net(bins=96, frames=63, k=200)
        build_track_net(bins=96, frames=64, k=200)  # boundary is fine

    def test_output_unit_norm(self):
        net = build_track_net(bins=8, frames=64, k=6, scale=1 / 64)
        params = init_params(net, 0)
        x = np.abs(np.random.default_rng(1).normal(size=(3, 8, 64)))
        y, _, _ = net_forward(net, params, x, mode="eval")
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-6)


class TestFusionNets:
    def test_lin_concat_width(self):
        net = build_fusion_net("lin", dim_a=2048, dim_t=4096, k=200)
        shapes = infer_shapes(net)
        assert shapes["trunk/0"] == (6144,)

    def test_h1_concat_width(self):
        net = build_fusion_net("h1", dim_a=2048, dim_t=4096, k=200)
        shapes = infer_shapes(net)
        assert shapes["trunk/0"] == (1024,)

    def test_h1_branch_hidden_units(self):
        net = build_fusion_net("h1", dim_a=64, dim_t=64, k=8)
        hidden = [layer.units for branch in net.branches.values()
                  for layer in branch if layer.kind == "dense"]
        assert hidden == [512, 512]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_fusion_net("quadratic", dim_a=4, dim_t=4, k=2)

    @pytest.mark.parametrize("variant", ["lin", "h1"])
    def test_output_unit_norm(self, variant):
        net = build_fusion_net(variant, dim_a=12, dim_t=10, k=6)
        params = init_params(net, 0)
        rng = np.random.default_rng(2)
        inputs = {"artist": rng.normal(size=(4, 12)), "track": rng.normal(size=(4, 10))}
        y, _, _ = net_forward(net, params, inputs, mode="eval")
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-6)

    def test_single_branch_net(self):
        net = build_single_branch_net(dim=32, k=8)
        params = init_params(net, 0)
        x = np.random.default_rng(3).normal(size=(5, 32))
        y, _, _ = net_forward(net, params, x, mode="eval")
        assert y.shape == (5, 8)
        assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-6)


def _toy(n=64, d=12, k=6, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    proj = rng.normal(size=(d, k))
    targets = feats @ proj
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return feats, targets


def _linear_net(d, k):
    return NetworkSpec(trunk=[LayerSpec("dense", units=k), LayerSpec("l2norm")],
                       input_shapes={"": (d,)})


class TestTrainMapping:
    def test_two_batches_per_epoch(self):
        feats, targets = _toy()
        net = _linear_net(12, 6)
        cfg = TrainConfig(batch_size=32, max_epochs=2, patience=10, seed=0)
        _, log = train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)
        assert len(log.epochs) == 2

    def test_learns_realizable_mapping(self):
        feats, targets = _toy()
        net = _linear_net(12, 6)
        cfg = TrainConfig(batch_size=32, max_epochs=1500, patience=1500, seed=0, lr=0.01)
        params, _ = train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)
        pred = predict_factors(net, params, feats)
        cos = np.sum(pred * targets, axis=1)
        assert cos.mean() > 0.99

    def test_bitwise_determinism(self):
        feats, targets = _toy(seed=4)
        net = build_single_branch_net(dim=12, k=6)
        cfg = TrainConfig(batch_size=16, max_epochs=5, patience=5, seed=7)
        p1, l1 = train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)
        p2, l2 = train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)
        for layer in p1:
            for key in p1[layer]:
                assert np.array_equal(p1[layer][key], p2[layer][key])
        assert l1.epochs == l2.epochs

    def test_returns_best_validation_params(self):
        feats, targets = _toy(seed=5)
        net = build_single_branch_net(dim=12, k=6)
        cfg = TrainConfig(batch_size=16, max_epochs=30, patience=30, seed=1)
        params, log = train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)
        assert log.best_val == pytest.approx(min(row[2] for row in log.epochs))
        # the returned params really achieve the best recorded validation loss
        assert eval_loss(net, params, feats[48:], targets[48:]) == pytest.approx(log.best_val)

    def test_patience_stops_early(self):
        feats, targets = _toy(seed=6)
        net = build_single_branch_net(dim=12, k=6)
        cfg = TrainConfig(batch_size=16, max_epochs=500, patience=3, seed=2)
        _, log = train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)
        assert len(log.epochs) < 500
        assert log.epochs[-1][0] - log.best_epoch == 3

    def test_epoch_indexing(self):
        feats, targets = _toy(seed=7)
        net = _linear_net(12, 6)
        cfg = TrainConfig(batch_size=32, max_epochs=3, patience=10, seed=0)
        _, log = train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)
        assert [row[0] for row in log.epochs] == list(range(len(log.epochs)))

    def test_feature_row_mismatch_rejected(self):
        feats, targets = _toy()
        net = _linear_net(12, 6)
        cfg = TrainConfig(batch_size=16, max_epochs=1, patience=1, seed=0)
        with pytest.raises(ValueError):
            train_mapping(net, feats[:40], targets[:48], feats[48:], targets[48:], cfg)

    def test_branched_inputs(self):
        rng = np.random.default_rng(8)
        feats = {"artist": rng.normal(size=(40, 10)), "track": rng.normal(size=(40, 8))}
        targets = rng.normal(size=(40, 4))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        net = build_fusion_net("lin", dim_a=10, dim_t=8, k=4)
        cfg = TrainConfig(batch_size=16, max_epochs=3, patience=10, seed=0)
        fit = {k: v[:32] for k, v in feats.items()}
        val = {k: v[32:] for k, v in feats.items()}
        params, _ = train_mapping(net, fit, targets[:32], val, targets[32:], cfg)
        pred = predict_factors(net, params, feats)
        assert pred.shape == (40, 4)

    def test_nonpositive_learning_rate_rejected(self):
        feats, targets = _toy()
        net = _linear_net(12, 6)
        cfg = TrainConfig(batch_size=16, max_epochs=1, patience=1, seed=0, lr=0.0)
        with pytest.raises(ValueError, match="learning rate"):
            train_mapping(net, feats[:48], targets[:48], feats[48:], targets[48:], cfg)

    def test_empty_validation_set_rejected(self):
        feats, targets = _toy()
        net = _linear_net(12, 6)
        cfg = TrainConfig(batch_size=16, max_epochs=1, patience=1, seed=0)
        with pytest.raises(ValueError, match="at least one validation row"):
            train_mapping(net, feats[:48], targets[:48], feats[:0], targets[:0], cfg)

    def test_callable_features_resampled_per_epoch(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(32, 6))
        targets = rng.normal(size=(32, 3))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        seen = []

        def provider(epoch):
            seen.append(epoch)
            return base + 0.01 * epoch

        net = _linear_net(6, 3)
        cfg = TrainConfig(batch_size=16, max_epochs=3, patience=10, seed=0)
        train_mapping(net, provider, targets, base[:8], targets[:8], cfg)
        assert seen == [0, 1, 2]

    def test_provider_builds_each_epoch_after_the_last_is_released(self):
        """Two epochs' features are never alive at once (train-track's patch stacks)."""
        rng = np.random.default_rng(9)
        base = rng.normal(size=(32, 6))
        targets = rng.normal(size=(32, 3))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        built = []

        def provider(epoch):
            assert all(ref() is None for ref in built), epoch
            feats = base + 0.01 * epoch
            built.append(weakref.ref(feats))
            return feats

        net = _linear_net(6, 3)
        cfg = TrainConfig(batch_size=16, max_epochs=3, patience=10, seed=0)
        train_mapping(net, provider, targets, base[:8], targets[:8], cfg)
        assert len(built) == 3

    def test_same_log_as_textbook_adam(self, monkeypatch):
        """A small artist-shaped net trains to the same log with the library's
        Adam as with Kingma & Ba's per-tensor update on unscaled moments."""
        def textbook_adam(params, grads, state):
            state.t += 1
            b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
            for layer, tensors in grads.items():
                for key, g in tensors.items():
                    g = np.asarray(g)
                    m, v = state.m[layer][key], state.v[layer][key]
                    m[...] = b1 * m + (1 - b1) * g
                    v[...] = b2 * v + (1 - b2) * g * g
                    m_hat, v_hat = m / (1 - b1**state.t), v / (1 - b2**state.t)
                    params[layer][key] -= state.lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)

        rng = np.random.default_rng(8)
        feats = np.abs(rng.normal(size=(80, 40))) * (rng.random((80, 40)) < 0.3)
        targets = feats @ rng.normal(size=(40, 8))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        monkeypatch.setattr(zoo, "ARTIST_HIDDEN", 96)
        net = build_artist_net(vocab_size=40, k=8)
        cfg = TrainConfig(batch_size=16, max_epochs=60, patience=3, seed=3, lr=0.01)
        _, log = train_mapping(net, feats[:64], targets[:64], feats[64:], targets[64:], cfg)
        monkeypatch.setattr(nn, "adam_step", textbook_adam)
        _, book = train_mapping(net, feats[:64], targets[:64], feats[64:], targets[64:], cfg)
        assert 0 < log.best_epoch < log.epochs[-1][0] < cfg.max_epochs - 1  # stopped early
        assert (log.best_epoch, len(log.epochs)) == (book.best_epoch, len(book.epochs))
        assert np.allclose(log.epochs, book.epochs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_nonpositive_epoch_cap_rejected(self, epochs):
        feats, targets = _toy()
        cfg = TrainConfig(batch_size=16, max_epochs=epochs, patience=1, seed=0)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            train_mapping(_linear_net(12, 6), feats[:48], targets[:48], feats[48:],
                          targets[48:], cfg)


    def test_peak_memory_holds_no_resident_best_copy(self):
        """Over improving epochs training holds the parameters, two Adam
        moments and one step's caches: about 3.2x the parameter bytes. The
        best epoch goes to a file; a resident best copy would add 1x (4.2x),
        and a whole dense weight gradient another."""
        net = NetworkSpec(trunk=[LayerSpec("dense", units=1024), LayerSpec("relu"),
                                 LayerSpec("dense", units=8), LayerSpec("l2norm")],
                          input_shapes={"": (1024,)})
        x = np.random.default_rng(0).normal(size=(80, 1024))
        y, _, _ = net_forward(net, init_params(net, 99), x, mode="eval")
        param_bytes = sum(t.nbytes for ts in init_params(net, 0).values() for t in ts.values())
        assert param_bytes >= 8 * 1_000_000
        cfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=0)
        tracemalloc.start()
        try:
            _, log = train_mapping(net, x[:64], y[:64], x[64:], y[64:], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        val = [row[2] for row in log.epochs]
        assert len(val) == 3 and all(b < a for a, b in zip(val, val[1:]))  # every epoch improves
        assert peak < 3.6 * param_bytes, peak / param_bytes

    def test_early_stopping_restores_best_epoch_bytes(self):
        """The returned parameters, batchnorm running statistics included, are
        byte for byte those of the same training cut off after its best epoch."""
        rng = np.random.default_rng(5)
        feats = {"artist": rng.normal(size=(48, 10)), "track": rng.normal(size=(48, 8))}
        targets = rng.normal(size=(48, 4))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        fit = {k: v[:32] for k, v in feats.items()}
        val = {k: v[32:] for k, v in feats.items()}
        net = build_fusion_net("h1", dim_a=10, dim_t=8, k=4)
        cfg = TrainConfig(batch_size=8, max_epochs=30, patience=3, seed=5, lr=0.01)
        params, log = train_mapping(net, fit, targets[:32], val, targets[32:], cfg)
        assert 0 < log.best_epoch < log.epochs[-1][0]  # stopped early, past a better epoch
        cfg.max_epochs = log.best_epoch + 1
        cut, cut_log = train_mapping(net, fit, targets[:32], val, targets[32:], cfg)
        assert cut_log.epochs == log.epochs[:log.best_epoch + 1]
        assert "running_mean" in params["artist/0"]
        assert params.keys() == cut.keys()
        for layer in params:
            assert params[layer].keys() == cut[layer].keys()
            for key in params[layer]:
                assert params[layer][key].tobytes() == cut[layer][key].tobytes(), (layer, key)

    @pytest.mark.parametrize("lr, outcome", [
        (0.001, contextlib.nullcontext()),
        (1e300, pytest.raises(ValueError, match="diverged")),
    ], ids=["finished", "diverged"])
    def test_checkpoint_leaves_nothing_in_tmpdir(self, lr, outcome, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        feats, targets = _toy()
        cfg = TrainConfig(batch_size=16, max_epochs=3, patience=3, seed=0, lr=lr)
        with outcome:
            train_mapping(_linear_net(12, 6), feats[:48], targets[:48], feats[48:],
                          targets[48:], cfg)
        assert list(tmp_path.iterdir()) == []

    def test_short_checkpoint_names_the_tensor(self, monkeypatch):
        monkeypatch.setattr(zoo, "_save_params", lambda params, fh: fh.write(b"\0" * 8))
        # epoch 0 is the best and epoch 1 is not, so the checkpoint is read back
        losses = iter([1.0, 2.0])
        monkeypatch.setattr(zoo, "eval_loss", lambda *a: next(losses))
        feats, targets = _toy()
        cfg = TrainConfig(batch_size=16, max_epochs=2, patience=1, seed=0)
        with pytest.raises(OSError, match="short at trunk/0/W"):
            train_mapping(_linear_net(12, 6), feats[:48], targets[:48], feats[48:],
                          targets[48:], cfg)

    @pytest.mark.parametrize("val_losses, saves, loads", [
        ([3.0, 2.0, 1.0], 2, 0),        # the capped last epoch is the best: no write, no read
        ([3.0, 1.0, 2.0], 2, 1),        # the best epoch is read back
        ([3.0, 2.0, 2.5, 1.5], 2, 0),   # improves again on the last epoch
        ([1.0], 0, 0),                  # one epoch
        ([2.0, 1.0, 3.0, 4.0], 2, 1),   # stopped by patience
    ], ids=["last-best", "middle-best", "late-best", "one-epoch", "patience"])
    def test_checkpoint_io_only_when_read(self, monkeypatch, val_losses, saves, loads):
        """The last epoch's checkpoint is never written, and the checkpoint is read
        back only when a later epoch ran; the returned parameters are always the
        best epoch's bytes."""
        calls = {"save": 0, "load": 0}
        snapshots = []
        losses = iter(val_losses)

        def eval_loss(net, params, *rest):
            snapshots.append({l: {k: v.copy() for k, v in ts.items()} for l, ts in params.items()})
            return next(losses)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(zoo, "eval_loss", eval_loss)
        monkeypatch.setattr(zoo, "_save_params", counted("save", zoo._save_params))
        monkeypatch.setattr(zoo, "_load_params", counted("load", zoo._load_params))
        feats, targets = _toy()
        cfg = TrainConfig(batch_size=16, max_epochs=len(val_losses), patience=2, seed=0)
        params, log = train_mapping(_linear_net(12, 6), feats[:48], targets[:48], feats[48:],
                                    targets[48:], cfg)
        assert len(log.epochs) == len(val_losses)
        assert calls == {"save": saves, "load": loads}
        best = snapshots[log.best_epoch]
        for layer, tensors in params.items():
            for key, value in tensors.items():
                assert value.tobytes() == best[layer][key].tobytes(), (layer, key)


class TestExtraction:
    def test_embedding_tap_width_and_ids(self):
        net = build_artist_net(vocab_size=20, k=6)
        params = init_params(net, 0)
        x = np.abs(np.random.default_rng(0).normal(size=(7, 20)))
        emb, out = extract_embeddings(net, params, x)
        assert emb.shape == (7, 2048)
        assert out.shape == (7, 6)

    @pytest.mark.parametrize("net, x", [
        (build_track_net(bins=4, frames=64, k=5, scale=1 / 64),
         np.random.default_rng(5).random((11, 4, 64))),
        (build_fusion_net("h1", dim_a=6, dim_t=7, k=5),
         {"artist": np.random.default_rng(6).normal(size=(11, 6)),
          "track": np.random.default_rng(7).normal(size=(11, 7))}),
    ], ids=["track", "fusion-h1"])
    def test_outputs_equal_predict_factors(self, net, x):
        params = init_params(net, 4)
        _, out = extract_embeddings(net, params, x, batch_size=4)
        assert np.array_equal(out, predict_factors(net, params, x, batch_size=4))

    def test_predictions_unit_norm(self):
        net = build_single_branch_net(dim=20, k=6)
        params = init_params(net, 0)
        x = np.random.default_rng(0).normal(size=(7, 20))
        pred = predict_factors(net, params, x)
        assert np.allclose(np.linalg.norm(pred, axis=1), 1.0, atol=1e-6)

    def test_prediction_batch_composition_independence(self):
        net = build_single_branch_net(dim=9, k=5)
        params = init_params(net, 1)
        x = np.random.default_rng(2).normal(size=(23, 9))
        whole = predict_factors(net, params, x, batch_size=23)
        chunked = predict_factors(net, params, x, batch_size=4)
        assert np.max(np.abs(whole - chunked)) <= 1e-12

    def test_embedding_batch_composition_independence(self):
        net = build_artist_net(vocab_size=11, k=4)
        params = init_params(net, 3)
        x = np.abs(np.random.default_rng(4).normal(size=(17, 11)))
        whole, _ = extract_embeddings(net, params, x, batch_size=17)
        chunked, _ = extract_embeddings(net, params, x, batch_size=5)
        assert np.max(np.abs(whole - chunked)) <= 1e-12
