import numpy as np
import pytest

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
    def test_flatten_width_full_scale(self):
        net = build_track_net(bins=96, frames=323, k=200, scale=1.0)
        shapes = infer_shapes(net)
        flat = [shapes[f"trunk/{i}"]
                for i, layer in enumerate(net.trunk) if layer.kind == "flatten"]
        assert flat == [(4096,)]

    def test_flatten_width_reduced_scale(self):
        net = build_track_net(bins=32, frames=180, k=16, scale=0.125)
        shapes = infer_shapes(net)
        flat = [shapes[f"trunk/{i}"]
                for i, layer in enumerate(net.trunk) if layer.kind == "flatten"]
        assert flat == [(512,)]

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
        assert set(seen) >= {0, 1, 2}


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
