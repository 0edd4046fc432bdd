"""End-to-end acceptance checks for the cold-start recommendation pipeline.

Each test covers one release criterion: oracle equivalence for the ALS
solver, analytic gradients, and the ranking metric; the full synthetic
cold-start experiment and its expected ordering; the enrichment benefit;
structural invariants (unit-norm heads, layer dimensions); determinism;
split safety; and the paired t-test implementation.
"""

import filecmp
import itertools
import json
import os
import time

import numpy as np
import pytest
from scipy import integrate, special

from coldrec import evaluate as ev
from coldrec import matrixio, synth, textfeat, wmf, zoo
from coldrec.config import load_pipeline_config, write_kv_file
from coldrec.data import PARTS, aggregate_to_artist, split_by_artist
from coldrec.nn import LayerSpec, NetworkSpec, infer_shapes, init_params
from coldrec.pipeline import STAGES, run_stage
from coldrec.wmf import WmfConfig, als_objective, factorize_wmf

from feedback_oracle import feedback, to_dense
from gradcheck import gradient_check
from test_wmf import gradient_descent_oracle, random_matrix


# ---------------------------------------------------------------------------
# Shared pipeline runs

def _write_pipeline_config(path, data_dir, out_dir, extra=None):
    values = {
        "paths.triples": os.path.join(data_dir, "triples.tsv"),
        "paths.artist_map": os.path.join(data_dir, "artist_map.tsv"),
        "paths.documents": os.path.join(data_dir, "documents.jsonl"),
        "paths.annotations": os.path.join(data_dir, "annotations.jsonl"),
        "paths.kb": os.path.join(data_dir, "kb.jsonl"),
        "paths.spectrograms": os.path.join(data_dir, "spectrograms"),
        "paths.out": out_dir,
        "seed": 3,
        "scale": 0.125,
        "eval.k": 500,
        "audio.patch_frames": 96,
        "wmf.songs.k": 16, "wmf.songs.iterations": 15,
        "wmf.artists.k": 16, "wmf.artists.iterations": 15,
        "train.artist.epochs": 40, "train.artist.patience": 6,
        "train.track.epochs": 25, "train.track.patience": 5,
        "train.fusion.epochs": 60, "train.fusion.patience": 8,
    }
    values.update(extra or {})
    write_kv_file(path, values)
    return path


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    """Full cold-start experiment: 200 artists, 2000 songs, 500 users, dim 16."""
    root = tmp_path_factory.mktemp("e2e")
    data_dir = root / "data"
    started = time.monotonic()
    spec = synth.SyntheticSpec(n_users=500, n_artists=200, songs_per_artist=10,
                               latent_dim=16, seed=3)
    synth.write_dataset(synth.generate(spec), data_dir)
    cfg = load_pipeline_config(
        _write_pipeline_config(root / "pipeline.cfg", str(data_dir), str(root / "out")))
    for stage in STAGES:
        run_stage(cfg, stage)
    return cfg, time.monotonic() - started


def _ap_vectors(cfg, approach):
    aps = {}
    with open(cfg.out(f"eval_{approach}.tsv"), encoding="utf-8") as fh:
        for line in fh:
            user, ap = line.rstrip("\n").split("\t")
            aps[user] = float(ap)
    return aps


def _paired_gap(cfg, better, worse):
    a = _ap_vectors(cfg, better)
    b = _ap_vectors(cfg, worse)
    users = sorted(set(a) & set(b))
    d = np.array([a[u] - b[u] for u in users])
    return d.mean(), 2 * d.std(ddof=1) / np.sqrt(len(d))


# ---------------------------------------------------------------------------
# 1. ALS oracle equivalence

def test_als_matches_gradient_descent_oracle(monkeypatch):
    started = time.monotonic()
    alpha, lam = 10.0, 0.1
    monkeypatch.setattr(wmf, "ALPHA", alpha)
    monkeypatch.setattr(wmf, "LAMBDA", lam)
    m = random_matrix(8, 10, seed=29, density=0.5)
    model = factorize_wmf(m, WmfConfig(k=3, iterations=2000), 17)
    als_obj = als_objective(model, m, alpha, lam)
    _, _, gd_obj = gradient_descent_oracle(
        model.user_factors, model.item_factors,
        to_dense(m).astype(float), alpha, lam)
    assert als_obj == pytest.approx(gd_obj, rel=1e-5)
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 2. Gradient verification over every layer kind and the composed networks

def _checked_net(trunk, in_shape, seed, batch=3):
    net = NetworkSpec(trunk=trunk, input_shapes={"": in_shape})
    params = init_params(net, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(batch,) + in_shape)
    out_dim = infer_shapes(net)[f"trunk/{len(trunk) - 1}"]
    t = rng.normal(size=(batch,) + out_dim)
    return gradient_check(net, params, x, t)


def test_gradient_check_all_layer_kinds_and_composed_nets():
    started = time.monotonic()
    cases = {
        "dense": ([LayerSpec("dense", units=4)], (6,), 0),
        "relu": ([LayerSpec("dense", units=5), LayerSpec("relu"),
                  LayerSpec("dense", units=3)], (4,), 3),
        "conv_same": ([LayerSpec("conv1d_time", filters=3, width=4),
                       LayerSpec("flatten"), LayerSpec("dense", units=4)], (2, 9), 1),
        "maxpool": ([LayerSpec("conv1d_time", filters=3, width=3),
                     LayerSpec("maxpool_time", pool=2),
                     LayerSpec("flatten"), LayerSpec("dense", units=4)], (2, 8), 3),
        "whole_clip_pool": ([LayerSpec("conv1d_time", filters=3, width=3),
                             LayerSpec("maxpool_time", pool=7),
                             LayerSpec("flatten"), LayerSpec("dense", units=4)], (2, 7), 3),
        "dropout": ([LayerSpec("dropout", rate=0.5), LayerSpec("dense", units=4)], (8,), 4),
        "batchnorm": ([LayerSpec("batchnorm"),
                       LayerSpec("dense", units=3)], (5,), 5),
        "l2norm": ([LayerSpec("dense", units=5), LayerSpec("l2norm")], (4,), 6),
        "flatten": ([LayerSpec("flatten"), LayerSpec("dense", units=4)], (3, 4), 7),
    }
    for name, (trunk, shape, seed) in cases.items():
        err = _checked_net(trunk, shape, seed)
        assert err < 1e-4, f"layer case {name}: max rel error {err}"

    rng = np.random.default_rng(8)
    artist = zoo.build_artist_net(vocab_size=30, k=8)
    params = init_params(artist, 8)
    x = np.abs(rng.normal(size=(4, 30)))
    t = rng.normal(size=(4, 8))
    err = gradient_check(artist, params, x, t)
    assert err < 1e-4, f"artist net: max rel error {err}"

    # Branch dims must be large enough that the h1 dropout (rate 0.7) cannot
    # zero out an entire input row; a fully-dropped row puts the downstream
    # relu pre-activation exactly on its kink and invalidates the finite
    # difference. Real embeddings are hundreds of dims, so this matches use.
    fusion = zoo.build_fusion_net("h1", dim_a=48, dim_t=40, k=6)
    params = init_params(fusion, 9)
    inputs = {"artist": rng.normal(size=(4, 48)), "track": rng.normal(size=(4, 40))}
    t = rng.normal(size=(4, 6))
    err = gradient_check(fusion, params, inputs, t)
    assert err < 1e-4, f"fusion-h1 net: max rel error {err}"
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# 3. Ranking-metric oracle by exhaustive enumeration

def _ap_oracle(ranked, relevant, k):
    score = 0.0
    for pos in range(min(k, len(ranked))):
        if ranked[pos] in relevant:
            prefix = ranked[:pos + 1]
            score += sum(1 for x in prefix if x in relevant) / (pos + 1)
    return score / min(len(relevant), k)


def test_ranking_metric_matches_exhaustive_enumeration():
    for n_items in range(1, 6):
        items = list(range(n_items))
        for r in range(1, min(3, n_items) + 1):
            for relevant in itertools.combinations(items, r):
                for perm in itertools.permutations(items):
                    for k in range(1, n_items + 1):
                        got = ev.average_precision(list(perm), set(relevant), k)
                        want = _ap_oracle(list(perm), set(relevant), k)
                        assert abs(got - want) < 1e-12

    # map_at_k agrees with enumeration on small random factor instances
    rng = np.random.default_rng(31)
    for _ in range(25):
        n_items = int(rng.integers(2, 6))
        n_users = int(rng.integers(1, 4))
        dense = np.zeros((n_users, n_items), dtype=np.int64)
        for u in range(n_users):
            n_rel = int(rng.integers(1, min(3, n_items) + 1))
            dense[u, rng.choice(n_items, size=n_rel, replace=False)] = 1
        test = feedback(dense, [f"u{u}" for u in range(n_users)],
                        [f"i{i}" for i in range(n_items)])
        uf = rng.normal(size=(n_users, 3))
        itf = rng.normal(size=(n_items, 3))
        k = int(rng.integers(1, n_items + 1))
        report = ev.map_at_k(uf, itf, test, k=k)
        expected = np.mean([
            _ap_oracle(ev.rank_items(uf[u], itf, k).tolist(),
                       set(np.flatnonzero(dense[u]).tolist()), k)
            for u in range(n_users)
        ])
        assert abs(report.map_score - expected) < 1e-12


# ---------------------------------------------------------------------------
# 4. End-to-end cold-start ordering on the full synthetic experiment

def test_end_to_end_cold_start_ordering(e2e_run):
    cfg, elapsed = e2e_run
    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"
    with open(cfg.out("report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    maps = {a: report[a]["map"] for a in report}
    assert maps["upper-bound"] > maps["mm-lf-lin"]
    assert maps["mm-lf-lin"] > max(maps["sem-emb"], maps["audio"])
    assert max(maps["sem-emb"], maps["audio"]) > maps["random"]
    assert min(maps["sem-emb"], maps["audio"]) > maps["random"]

    for better, worse in (("upper-bound", "mm-lf-lin"),
                          ("mm-lf-lin", "sem-emb"), ("mm-lf-lin", "audio"),
                          ("sem-emb", "random"), ("audio", "random")):
        gap, bar = _paired_gap(cfg, better, worse)
        assert gap > bar, f"{better} vs {worse}: gap {gap:.4f} <= 2SE {bar:.4f}"


# ---------------------------------------------------------------------------
# 5. Enrichment benefit at artist level

def test_enrichment_beats_plain_documents():
    spec = synth.SyntheticSpec(seed=5, text_noise=0.8, doc_tokens=60,
                               n_artists=500, n_users=1500, latent_dim=8)
    data = synth.generate(spec)
    parts, assignment = split_by_artist(data.feedback, data.artist_map, (0.7, 0.1, 0.2), seed=7)
    train_a = aggregate_to_artist(parts["train"], data.artist_map)
    test_a = aggregate_to_artist(parts["test"], data.artist_map)
    model = factorize_wmf(train_a, WmfConfig(k=8, iterations=15), 1)
    uidx = {u: i for i, u in enumerate(train_a.user_ids)}
    uf = model.user_factors[[uidx[u] for u in test_a.user_ids]]

    enriched = {artist: textfeat.enrich_document(text, data.annotations.get(artist, []), data.kb)
                for artist, text in data.documents.items()}

    def evaluate(docs):
        vocab = textfeat.build_vocab(
            [text for artist, text in docs.items() if assignment.get(artist) == "train"])
        x_train = textfeat.tfidf_matrix([docs[a] for a in train_a.item_ids], vocab)
        perm = np.random.default_rng(11).permutation(x_train.shape[0])
        n_val = max(1, len(perm) // 5)
        val, fit = np.sort(perm[:n_val]), np.sort(perm[n_val:])
        plain = zoo.build_artist_net(len(vocab.terms), 8)
        # input dropout on the tf-idf vector, ahead of the pipeline's artist net
        net = NetworkSpec(trunk=[LayerSpec("dropout", rate=0.5)] + plain.trunk,
                          input_shapes=plain.input_shapes, embed_tap=plain.embed_tap + 1)
        tc = zoo.TrainConfig(max_epochs=80, patience=15, lr=0.0005)
        params, _ = zoo.train_mapping(net, x_train[fit], model.item_factors[fit],
                                      x_train[val], model.item_factors[val], tc, 2)
        x_test = textfeat.tfidf_matrix([docs[a] for a in test_a.item_ids], vocab)
        pred = zoo.predict_factors(net, params, x_test)
        return ev.map_at_k(uf, pred, test_a, k=500)

    plain_report = evaluate(data.documents)
    enriched_report = evaluate(enriched)
    assert enriched_report.map_score > plain_report.map_score
    diff = enriched_report.ap_vector() - plain_report.ap_vector()
    bar = 2 * diff.std(ddof=1) / np.sqrt(len(diff))
    assert diff.mean() > bar, f"gap {diff.mean():.4f} <= 2SE {bar:.4f}"


# ---------------------------------------------------------------------------
# 6. Output-head invariant: unit-norm predictions everywhere

def test_trained_networks_predict_unit_norm_rows(e2e_run):
    cfg, _ = e2e_run
    preds = matrixio.load_matrix(cfg.out("predictions_audio.csmx"))["rows"]
    assert np.allclose(np.linalg.norm(preds, axis=1), 1.0, atol=1e-6)

    emb_a = matrixio.load_matrix(cfg.out("embeddings_artist.csmx"))["rows"]
    emb_t = matrixio.load_matrix(cfg.out("embeddings_track.csmx"))["rows"]
    k = preds.shape[1]

    sememb = zoo.build_single_branch_net(emb_a.shape[1], k)
    params = matrixio.load_params(cfg.out("params_sememb.csmx"))
    out = zoo.predict_factors(sememb, params, emb_a)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    n = min(emb_a.shape[0], emb_t.shape[0])
    for variant in ("lin", "h1"):
        net = zoo.build_fusion_net(variant, emb_a.shape[1], emb_t.shape[1], k)
        params = matrixio.load_params(cfg.out(f"params_fusion_{variant}.csmx"))
        out = zoo.predict_factors(net, params,
                                  {"artist": emb_a[:n], "track": emb_t[:n]})
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# 7. Reference dimensions at scale 1

def test_reference_dimensions_at_full_scale():
    artist = zoo.build_artist_net(vocab_size=10000, k=200)
    shapes = infer_shapes(artist)
    assert shapes[f"trunk/{artist.embed_tap % len(artist.trunk)}"] == (2048,)

    track = zoo.build_track_net(bins=96, frames=323, k=200, scale=1.0)
    shapes = infer_shapes(track)
    assert shapes[f"trunk/{track.embed_tap % len(track.trunk)}"] == (1024,)

    fusion = zoo.build_fusion_net("lin", dim_a=2048, dim_t=1024, k=200)
    assert infer_shapes(fusion)["trunk/0"] == (3072,)


# ---------------------------------------------------------------------------
# 8. Determinism: two identical runs, byte-identical artifacts

def test_two_runs_are_byte_identical(tmp_path):
    data_dir = tmp_path / "data"
    spec = synth.SyntheticSpec(n_users=40, n_artists=12, songs_per_artist=4,
                               latent_dim=8, bins=8, frames=70, n_text_terms=30,
                               doc_tokens=60, n_templates=4, density=0.08, seed=11)
    synth.write_dataset(synth.generate(spec), data_dir)
    extra = {
        "scale": 1 / 64,
        "eval.k": 50,
        "audio.patch_frames": 64,
        "wmf.songs.k": 8, "wmf.songs.iterations": 4,
        "wmf.artists.k": 8, "wmf.artists.iterations": 4,
        "train.artist.epochs": 2, "train.artist.patience": 2,
        "train.track.epochs": 2, "train.track.patience": 2,
        "train.fusion.epochs": 2, "train.fusion.patience": 2,
    }
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / f"out_{run}"
        cfg = load_pipeline_config(_write_pipeline_config(
            tmp_path / f"p_{run}.cfg", str(data_dir), str(out_dir), extra))
        for stage in STAGES:
            run_stage(cfg, stage)
        outputs.append(out_dir)
    files = [{os.path.relpath(os.path.join(d, f), out) for d, _, fs in os.walk(out) for f in fs}
             for out in outputs]
    assert files[0] == files[1]
    assert {"report.json", "factors_songs.items.csmx", "params_track.csmx"} <= files[0]
    for rel in sorted(files[0]):
        assert filecmp.cmp(outputs[0] / rel, outputs[1] / rel, shallow=False), rel


# ---------------------------------------------------------------------------
# 9. Split safety: artist-disjoint partitions over 100 seeded trials

def test_splits_are_artist_disjoint_over_100_trials():
    spec = synth.SyntheticSpec(n_users=30, n_artists=15, songs_per_artist=3,
                               latent_dim=4, bins=4, frames=70, n_text_terms=10,
                               doc_tokens=20, n_templates=2, density=0.1, seed=19)
    data = synth.generate(spec)
    for trial in range(100):
        parts, _ = split_by_artist(data.feedback, data.artist_map,
                                   (0.6, 0.2, 0.2), seed=trial)
        artist_sets = {
            part: {data.artist_map[s] for s in parts[part].item_ids}
            for part in PARTS
        }
        for a, b in itertools.combinations(PARTS, 2):
            assert not (artist_sets[a] & artist_sets[b]), (trial, a, b)


# ---------------------------------------------------------------------------
# 10. Paired t-test oracle by numerical integration

def test_ttest_p_matches_numerical_integration():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 40))
        a = rng.normal(0.02, 0.05, size=n)
        b = rng.normal(0.0, 0.05, size=n)
        result = ev.paired_ttest(a, b)
        if result.degenerate:
            continue
        nu = n - 1
        norm = special.gamma((nu + 1) / 2) / (np.sqrt(nu * np.pi) * special.gamma(nu / 2))

        def density(x):
            return norm * (1 + x * x / nu) ** (-(nu + 1) / 2)

        tail, _ = integrate.quad(density, abs(result.t), np.inf)
        assert result.p == pytest.approx(2 * tail, abs=1e-6)
        checked += 1
