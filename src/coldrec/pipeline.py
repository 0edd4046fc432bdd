"""Stage orchestration: split, factorize, enrich, train, evaluate, report."""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import Callable, NamedTuple

import numpy as np

from . import audio as audio_mod
from . import evaluate as ev
from . import matrixio, textfeat, zoo
from .config import PipelineConfig
from .data import (PARTS, ArtistMap, DataError, FeedbackMatrix, aggregate_to_artist,
                   load_artist_map, load_assignment, load_triples, replacing,
                   save_split, split_by_artist)
from .nn import NetworkSpec
from .wmf import factorize_wmf

# fraction of each trained net's rows held out for early stopping
VAL_FRACTION = 0.1

# approaches in report order
APPROACHES = ("audio", "sem-emb", "mm-lf-lin", "mm-lf-h1", "random", "upper-bound")


class Head(NamedTuple):
    """A trained head: its artifact name and its net builder (dim_a, dim_t, k) -> net."""
    artifact: str
    build: Callable[[int, int, int], NetworkSpec]

    @property
    def params(self) -> str:
        return f"{self.artifact}.csmx"

    @property
    def log(self) -> str:
        return f"log_{self.artifact.removeprefix('params_')}.tsv"


# trained heads by approach, in training order; a head's seed is the
# train-fusion stage seed plus its position here
HEADS = {
    "mm-lf-lin": Head("params_fusion_lin",
                      lambda dim_a, dim_t, k: zoo.build_fusion_net("lin", dim_a, dim_t, k)),
    "mm-lf-h1": Head("params_fusion_h1",
                     lambda dim_a, dim_t, k: zoo.build_fusion_net("h1", dim_a, dim_t, k)),
    "sem-emb": Head("params_sememb",
                    lambda dim_a, dim_t, k: zoo.build_single_branch_net(dim_a, k)),
}


class Stage(NamedTuple):
    run: Callable[[PipelineConfig], None]
    writes: tuple[str, ...]  # artifacts under the output directory


class StageError(RuntimeError):
    pass


def stage_seed(cfg_seed: int, stage: str) -> int:
    """Per-stage sub-seed derived from the global seed and the stage name."""
    return (cfg_seed * 2654435761 + zlib.crc32(stage.encode())) % 2**31


def run_stage(cfg: PipelineConfig, stage: str) -> None:
    if stage not in STAGES:
        raise StageError(f"unknown stage {stage!r}; valid stages: {', '.join(STAGES)}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    STAGE_TABLE[stage].run(cfg)


def _producer(rel: str) -> str:
    return next(name for name, s in STAGE_TABLE.items() if rel in s.writes)


def _require(cfg: PipelineConfig, rel: str) -> str:
    path = cfg.out(rel)
    if not os.path.exists(path):
        raise StageError(f"missing artifact {rel!r}; run stage {_producer(rel)!r} first")
    return path


def _table(*names: str) -> tuple[str, ...]:
    """The files of each named row table: `<name>.csmx` holds one section,
    `rows`, and `<name>.ids` one id per row, in row order."""
    return tuple(f"{name}.{ext}" for name in names for ext in ("csmx", "ids"))


def _save_rows(cfg: PipelineConfig, name: str, rows: np.ndarray, ids: list[str]) -> None:
    matrixio.save_matrix(cfg.out(f"{name}.csmx"), {"rows": rows})
    matrixio.save_ids(cfg.out(f"{name}.ids"), ids)


def _load_rows(cfg: PipelineConfig, name: str):
    """A row table's rows, ids and id -> row index; ids and rows must pair up."""
    sections = matrixio.load_matrix(_require(cfg, f"{name}.csmx"))
    ids = matrixio.load_ids(_require(cfg, f"{name}.ids"))
    rows = sections.get("rows", ())
    if list(sections) != ["rows"] or len(ids) != len(rows):
        raise StageError(f"row table {name!r} has {len(ids)} ids for {len(rows)} rows in "
                         f"sections {list(sections)}; rerun stage {_producer(f'{name}.ids')!r}")
    return rows, ids, {i: r for r, i in enumerate(ids)}


# ---------------------------------------------------------------------------
# Stages

def _stage_split(cfg: PipelineConfig) -> None:
    m = load_triples(cfg.triples)
    am = load_artist_map(cfg.artist_map)
    split = split_by_artist(m, am, cfg.split_ratios, seed=stage_seed(cfg.seed, "split"))
    # the later stages train on the train part and evaluate on the test part
    for part in ("train", "test"):
        if not split[0][part].n_items:
            ratio = cfg.split_ratios[PARTS.index(part)]
            raise DataError(f"split.{part} = {ratio:g} leaves the {part} part without artists")
    save_split(split, cfg.out("splits"))


def _load_split(cfg: PipelineConfig, part: str) -> FeedbackMatrix:
    return load_triples(_require(cfg, f"splits/{part}.tsv"))


def _stage_factorize_songs(cfg: PipelineConfig) -> None:
    train = _load_split(cfg, "train")
    wmf_cfg = dataclasses.replace(cfg.wmf_songs, seed=stage_seed(cfg.seed, "factorize-songs"))
    model = factorize_wmf(train, wmf_cfg)
    _save_rows(cfg, "factors_songs.users", model.user_factors, train.user_ids)
    _save_rows(cfg, "factors_songs.items", model.item_factors, train.item_ids)


def _stage_factorize_artists(cfg: PipelineConfig) -> None:
    train = _load_split(cfg, "train")
    am = load_artist_map(cfg.artist_map)
    r = aggregate_to_artist(train, am)
    wmf_cfg = dataclasses.replace(cfg.wmf_artists, seed=stage_seed(cfg.seed, "factorize-artists"))
    model = factorize_wmf(r, wmf_cfg)
    _save_rows(cfg, "factors_artists.users", model.user_factors, r.user_ids)
    _save_rows(cfg, "factors_artists.items", model.item_factors, r.item_ids)


def _stage_enrich(cfg: PipelineConfig) -> None:
    docs = textfeat.load_documents(cfg.documents)
    ann = textfeat.load_annotations(cfg.annotations)
    kb = textfeat.load_kb_snapshot(cfg.kb)
    enriched = []
    for doc in docs:
        entities = textfeat.filter_entities(ann.get(doc.artist_id, []), kb)
        enriched.append(textfeat.enrich_document(doc, entities, kb))
    textfeat.save_documents(enriched, cfg.out("enriched_docs.jsonl"))


def _stage_vectorize(cfg: PipelineConfig) -> None:
    docs = textfeat.load_documents(_require(cfg, "enriched_docs.jsonl"))
    assignment = load_assignment(_require(cfg, "splits/artist_assignment.tsv"))
    train_docs = [d for d in docs if assignment.get(d.artist_id) == "train"]
    if not train_docs:
        raise StageError("no training-artist documents to build a vocabulary from")
    vocab = textfeat.build_vocab(train_docs, cfg.vocab_cap)
    with replacing(cfg.out("vocab.json")) as fh:
        json.dump({"terms": vocab.terms, "df": vocab.doc_freq.tolist(),
                   "n_docs": vocab.n_docs}, fh)
        fh.write("\n")
    features = textfeat.tfidf_matrix(docs, vocab)
    _save_rows(cfg, "features_text", features, [d.artist_id for d in docs])


def _fit_val_split(n: int, seed: int):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = max(1, int(n * VAL_FRACTION)) if n > 1 else 0
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _stage_train_artist(cfg: PipelineConfig) -> None:
    feats, _, feat_index = _load_rows(cfg, "features_text")
    artist_factors, artist_ids, factor_index = _load_rows(cfg, "factors_artists.items")
    artists = [a for a in artist_ids if a in feat_index]  # those with a document
    x = feats[[feat_index[a] for a in artists]]
    y = artist_factors[[factor_index[a] for a in artists]]
    seed = stage_seed(cfg.seed, "train-artist")
    fit, val = _fit_val_split(len(artists), seed)
    net = zoo.build_artist_net(x.shape[1], y.shape[1])
    tc = dataclasses.replace(cfg.train_artist, seed=seed)
    params, log = zoo.train_mapping(net, x[fit], y[fit], x[val], y[val], tc)
    matrixio.save_params(cfg.out("params_artist.csmx"), params)
    log.write_tsv(cfg.out("log_artist.tsv"))


def _load_song(spectrogram_dir: str, sid: str) -> audio_mod.Spectrogram:
    path = os.path.join(spectrogram_dir, f"{sid}.cqts")
    if not os.path.exists(path):
        raise DataError(f"no spectrogram file for song {sid!r} at {path}")
    return audio_mod.load_spectrogram(path)


def _stack(patches, n: int) -> np.ndarray:
    """The n patches an iterator yields, as one (n, bins, frames) float64 array."""
    out = None
    for i, patch in enumerate(patches):
        if out is None:
            out = np.empty((n,) + patch.data.shape)
        out[i] = patch.data
    return out


def _read_patches(spectrogram_dir: str, song_ids: list[str], patch_len: int,
                  seed: int) -> np.ndarray:
    """One patch per song, drawn as `PatchProvider(...)(0)` draws it; each
    spectrogram is loaded, sampled and dropped before the next is read."""
    return _stack((audio_mod.sample_patch(_load_song(spectrogram_dir, sid), patch_len, seed,
                                          item_id=sid) for sid in song_ids), len(song_ids))


class PatchProvider:
    """Per-epoch resampled spectrogram patches for a fixed list of songs,
    whose spectrograms it holds for as long as it lives."""

    def __init__(self, spectrogram_dir: str, song_ids: list[str], patch_len: int, seed: int):
        self.song_ids = list(song_ids)
        self.patch_len = patch_len
        self.seed = seed
        self.specs = [_load_song(spectrogram_dir, sid) for sid in self.song_ids]

    def __call__(self, epoch: int) -> np.ndarray:
        return _stack((audio_mod.sample_patch(s, self.patch_len, self.seed + epoch, item_id=sid)
                       for sid, s in zip(self.song_ids, self.specs)), len(self.specs))


def _stage_train_track(cfg: PipelineConfig) -> None:
    song_factors, song_ids, _ = _load_rows(cfg, "factors_songs.items")
    seed = stage_seed(cfg.seed, "train-track")
    patch_len = cfg.patch_frames
    fit, val = _fit_val_split(len(song_ids), seed)
    fit_provider = PatchProvider(cfg.spectrogram_dir, [song_ids[i] for i in fit], patch_len, seed)
    # validation patches stay fixed across epochs for a comparable loss
    val_x = _read_patches(cfg.spectrogram_dir, [song_ids[i] for i in val], patch_len, seed)
    bins = fit_provider.specs[0].bins
    net = zoo.build_track_net(bins, patch_len, song_factors.shape[1],
                              scale=cfg.channel_scale)
    tc = dataclasses.replace(cfg.train_track, seed=seed)
    params, log = zoo.train_mapping(net, fit_provider, song_factors[fit],
                                    val_x, song_factors[val], tc)
    matrixio.save_params(cfg.out("params_track.csmx"), params)
    log.write_tsv(cfg.out("log_track.tsv"))
    with replacing(cfg.out("track_net.json")) as fh:
        json.dump({"bins": bins, "patch_len": patch_len,
                   "k": song_factors.shape[1], "scale": cfg.channel_scale}, fh)
        fh.write("\n")


def _track_net(cfg: PipelineConfig):
    with open(_require(cfg, "track_net.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    net = zoo.build_track_net(meta["bins"], meta["patch_len"], meta["k"],
                              scale=meta["scale"])
    return net, meta


def _extract_artists(cfg: PipelineConfig) -> None:
    """Artist embeddings for every artist with a document."""
    feats, feat_ids, _ = _load_rows(cfg, "features_text")
    params = matrixio.load_params(_require(cfg, "params_artist.csmx"))
    # the net's output width k is the bias length of its last dense layer
    k = next(t["b"] for t in reversed(params.values()) if "b" in t).shape[0]
    net = zoo.build_artist_net(feats.shape[1], k)
    emb_a, _ = zoo.extract_embeddings(net, params, feats)
    _save_rows(cfg, "embeddings_artist", emb_a, feat_ids)


def _stage_extract(cfg: PipelineConfig) -> None:
    # the artist net's parameters are freed when its pass returns, before the track pass
    _extract_artists(cfg)

    # track embeddings and the track net's own factor predictions (`evaluate`'s
    # audio approach) for the songs later stages read: the training songs
    # `train-fusion` looks up, then the test songs. One fixed eval patch each,
    # read in chunks of zoo.EVAL_BATCH songs, each one forward batch
    track_net, meta = _track_net(cfg)
    track_params = matrixio.load_params(_require(cfg, "params_track.csmx"))
    _, train_ids, _ = _load_rows(cfg, "factors_songs.items")
    song_ids = train_ids + _load_split(cfg, "test").item_ids
    seed = stage_seed(cfg.seed, "extract")
    parts = [zoo.extract_embeddings(track_net, track_params, _read_patches(
                 cfg.spectrogram_dir, song_ids[lo:lo + zoo.EVAL_BATCH], meta["patch_len"], seed))
             for lo in range(0, len(song_ids), zoo.EVAL_BATCH)]
    _save_rows(cfg, "embeddings_track", np.concatenate([e for e, _ in parts]), song_ids)
    _save_rows(cfg, "predictions_audio", np.concatenate([p for _, p in parts]), song_ids)


def _fusion_inputs(cfg: PipelineConfig, song_ids: list[str], am: ArtistMap):
    emb_a, _, a_index = _load_rows(cfg, "embeddings_artist")
    emb_t, _, t_index = _load_rows(cfg, "embeddings_track")
    missing = sorted({am.artist_of(s) for s in song_ids} - a_index.keys())
    if missing:
        raise StageError(f"no artist embedding for {len(missing)} artist(s) "
                         f"({', '.join(missing)}): their biographies are missing "
                         f"from paths.documents ({cfg.documents})")
    a_rows = np.array([a_index[am.artist_of(s)] for s in song_ids])
    t_rows = np.array([t_index[s] for s in song_ids])
    return {"artist": emb_a[a_rows], "track": emb_t[t_rows]}


def _head_net(head: Head, inputs: dict[str, np.ndarray], k: int) -> NetworkSpec:
    return head.build(inputs["artist"].shape[1], inputs["track"].shape[1], k)


def _head_inputs(net: NetworkSpec, inputs: dict[str, np.ndarray]):
    """Both embeddings for a fusion head; a head without branches takes the artist's."""
    return inputs if net.branches else inputs["artist"]


def _stage_train_fusion(cfg: PipelineConfig) -> None:
    song_factors, song_ids, _ = _load_rows(cfg, "factors_songs.items")
    inputs = _fusion_inputs(cfg, song_ids, load_artist_map(cfg.artist_map))
    seed = stage_seed(cfg.seed, "train-fusion")
    fit, val = _fit_val_split(len(song_ids), seed)
    fit_x = {b: v[fit] for b, v in inputs.items()}
    val_x = {b: v[val] for b, v in inputs.items()}
    for pos, head in enumerate(HEADS.values()):
        net = _head_net(head, inputs, song_factors.shape[1])
        tc = dataclasses.replace(cfg.train_fusion, seed=seed + pos)
        params, log = zoo.train_mapping(net, _head_inputs(net, fit_x), song_factors[fit],
                                        _head_inputs(net, val_x), song_factors[val], tc)
        matrixio.save_params(cfg.out(head.params), params)
        log.write_tsv(cfg.out(head.log))


def _stage_evaluate(cfg: PipelineConfig) -> None:
    test = _load_split(cfg, "test")
    users, _, user_index = _load_rows(cfg, "factors_songs.users")
    # a test user without training plays has no user factor: every approach skips them
    keep = [r for r, u in enumerate(test.user_ids) if u in user_index]
    n_cold_users = test.n_users - len(keep)
    if n_cold_users:
        test = FeedbackMatrix([test.user_ids[r] for r in keep], test.item_ids,
                              test.counts[keep])
    user_factors = users[[user_index[u] for u in test.user_ids]]
    k = user_factors.shape[1]

    # audio: the track network's own factor predictions
    preds, _, pred_index = _load_rows(cfg, "predictions_audio")
    predictions = {"audio": preds[[pred_index[s] for s in test.item_ids]]}

    inputs = _fusion_inputs(cfg, test.item_ids, load_artist_map(cfg.artist_map))
    for approach, head in HEADS.items():
        net = _head_net(head, inputs, k)
        params = matrixio.load_params(_require(cfg, head.params))
        predictions[approach] = zoo.predict_factors(net, params, _head_inputs(net, inputs))

    rand_f, _ = ev.make_baseline_factors("random", test, k,
                                         seed=stage_seed(cfg.seed, "baseline-random"))
    predictions["random"] = rand_f

    ub_cfg = dataclasses.replace(cfg.wmf_songs, seed=stage_seed(cfg.seed, "baseline-upper"))
    ub_items, ub_users = ev.make_baseline_factors("upper_bound", test, k, cfg=ub_cfg)

    runs = [(a, user_factors, f) for a, f in predictions.items()]
    runs.append(("upper-bound", ub_users, ub_items))
    for approach, users, items in runs:
        report = ev.map_at_k(users, items, test, cfg.eval_k)
        report.n_skipped += n_cold_users
        report.write(cfg.out(f"eval_{approach}.tsv"), cfg.out(f"eval_{approach}.json"))


def _stage_report(cfg: PipelineConfig) -> None:
    rows = []
    for approach in APPROACHES:
        path = _require(cfg, f"eval_{approach}.json")
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        rows.append((approach, summary["map"], summary["users"]))
    with replacing(cfg.out("report.tsv")) as fh:
        fh.write("approach\tmap\tusers\n")
        for approach, map_score, users in rows:
            fh.write(f"{approach}\t{map_score:.10f}\t{users}\n")
    with replacing(cfg.out("report.json")) as fh:
        json.dump({a: {"map": m, "users": u} for a, m, u in rows}, fh, indent=2)
        fh.write("\n")


# every stage in run order, with every artifact it writes under the output directory
STAGE_TABLE = {
    "split": Stage(_stage_split, tuple(f"splits/{part}.tsv" for part in PARTS)
                   + ("splits/artist_assignment.tsv",)),
    "factorize-songs": Stage(_stage_factorize_songs,
                             _table("factors_songs.users", "factors_songs.items")),
    "factorize-artists": Stage(_stage_factorize_artists,
                               _table("factors_artists.users", "factors_artists.items")),
    "enrich": Stage(_stage_enrich, ("enriched_docs.jsonl",)),
    "vectorize": Stage(_stage_vectorize, ("vocab.json",) + _table("features_text")),
    "train-artist": Stage(_stage_train_artist, ("params_artist.csmx", "log_artist.tsv")),
    "train-track": Stage(_stage_train_track, ("params_track.csmx", "log_track.tsv",
                                              "track_net.json")),
    "extract": Stage(_stage_extract,
                     _table("embeddings_artist", "embeddings_track", "predictions_audio")),
    "train-fusion": Stage(_stage_train_fusion,
                          tuple(f for h in HEADS.values() for f in (h.params, h.log))),
    "evaluate": Stage(_stage_evaluate,
                      tuple(f"eval_{a}.{ext}" for a in APPROACHES for ext in ("tsv", "json"))),
    "report": Stage(_stage_report, ("report.tsv", "report.json")),
}
STAGES = tuple(STAGE_TABLE)
