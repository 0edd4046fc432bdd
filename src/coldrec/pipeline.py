"""Stage orchestration: split, factorize, enrich, train, evaluate, report."""

from __future__ import annotations

import functools
import json
import os
import zlib
from typing import Callable, NamedTuple

import numpy as np

from . import audio as audio_mod
from . import evaluate as ev
from . import matrixio, textfeat, zoo
from .config import PipelineConfig
from .data import (PARTS, DataError, FeedbackMatrix, aggregate_to_artist, artist_of,
                   load_artist_map, load_assignment, load_triples, replacing,
                   save_split, split_by_artist)
from .nn import NetworkSpec, param_shapes
from .wmf import factorize_wmf

# fraction of each trained net's rows held out for early stopping
VAL_FRACTION = 0.1


class Head(NamedTuple):
    """A trained head: the embeddings it reads, in branch order; its zoo builder
    (one width per input, then k); its artifact; its seed's offset from the
    `train-fusion` stage seed."""
    inputs: tuple[str, ...]
    build: Callable[..., NetworkSpec]
    artifact: str
    seed_offset: int

    @property
    def params(self) -> str:
        return f"{self.artifact}.csmx"

    @property
    def log(self) -> str:
        return f"log_{self.artifact.removeprefix('params_')}.tsv"

    def net(self, embeddings: dict[str, np.ndarray], k: int) -> NetworkSpec:
        return self.build(*(embeddings[name].shape[1] for name in self.inputs), k)

    def features(self, embeddings: dict[str, np.ndarray]):
        """The head's embeddings by input name, or the one matrix of a single-input head."""
        x = {name: embeddings[name] for name in self.inputs}
        return x if len(x) > 1 else x[self.inputs[0]]


# every trained head by approach, in report order
HEADS = {
    "sem-emb": Head(("artist",), zoo.build_single_branch_net, "params_sememb", 2),
    "mm-lf-lin": Head(("artist", "track"), functools.partial(zoo.build_fusion_net, "lin"),
                      "params_fusion_lin", 0),
    "mm-lf-h1": Head(("artist", "track"), functools.partial(zoo.build_fusion_net, "h1"),
                     "params_fusion_h1", 1),
}

# approaches in report order
APPROACHES = ("audio", *HEADS, "random", "upper-bound")


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


def _row_numbers(name: str, index: dict[str, int], ids: list[str]) -> np.ndarray:
    """The rows of `ids` in row table `name`, whose id -> row index is `index`; an id
    without a row is a StageError naming the table, the first such ids and the
    stage to rerun."""
    missing = [i for i in dict.fromkeys(ids) if i not in index]
    if missing:
        raise StageError(f"row table {name!r} has no row for {len(missing)} id(s) "
                         f"({', '.join(missing[:5])}); rerun stage {_producer(f'{name}.ids')!r}")
    return np.array([index[i] for i in ids], dtype=np.intp)


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
    model = factorize_wmf(train, cfg.wmf_songs, stage_seed(cfg.seed, "factorize-songs"))
    _save_rows(cfg, "factors_songs.users", model.user_factors, train.user_ids)
    _save_rows(cfg, "factors_songs.items", model.item_factors, train.item_ids)


def _stage_factorize_artists(cfg: PipelineConfig) -> None:
    train = _load_split(cfg, "train")
    am = load_artist_map(cfg.artist_map)
    r = aggregate_to_artist(train, am)
    model = factorize_wmf(r, cfg.wmf_artists, stage_seed(cfg.seed, "factorize-artists"))
    _save_rows(cfg, "factors_artists.users", model.user_factors, r.user_ids)
    _save_rows(cfg, "factors_artists.items", model.item_factors, r.item_ids)


def _stage_enrich(cfg: PipelineConfig) -> None:
    docs = textfeat.load_documents(cfg.documents)
    ann = textfeat.load_annotations(cfg.annotations)
    kb = textfeat.load_kb_snapshot(cfg.kb)
    enriched = {artist: textfeat.enrich_document(text, ann.get(artist, []), kb)
                for artist, text in docs.items()}
    textfeat.save_documents(enriched, cfg.out("enriched_docs.jsonl"))


def _stage_vectorize(cfg: PipelineConfig) -> None:
    docs = textfeat.load_documents(_require(cfg, "enriched_docs.jsonl"))
    assignment = load_assignment(_require(cfg, "splits/artist_assignment.tsv"))
    train_docs = [text for artist, text in docs.items() if assignment.get(artist) == "train"]
    if not train_docs:
        raise StageError("no training-artist documents to build a vocabulary from")
    vocab = textfeat.build_vocab(train_docs)
    with replacing(cfg.out("vocab.json")) as fh:
        json.dump({"terms": vocab.terms, "df": vocab.doc_freq.tolist(),
                   "n_docs": vocab.n_docs}, fh)
        fh.write("\n")
    features = textfeat.tfidf_matrix(list(docs.values()), vocab)
    _save_rows(cfg, "features_text", features, list(docs))


def _fit_val_split(n: int, seed: int):
    if n < 2:
        raise ValueError(f"{n} training row(s): early stopping needs one to fit and one to hold out")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = max(1, int(n * VAL_FRACTION))
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _live_columns(name: str, rows: np.ndarray, train: np.ndarray | slice,
                  producer: str) -> np.ndarray:
    """Embedding table `name` cut to the columns that some training row (`train`)
    turns on: a column zero for all of them would meet head weights that never
    trained on it. A net that turns none on is a StageError naming the table and
    `producer`, the stage that trained it."""
    live = rows[train].any(axis=0)
    if not live.any():
        raise StageError(f"every column of {name!r} is zero over its training rows: "
                         f"the net embeds nothing; rerun stage {producer!r}")
    return rows[:, live]


def _stage_train_artist(cfg: PipelineConfig) -> None:
    feats, feat_ids, feat_index = _load_rows(cfg, "features_text")
    artist_factors, artist_ids, factor_index = _load_rows(cfg, "factors_artists.items")
    artists = [a for a in artist_ids if a in feat_index]  # those with a document
    train = np.array([feat_index[a] for a in artists], dtype=np.intp)
    x = feats[train]
    y = artist_factors[[factor_index[a] for a in artists]]
    seed = stage_seed(cfg.seed, "train-artist")
    fit, val = _fit_val_split(len(artists), seed)
    net = zoo.build_artist_net(x.shape[1], y.shape[1])
    params, log = zoo.train_mapping(net, x[fit], y[fit], x[val], y[val], cfg.train_artist, seed)
    # every artist with a document is embedded, not only the training ones; the net's
    # files are written only once it is known to embed something
    emb, _ = zoo.extract_embeddings(net, params, feats)
    emb = _live_columns("embeddings_artist", emb, train, "train-artist")
    matrixio.save_params(cfg.out("params_artist.csmx"), params)
    log.write_tsv(cfg.out("log_artist.tsv"))
    _save_rows(cfg, "embeddings_artist", emb, feat_ids)


def _load_song(spectrogram_dir: str, sid: str) -> audio_mod.Spectrogram:
    path = os.path.join(spectrogram_dir, f"{sid}.cqts")
    if not os.path.exists(path):
        raise DataError(f"no spectrogram file for song {sid!r} at {path}")
    return audio_mod.load_spectrogram(path)


def _read_patches(spectrogram_dir: str, song_ids: list[str], patch_len: int,
                  seed: int) -> np.ndarray:
    """One patch per song as one (songs, bins, frames) float64 array; each
    spectrogram is loaded, sampled and dropped before the next is read. A patch
    unlike the first song's is a DataError naming both songs."""
    out = None
    for i, sid in enumerate(song_ids):
        patch = audio_mod.sample_patch(_load_song(spectrogram_dir, sid), patch_len, seed,
                                       item_id=sid)
        if out is None:
            out = np.empty((len(song_ids),) + patch.shape)
        elif patch.shape != out.shape[1:]:
            raise DataError(f"spectrogram of song {sid!r} gives a patch of shape "
                            f"{patch.shape}, but song {song_ids[0]!r} gives {out.shape[1:]}")
        out[i] = patch
    return out


def _track_net(cfg: PipelineConfig, bins: int, k: int) -> NetworkSpec:
    """The track CNN over patches of `bins` rows and `audio.patch_frames` frames, mapping
    onto `k` song factors; `train-track` trains it and `extract` runs it."""
    return zoo.build_track_net(bins, cfg.patch_frames, k, scale=cfg.channel_scale)


def _stage_train_track(cfg: PipelineConfig) -> None:
    song_factors, song_ids, _ = _load_rows(cfg, "factors_songs.items")
    seed = stage_seed(cfg.seed, "train-track")
    patch_len = cfg.patch_frames
    fit, val = _fit_val_split(len(song_ids), seed)
    fit_ids = [song_ids[i] for i in fit]
    # validation patches stay fixed across epochs for a comparable loss; the
    # training patches are drawn afresh each epoch
    val_x = _read_patches(cfg.spectrogram_dir, [song_ids[i] for i in val], patch_len, seed)
    net = _track_net(cfg, val_x.shape[1], song_factors.shape[1])
    params, log = zoo.train_mapping(
        net, lambda epoch: _read_patches(cfg.spectrogram_dir, fit_ids, patch_len, seed + epoch),
        song_factors[fit], val_x, song_factors[val], cfg.train_track, seed)
    matrixio.save_params(cfg.out("params_track.csmx"), params)
    log.write_tsv(cfg.out("log_track.tsv"))


def _checked_params(cfg: PipelineConfig, rel: str, net: NetworkSpec):
    """A trained net's parameters, each tensor of the shape `net` gives it; a
    mismatch (parameters trained on other inputs, or by an older build) is a
    StageError naming the artifact, the tensor, both shapes and the stage to
    rerun; so is a file that holds no parameters, named with its section."""
    try:
        params = matrixio.load_params(_require(cfg, rel))
    except DataError as exc:
        raise StageError(f"{exc}; rerun stage {_producer(rel)!r}") from None
    want = {f"{layer}/{key}": shape for layer, tensors in param_shapes(net).items()
            for key, shape in tensors.items()}
    got = {f"{layer}/{key}": t.shape for layer, tensors in params.items()
           for key, t in tensors.items()}
    for name in dict.fromkeys([*want, *got]):
        if got.get(name) != want.get(name):
            raise StageError(f"{rel} holds tensor {name} as {got.get(name, 'nothing')}, but the "
                             f"net built from the current inputs needs "
                             f"{want.get(name, 'nothing')}; rerun stage {_producer(rel)!r}")
    return params


def _stage_extract(cfg: PipelineConfig) -> None:
    # track embeddings and the track net's own factor predictions (`evaluate`'s
    # audio approach) for the songs later stages read: the training songs
    # `train-fusion` looks up, then the test songs. One fixed eval patch each,
    # read in chunks of zoo.EVAL_BATCH songs, each one forward batch; both
    # tables are written once every chunk has passed
    song_factors, train_ids, _ = _load_rows(cfg, "factors_songs.items")
    song_ids = train_ids + _load_split(cfg, "test").item_ids
    seed = stage_seed(cfg.seed, "extract")

    def patches(lo: int) -> np.ndarray:
        return _read_patches(cfg.spectrogram_dir, song_ids[lo:lo + zoo.EVAL_BATCH],
                             cfg.patch_frames, seed)

    first = patches(0)  # its bins build the net
    net = _track_net(cfg, first.shape[1], song_factors.shape[1])
    params = _checked_params(cfg, "params_track.csmx", net)
    parts = [zoo.extract_embeddings(net, params, first)]
    del first  # one chunk of patches at a time
    parts += [zoo.extract_embeddings(net, params, patches(lo))
              for lo in range(zoo.EVAL_BATCH, len(song_ids), zoo.EVAL_BATCH)]
    emb = _live_columns("embeddings_track", np.concatenate([e for e, _ in parts]),
                        slice(len(train_ids)), "train-track")
    _save_rows(cfg, "embeddings_track", emb, song_ids)
    _save_rows(cfg, "predictions_audio", np.concatenate([p for _, p in parts]), song_ids)


def _fusion_inputs(cfg: PipelineConfig, song_ids: list[str], *parts) -> list[dict]:
    """The artist and track embeddings of each part (index array or slice) of
    `song_ids`, by input name; only the part's rows are gathered."""
    am = load_artist_map(cfg.artist_map)
    emb_a, _, a_index = _load_rows(cfg, "embeddings_artist")
    emb_t, _, t_index = _load_rows(cfg, "embeddings_track")
    artists = [artist_of(am, s) for s in song_ids]
    missing = sorted(set(artists) - a_index.keys())
    if missing:
        raise StageError(f"no artist embedding for {len(missing)} artist(s) "
                         f"({', '.join(missing)}): their biographies are missing "
                         f"from paths.documents ({cfg.documents})")
    a_rows = _row_numbers("embeddings_artist", a_index, artists)
    t_rows = _row_numbers("embeddings_track", t_index, song_ids)
    return [{"artist": emb_a[a_rows[p]], "track": emb_t[t_rows[p]]} for p in parts]


def _stage_train_fusion(cfg: PipelineConfig) -> None:
    song_factors, song_ids, _ = _load_rows(cfg, "factors_songs.items")
    seed = stage_seed(cfg.seed, "train-fusion")
    fit, val = _fit_val_split(len(song_ids), seed)
    fit_x, val_x = _fusion_inputs(cfg, song_ids, fit, val)
    for head in HEADS.values():
        params, log = zoo.train_mapping(head.net(fit_x, song_factors.shape[1]),
                                        head.features(fit_x), song_factors[fit],
                                        head.features(val_x), song_factors[val],
                                        cfg.train_fusion, seed + head.seed_offset)
        matrixio.save_params(cfg.out(head.params), params)
        log.write_tsv(cfg.out(head.log))


def _stage_evaluate(cfg: PipelineConfig) -> None:
    test = _load_split(cfg, "test")
    users, _, user_index = _load_rows(cfg, "factors_songs.users")
    # a test user without training plays has no user factor: every approach skips them
    keep = [r for r, u in enumerate(test.user_ids) if u in user_index]
    n_cold_users = test.n_users - len(keep)
    if n_cold_users:
        test = test.select(rows=keep)
    user_factors = users[[user_index[u] for u in test.user_ids]]
    k = user_factors.shape[1]

    # audio: the track network's own factor predictions
    preds, _, pred_index = _load_rows(cfg, "predictions_audio")
    predictions = {"audio": preds[_row_numbers("predictions_audio", pred_index, test.item_ids)]}

    inputs, = _fusion_inputs(cfg, test.item_ids, slice(None))
    for approach, head in HEADS.items():
        net = head.net(inputs, k)
        predictions[approach] = zoo.predict_factors(
            net, _checked_params(cfg, head.params, net), head.features(inputs))
    predictions["random"] = ev.random_factors(test.n_items, k,
                                              stage_seed(cfg.seed, "baseline-random"))

    ub_items, ub_users = ev.make_baseline_factors(test, cfg.wmf_songs,
                                                  stage_seed(cfg.seed, "baseline-upper"))

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
    "train-artist": Stage(_stage_train_artist, ("params_artist.csmx", "log_artist.tsv")
                          + _table("embeddings_artist")),
    "train-track": Stage(_stage_train_track, ("params_track.csmx", "log_track.tsv")),
    "extract": Stage(_stage_extract, _table("embeddings_track", "predictions_audio")),
    "train-fusion": Stage(_stage_train_fusion,
                          tuple(f for h in HEADS.values() for f in (h.params, h.log))),
    "evaluate": Stage(_stage_evaluate,
                      tuple(f"eval_{a}.{ext}" for a in APPROACHES for ext in ("tsv", "json"))),
    "report": Stage(_stage_report, ("report.tsv", "report.json")),
}
STAGES = tuple(STAGE_TABLE)
