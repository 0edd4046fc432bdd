import builtins
import dataclasses
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import coldrec
from coldrec import audio, matrixio, nn, pipeline, synth
from coldrec.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from coldrec.config import (PipelineConfig, load_pipeline_config, load_synthetic_spec,
                            parse_kv_file, write_kv_file)
from coldrec.data import DataError
from coldrec.pipeline import (APPROACHES, STAGE_TABLE, STAGES, StageError, _fit_val_split,
                              run_stage, stage_seed)
from coldrec.wmf import WmfConfig
from coldrec.zoo import TrainConfig
from feedback_oracle import to_dense

TINY = dict(n_users=40, n_artists=12, songs_per_artist=4, latent_dim=8,
            bins=8, frames=70, n_text_terms=30, doc_tokens=60,
            n_templates=4, density=0.08, seed=11)


def tiny_spec(**overrides):
    return synth.SyntheticSpec(**{**TINY, **overrides})


def write_config(path, data_dir, out_dir, **extra):
    values = {
        "paths.triples": os.path.join(data_dir, "triples.tsv"),
        "paths.artist_map": os.path.join(data_dir, "artist_map.tsv"),
        "paths.documents": os.path.join(data_dir, "documents.jsonl"),
        "paths.annotations": os.path.join(data_dir, "annotations.jsonl"),
        "paths.kb": os.path.join(data_dir, "kb.jsonl"),
        "paths.spectrograms": os.path.join(data_dir, "spectrograms"),
        "paths.out": out_dir,
        "seed": 3,
        "scale": 1 / 64,
        "split.train": 0.7, "split.val": 0.15, "split.test": 0.15,
        "eval.k": 50,
        "audio.patch_frames": 64,
        "wmf.songs.k": 8, "wmf.songs.iterations": 4,
        "wmf.artists.k": 8, "wmf.artists.iterations": 4,
        "train.artist.epochs": 2, "train.artist.patience": 2,
        "train.track.epochs": 2, "train.track.patience": 2,
        "train.fusion.epochs": 2, "train.fusion.patience": 2,
    }
    values.update(extra)
    write_kv_file(path, values)
    return path


def dataset_paths(data_dir) -> dict[str, str]:
    """The `PipelineConfig` path fields of a dataset written by `coldrec synth`."""
    return {"triples": str(data_dir / "triples.tsv"),
            "artist_map": str(data_dir / "artist_map.tsv"),
            "documents": str(data_dir / "documents.jsonl"),
            "annotations": str(data_dir / "annotations.jsonl"),
            "kb": str(data_dir / "kb.jsonl"), "spectrogram_dir": str(data_dir / "spectrograms")}


def files_under(root) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """One full tiny pipeline run shared by the read-only assertions below.

    Records, per stage, the files under out/ that the stage opened for
    reading and the files it created.
    """
    root = tmp_path_factory.mktemp("run")
    data_dir = root / "data"
    out_dir = root / "out"
    synth.write_dataset(synth.generate(tiny_spec()), data_dir)
    cfg_path = write_config(root / "pipeline.cfg", str(data_dir), str(out_dir))
    cfg = load_pipeline_config(cfg_path)
    reads = {stage: set() for stage in STAGES}
    created = {}
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if "r" in mode and isinstance(file, (str, os.PathLike)):
            rel = os.path.relpath(file, out_dir)
            if not rel.startswith(".."):
                reads[stage].add(rel)
        return real_open(file, mode, *args, **kwargs)

    with mock.patch("builtins.open", recording_open):
        for stage in STAGES:
            before = files_under(out_dir)
            run_stage(cfg, stage)
            created[stage] = files_under(out_dir) - before
    return SimpleNamespace(cfg=cfg, cfg_path=cfg_path, reads=reads, created=created)


@pytest.fixture(scope="module")
def pipeline_run(staged_run):
    return staged_run.cfg


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth.write_dataset(synth.generate(tiny_spec()), a)
        synth.write_dataset(synth.generate(tiny_spec()), b)
        files = sorted(os.path.relpath(os.path.join(d, f), a)
                       for d, _, fs in os.walk(a) for f in fs)
        assert files
        for rel in files:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel

    def test_seed_changes_output(self):
        d1 = synth.generate(tiny_spec())
        d2 = synth.generate(tiny_spec(seed=12))
        assert not np.array_equal(d1.user_factors, d2.user_factors)

    def test_every_song_has_spectrogram_and_artist(self):
        data = synth.generate(tiny_spec())
        for sid in data.feedback.item_ids:
            assert sid in data.spectrograms
            assert data.artist_map[sid] in data.documents

    def test_every_user_has_a_play(self):
        data = synth.generate(tiny_spec())
        plays = to_dense(data.feedback).sum(axis=1)
        assert (plays >= 1).all()

    def test_scores_correlate_with_plays(self):
        from scipy import stats
        data = synth.generate(tiny_spec(n_users=80))
        scores = data.user_factors @ data.song_factors.T
        counts = to_dense(data.feedback)
        rho = stats.spearmanr(scores.ravel(), counts.ravel()).statistic
        assert rho > 0.1

    def test_kb_contains_off_topic_entity(self):
        data = synth.generate(tiny_spec())
        assert "e_offtopic" in data.kb
        assert all("e_offtopic" in data.annotations.get(artist, [])
                   for artist in data.documents)

    def test_odd_latent_dim_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(latent_dim=7).validate()


class TestConfig:
    def test_kv_round_trip(self, tmp_path):
        path = tmp_path / "c.cfg"
        write_kv_file(path, {"a.b": "1", "c": "x y", "d e": "", "f": "g=h"})
        assert parse_kv_file(path) == {"a.b": "1", "c": "x y", "d e": "", "f": "g=h"}

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# top\n\nseed = 4  # trailing\n")
        assert parse_kv_file(path) == {"seed": "4"}

    def test_hash_inside_value_round_trips(self, tmp_path):
        # only a `#` that starts the line or follows whitespace starts a comment
        path = tmp_path / "c.cfg"
        write_kv_file(path, {"paths.out": "runs/#3/out", "tag": "a#b"})
        assert parse_kv_file(path) == {"paths.out": "runs/#3/out", "tag": "a#b"}
        path.write_text("#top\nseed = 4\t# tab\nname = x#y # note\n")
        assert parse_kv_file(path) == {"seed": "4", "name": "x#y"}

    @pytest.mark.parametrize("key,value", [
        ("paths.out", "runs/a #3"), ("b", " pad "), ("b", "pad\t"), ("c", "x\ny=1"),
        ("c", "x\ry"), ("d", "#3"), ("#g", "1"), (" h", "1"), ("i\nj", "1"),
        ("k=l", "1"), ("", "1"),
    ])
    def test_value_that_would_not_read_back_rejected(self, tmp_path, key, value):
        path = tmp_path / "c.cfg"
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            write_kv_file(path, {"ok": "1", key: value})
        assert not path.exists()

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nnot a pair\n")
        with pytest.raises(DataError, match=":2"):
            parse_kv_file(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\n# again\nscale = 1\nseed = 4\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:4: key 'seed' is given again; line 1 gives it first")):
            parse_kv_file(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg_path = write_config(tmp_path / "p.cfg", "data", "out")
        cfg = load_pipeline_config(cfg_path)
        assert cfg.triples == str(tmp_path / "data" / "triples.tsv")
        assert cfg.out_dir == str(tmp_path / "out")

    def test_overrides_win(self, tmp_path):
        """`--out` and `--seed` replace the file's values in the config a stage runs with."""
        cfg_path = write_config(tmp_path / "p.cfg", "data", "out")
        with mock.patch("coldrec.cli.run_stage") as run:
            assert main(["split", "--config", str(cfg_path),
                         "--out", "/elsewhere", "--seed", "99"]) == EXIT_OK
        (cfg, stage), = [c.args for c in run.call_args_list]
        assert stage == "split"
        assert cfg == dataclasses.replace(load_pipeline_config(cfg_path),
                                          out_dir="/elsewhere", seed=99)

    def test_typed_values(self, tmp_path):
        cfg_path = write_config(tmp_path / "p.cfg", "data", "out")
        cfg = load_pipeline_config(cfg_path)
        assert cfg.split_ratios == (0.7, 0.15, 0.15)
        assert cfg.eval_k == 50
        assert cfg.patch_frames == 64
        assert cfg.train_artist.max_epochs == 2

    def test_patch_frames_default(self, tmp_path):
        cfg_path = write_config(tmp_path / "p.cfg", "data", "out")
        values = parse_kv_file(cfg_path)
        del values["audio.patch_frames"]
        write_kv_file(cfg_path, values)
        assert load_pipeline_config(cfg_path).patch_frames == 96

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = write_config(tmp_path / "p.cfg", "data", "out", **{"train.artist.lr": value})
        message = f"{path}: key 'train.artist.lr' has invalid value {value!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load_pipeline_config(path)

    @pytest.mark.parametrize("write, load, key", [
        (lambda path: write_config(path, "data", "out", **{"train.artist.epoch": 1}),
         load_pipeline_config, "train.artist.epoch"),
        (lambda path: write_kv_file(path, {"users": 10, "song_per_artist": 3}),
         load_synthetic_spec, "song_per_artist"),
        (lambda path: write_config(path, "data", "out", **{"audio.patch_seconds": 15}),
         load_pipeline_config, "audio.patch_seconds"),
        (lambda path: write_config(path, "data", "out", **{"text.property_map": "p.json"}),
         load_pipeline_config, "text.property_map"),
        (lambda path: write_config(path, "data", "out", **{"wmf.songs.init_scale": 0.01}),
         load_pipeline_config, "wmf.songs.init_scale"),
        (lambda path: write_config(path, "data", "out", **{"train.val_fraction": 0.1}),
         load_pipeline_config, "train.val_fraction"),
    ], ids=["pipeline", "synthetic", "patch_seconds", "property_map", "init_scale",
            "val_fraction"])
    def test_unknown_key_rejected(self, tmp_path, write, load, key):
        path = tmp_path / "c.cfg"
        write(path)
        with pytest.raises(DataError, match=re.escape(f"{path}: unknown key(s) {key!r}")):
            load(path)

    @pytest.mark.parametrize("key, problem", [
        ("eval.k", "eval.k: cutoff must be >= 1, got 0"),
        ("wmf.songs.k", "wmf.songs.*: k must be >= 1"),
        ("wmf.artists.lambda", "wmf.artists.*: lambda must be > 0"),
        ("train.artist.patience", "train.artist.*: patience must be >= 1"),
        ("train.track.lr", "train.track.*: learning rate must be > 0, got 0.0"),
        ("train.fusion.batch", "train.fusion.*: batch size must be >= 1"),
        ("scale", "scale: scale must be in (0, 1], got 2"),
        ("audio.patch_frames", "audio.patch_frames: patch of 63 frames is too short for the "
                               "pooling pyramid (needs >= 64)"),
        ("text.vocab_cap", "text.vocab_cap: vocabulary cap must be >= 1, got 0"),
        ("split.val", "split.*: split ratio for 'val' must be >= 0, got -0.1"),
        ("split.train", "split.*: split ratios must sum to 1, got (0.0, 0.15, 0.15)"),
        ("paths.kb", "paths.kb: empty path"),
        ("paths.out", "paths.out: empty path"),
    ])
    def test_out_of_range_value_stops_config_load(self, tmp_path, capsys, key, problem):
        """A value out of its range stops every stage at config load, with one
        error line naming the file and the key or key group, not stages later."""
        value = {"scale": 2, "audio.patch_frames": 63, "split.val": -0.1,
                 "paths.kb": "", "paths.out": ""}.get(key, 0)
        path = write_config(tmp_path / "p.cfg", "data", "out", **{key: value})
        assert main(["split", "--config", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {path}: {problem}\n"

    def test_every_nested_config_field_is_a_key(self):
        """A nested config holds only what a config file sets; `early_stop_tol`
        stays settable in code alone, for the ALS oracles."""
        from coldrec.config import _TRAIN_KEYS, _WMF_KEYS
        for cls, keys, code_only in ((WmfConfig, _WMF_KEYS, {"early_stop_tol"}),
                                     (TrainConfig, _TRAIN_KEYS, set())):
            fields = {f.name for f in dataclasses.fields(cls)}
            assert fields - code_only == set(keys.values()), cls.__name__

    def test_synthetic_spec_file(self, tmp_path):
        path = tmp_path / "s.cfg"
        write_kv_file(path, {"users": 10, "artists": 4, "latent_dim": 6, "seed": 5})
        spec = load_synthetic_spec(path)
        assert (spec.n_users, spec.n_artists, spec.latent_dim, spec.seed) == (10, 4, 6, 5)

    @pytest.mark.parametrize("key, value, problem", [
        ("users", 0, "must be >= 1, got 0"),
        ("latent_dim", 7, "must be even (split across modalities), got 7"),
        ("density", -1, "must be in (0, 1], got -1.0"),
        ("text_noise", 2, "must be in [0, 1], got 2.0"),
        ("mean_extra_plays", -1, "must be >= 0, got -1.0"),
        ("seed", -1, "must be >= 0, got -1"),
    ])
    def test_out_of_range_spec_value_is_data_exit(self, tmp_path, capsys, key, value, problem):
        """A spec value out of its range stops `coldrec synth` with one error
        line naming the spec file and the key, and writes no dataset."""
        path = tmp_path / "s.cfg"
        write_kv_file(path, {"users": 10, "artists": 4, "latent_dim": 6, key: value})
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {path}: {key}: {problem}\n"
        assert not out.exists()

    def test_empty_synthetic_spec_is_the_default(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("")
        assert load_synthetic_spec(path) == synth.SyntheticSpec()

    def test_paths_only_config_loads_dataclass_defaults(self, tmp_path):
        values = parse_kv_file(write_config(tmp_path / "p.cfg", "data", "out"))
        path = tmp_path / "paths.cfg"
        write_kv_file(path, {k: v for k, v in values.items()
                             if k.startswith("paths.") and k != "paths.out"})
        cfg = load_pipeline_config(path)
        assert cfg == PipelineConfig(**dataset_paths(tmp_path / "data"),
                                     out_dir=str(tmp_path / "out"))
        assert cfg.wmf_songs == cfg.wmf_artists == WmfConfig()
        assert cfg.train_artist == cfg.train_track == cfg.train_fusion == TrainConfig()

    def test_readme_config_loads_as_shown(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (tmp_path / "run.cfg").write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert load_pipeline_config(tmp_path / "run.cfg") == PipelineConfig(
            **dataset_paths(tmp_path / "data"), out_dir=str(tmp_path / "out") + "/",
            seed=3, channel_scale=0.125, split_ratios=(0.8, 0.1, 0.1),
            wmf_songs=WmfConfig(k=16), wmf_artists=WmfConfig(k=16),
            vocab_cap=10000, patch_frames=96,
            train_artist=TrainConfig(max_epochs=40),
            train_track=TrainConfig(max_epochs=25), train_fusion=TrainConfig(),
            eval_k=500)


class TestStages:
    def test_unknown_stage_lists_valid_names(self, pipeline_run):
        with pytest.raises(StageError, match="factorize-songs"):
            run_stage(pipeline_run, "compress")

    def test_stage_seed_varies_by_stage_and_seed(self):
        assert stage_seed(3, "split") != stage_seed(3, "extract")
        assert stage_seed(3, "split") != stage_seed(4, "split")
        assert 0 <= stage_seed(3, "split") < 2**31

    @pytest.mark.parametrize("stage", STAGES)
    def test_missing_dependency_names_producer(self, staged_run, stage, tmp_path):
        """Every artifact a stage reads is declared by an earlier stage, and
        running the stage without it names that stage."""
        producer = {rel: s for s in STAGES[:STAGES.index(stage)]
                    for rel in STAGE_TABLE[s].writes}
        reads = staged_run.reads[stage]
        assert bool(reads) == (stage not in ("split", "enrich"))  # those read only the dataset
        assert reads <= set(producer)
        broken = tmp_path / "broken_out"
        shutil.copytree(staged_run.cfg.out_dir, broken)
        broken_cfg = dataclasses.replace(staged_run.cfg, out_dir=str(broken))
        for rel in sorted(reads):
            os.rename(broken / rel, tmp_path / "hidden")
            message = f"missing artifact {rel!r}; run stage {producer[rel]!r} first"
            with pytest.raises(StageError, match=re.escape(message)):
                run_stage(broken_cfg, stage)
            os.rename(tmp_path / "hidden", broken / rel)

    @pytest.mark.parametrize("stage", STAGES)
    def test_short_ids_file_names_table_and_producer(self, staged_run, stage, tmp_path):
        """A row table whose `.ids` file lost a line stops every stage that
        reads it with an error naming the table and the stage that writes it,
        instead of pairing each later row with its neighbour's id."""
        producer = {rel: s for s in STAGES for rel in STAGE_TABLE[s].writes}
        id_files = sorted(rel for rel in staged_run.reads[stage] if rel.endswith(".ids"))
        assert bool(id_files) == (stage in ("train-artist", "train-track", "extract",
                                            "train-fusion", "evaluate"))
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        for rel in id_files:
            lines = (out / rel).read_text().splitlines(keepends=True)
            (out / rel).write_text("".join(lines[:1] + lines[2:]))
            name = rel.removesuffix(".ids")
            message = (re.escape(f"row table {name!r} has {len(lines) - 1} ids for "
                                 f"{len(lines)} rows") + ".*"
                       + re.escape(f"; rerun stage {producer[rel]!r}"))
            with pytest.raises(StageError, match=message):
                run_stage(cfg, stage)
            (out / rel).write_text("".join(lines))

    def test_table_in_another_layout_names_producer(self, staged_run, tmp_path):
        """A matrix file without the one `rows` section (one left by an older
        build, say) is a StageError naming its sections and producer."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        path = str(out / "features_text.csmx")
        matrixio.save_matrix(path, {"tfidf": matrixio.load_matrix(path)["rows"]})
        with pytest.raises(StageError, match=re.escape(
                "in sections ['tfidf']; rerun stage 'vectorize'")):
            run_stage(cfg, "train-artist")

    @pytest.mark.parametrize("rel, producer", [("params_track.csmx", "train-track"),
                                               ("params_artist.csmx", "train-artist")])
    def test_stale_params_stop_extract(self, staged_run, tmp_path, capsys, rel, producer):
        """Parameters whose last dense layer reads 4x the columns the net built
        today gives it (an older build's track net, whose final pool copied each
        frame 4 times) end in one error line naming the artifact, the tensor,
        both shapes and the stage to rerun, not in a numpy error."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        params = matrixio.load_params(str(out / rel))
        layer = [name for name, tensors in params.items() if "W" in tensors][-1]
        rows, k = params[layer]["W"].shape
        params[layer]["W"] = np.repeat(params[layer]["W"], 4, axis=0)
        matrixio.save_params(str(out / rel), params)
        assert main(["extract", "--config", str(staged_run.cfg_path), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {rel} holds tensor {layer}/W as {(4 * rows, k)}, but the net built from "
            f"the current inputs needs {(rows, k)}; rerun stage {producer!r}\n")

    def test_heads_on_stale_track_embeddings_stop_evaluate(self, staged_run, tmp_path, capsys):
        """Fusion heads trained on an older build's track embeddings (each column
        copied 4 times), evaluated after `extract` reran, end in one error line
        naming the head's artifact and `train-fusion`, not in a numpy error."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        table = out / "embeddings_track.csmx"
        current = table.read_bytes()
        emb_t = matrixio.load_matrix(str(table))["rows"]
        matrixio.save_matrix(str(table), {"rows": np.repeat(emb_t, 4, axis=1)})
        run_stage(cfg, "train-fusion")
        table.write_bytes(current)
        dim_a = matrixio.load_matrix(str(out / "embeddings_artist.csmx"))["rows"].shape[1]
        dim_t, k = emb_t.shape[1], cfg.wmf_songs.k
        assert main(["evaluate", "--config", str(staged_run.cfg_path), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: params_fusion_lin.csmx holds tensor trunk/1/W as {(dim_a + 4 * dim_t, k)}, "
            f"but the net built from the current inputs needs {(dim_a + dim_t, k)}; "
            f"rerun stage 'train-fusion'\n")

    @pytest.mark.parametrize("case, tensor, trained, needed", [
        ("scale", "trunk/0/W", (4, 8, 4), (8, 8, 4)),
        ("bins", "trunk/0/W", (4, 8, 4), (4, 16, 4)),
        ("song-k", "trunk/17/W", (16, 8), (16, 4)),
        ("artist-k", None, None, None),
    ])
    def test_extract_builds_each_net_from_its_training_inputs(self, staged_run, tmp_path, capsys,
                                                             case, tensor, trained, needed):
        """`extract` builds the track and artist nets from the inputs that trained
        them. Another `scale`, spectrograms with other bins, or song factors refit
        with another k end in one error line naming the track parameters, the
        tensor, both shapes and `train-track`, and `extract` passes once that
        stage reruns. `wmf.artists.k` changed without a refit leaves the artifacts
        agreeing with each other, so `extract` runs and writes the same tables."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        specs = tmp_path / "spectrograms"
        extra = {"scale": {"scale": 1 / 32}, "bins": {"paths.spectrograms": str(specs)},
                 "song-k": {"wmf.songs.k": 4}, "artist-k": {"wmf.artists.k": 4}}[case]
        if case == "bins":
            specs.mkdir()
            for path in Path(staged_run.cfg.spectrogram_dir).iterdir():
                data = audio.load_spectrogram(path).data
                audio.save_spectrogram(audio.Spectrogram(np.repeat(data, 2, axis=0)),
                                       specs / path.name)
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(out), **extra)

        def run(stage):
            return main([stage, "--config", str(cfg_path)])

        if case == "song-k":
            assert run("factorize-songs") == EXIT_OK
        if tensor is None:
            assert run("extract") == EXIT_OK
            for rel in STAGE_TABLE["extract"].writes:
                assert filecmp.cmp(out / rel, staged_run.cfg.out(rel), shallow=False), rel
            return
        assert run("extract") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: params_track.csmx holds tensor {tensor} as {trained}, but the net built "
            f"from the current inputs needs {needed}; rerun stage 'train-track'\n")
        assert run("train-track") == EXIT_OK
        assert run("extract") == EXIT_OK

    def test_test_user_without_training_plays_is_skipped(self, staged_run, tmp_path):
        """A test user with no training plays has no user factor: every
        approach leaves them out and counts them as skipped."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        cold = (out / "splits" / "test.tsv").read_text().split("\t", 1)[0]
        train = out / "splits" / "train.tsv"
        lines = train.read_text().splitlines(keepends=True)
        train.write_text("".join(line for line in lines if line.split("\t")[0] != cold))
        before = {a: json.loads((out / f"eval_{a}.json").read_text()) for a in APPROACHES}
        run_stage(cfg, "factorize-songs")
        run_stage(cfg, "evaluate")
        for a in APPROACHES:
            summary = json.loads((out / f"eval_{a}.json").read_text())
            assert summary["skipped"] == before[a]["skipped"] + 1, a
            assert summary["users"] == before[a]["users"] - 1, a
            evaluated = {line.split("\t")[0]
                         for line in (out / f"eval_{a}.tsv").read_text().splitlines()}
            assert cold not in evaluated, a

    @pytest.mark.parametrize("part, failing_stage", [("test", "evaluate"),
                                                     ("train", "train-fusion")])
    def test_missing_biography_names_artist(self, staged_run, tmp_path, part, failing_stage):
        """An artist without a biography has no artist embedding: the first
        stage that needs one fails with a StageError that names the artist."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        assignment = (out / "splits" / "artist_assignment.tsv").read_text().splitlines()
        artist = next(line.split("\t")[0] for line in assignment
                      if line.split("\t")[1:] == [part])
        docs = tmp_path / "documents.jsonl"
        lines = Path(staged_run.cfg.documents).read_text(encoding="utf-8").splitlines(keepends=True)
        docs.write_text("".join(line for line in lines
                                if json.loads(line)["artist_id"] != artist))
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out), documents=str(docs))
        for stage in STAGES[STAGES.index("enrich"):STAGES.index(failing_stage)]:
            if stage != "train-track":
                run_stage(cfg, stage)
        with pytest.raises(StageError, match=rf"\({artist}\).*biograph.*paths\.documents"):
            run_stage(cfg, failing_stage)

    def test_extract_runs_track_net_once_per_batch(self, staged_run, tmp_path, monkeypatch):
        """One eval forward per 256-song batch yields both the track embeddings
        and the audio predictions, byte-identical to the staged run's."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        real_forward = nn.net_forward
        batches = []

        def counting_forward(net, params, inputs, mode="train", seed=0):
            if mode == "eval" and any(s.kind == "conv1d_time" for s in net.trunk):
                batches.append(len(inputs))
            return real_forward(net, params, inputs, mode, seed)

        monkeypatch.setattr(nn, "net_forward", counting_forward)
        run_stage(cfg, "extract")
        n_songs = len(matrixio.load_ids(str(out / "embeddings_track.ids")))
        assert batches == [min(256, n_songs - start) for start in range(0, n_songs, 256)]
        for rel in STAGE_TABLE["extract"].writes:
            assert filecmp.cmp(out / rel, staged_run.cfg.out(rel), shallow=False), rel

    @pytest.mark.parametrize("stage", ["train-track", "extract"])
    def test_one_shot_patches_hold_one_spectrogram_at_a_time(self, staged_run, stage,
                                                             tmp_path, monkeypatch):
        """`extract`, and `train-track` for its fixed validation patches and
        each epoch's training patches, drop each song's spectrogram once its
        patch is drawn: no earlier one is alive when the next is loaded, and
        the artifacts are byte-identical to the staged run's. `extract` and
        validation load each song once; each fit song is loaded once per
        epoch run."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        if stage == "train-track":
            song_ids = matrixio.load_ids(cfg.out("factors_songs.items.ids"))
            fit, val = _fit_val_split(len(song_ids), stage_seed(cfg.seed, stage))
            epochs = len(Path(cfg.out("log_track.tsv")).read_text().splitlines()) - 1
            expected = Counter({song_ids[i]: epochs for i in fit})
            expected.update(song_ids[i] for i in val)
        else:
            expected = Counter(matrixio.load_ids(cfg.out("embeddings_track.ids")))
        real_load = audio.load_spectrogram
        loaded = []  # the song of each load
        alive = []  # weakrefs to the spectrograms loaded so far
        held = []  # how many of them were alive at each load

        def tracking_load(path):
            spec = real_load(path)
            loaded.append(os.path.basename(path).removesuffix(".cqts"))
            held.append(sum(ref() is not None for ref in alive))
            alive.append(weakref.ref(spec))
            return spec

        monkeypatch.setattr(audio, "load_spectrogram", tracking_load)
        run_stage(cfg, stage)
        assert Counter(loaded) == expected and len(expected) > 1
        assert max(held) == 0
        for rel in STAGE_TABLE[stage].writes:
            assert filecmp.cmp(out / rel, staged_run.cfg.out(rel), shallow=False), rel

    @pytest.mark.parametrize("stage, role", [("train-track", "fit"), ("train-track", "val"),
                                             ("extract", "test")])
    def test_missing_spectrogram_is_data_error(self, staged_run, stage, role, tmp_path):
        """A song without a spectrogram file stops the stage with a DataError
        naming the song and the path, whether its patch is drawn every epoch,
        once for validation or once for extraction."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        song_ids = matrixio.load_ids(str(out / "factors_songs.items.ids"))
        fit, val = _fit_val_split(len(song_ids), stage_seed(staged_run.cfg.seed, "train-track"))
        song = {"fit": song_ids[fit[0]], "val": song_ids[val[0]],
                "test": matrixio.load_ids(str(out / "embeddings_track.ids"))[-1]}[role]
        specs = tmp_path / "spectrograms"
        shutil.copytree(staged_run.cfg.spectrogram_dir, specs)
        os.remove(specs / f"{song}.cqts")
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out), spectrogram_dir=str(specs))
        with pytest.raises(DataError, match=re.escape(
                f"no spectrogram file for song {song!r} at {specs / song}.cqts")):
            run_stage(cfg, stage)

    def test_one_training_song_is_value_error(self, staged_run, tmp_path):
        """A single training song leaves no validation patch to read the width
        from: `train-track` stops with early stopping's ValueError."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        rows = matrixio.load_matrix(str(out / "factors_songs.items.csmx"))["rows"]
        ids = matrixio.load_ids(str(out / "factors_songs.items.ids"))
        matrixio.save_matrix(str(out / "factors_songs.items.csmx"), {"rows": rows[:1]})
        matrixio.save_ids(str(out / "factors_songs.items.ids"), ids[:1])
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        with pytest.raises(ValueError, match="early stopping"):
            run_stage(cfg, "train-track")

    @pytest.mark.parametrize("stage", ["train-track", "extract"])
    @pytest.mark.parametrize("cut", ["frames", "bins"])
    def test_misshapen_spectrogram_is_data_error(self, staged_run, stage, cut, tmp_path):
        """A training song's spectrogram cut to fewer frames than a patch, or
        to fewer bins than the other songs', stops the stage with a DataError
        naming the song and both shapes."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        song_ids = matrixio.load_ids(str(out / "factors_songs.items.ids"))
        fit, _ = _fit_val_split(len(song_ids), stage_seed(staged_run.cfg.seed, "train-track"))
        song = song_ids[fit[1]]
        specs = tmp_path / "spectrograms"
        shutil.copytree(staged_run.cfg.spectrogram_dir, specs)
        data = audio.load_spectrogram(specs / f"{song}.cqts").data
        audio.save_spectrogram(audio.Spectrogram(data[:, :10] if cut == "frames" else data[:-2]),
                               specs / f"{song}.cqts")
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out), spectrogram_dir=str(specs))
        message = {
            "frames": re.escape(f"spectrogram of song {song!r} has shape (8, 10), "
                                f"too short for a patch of shape (8, 64)"),
            "bins": re.escape(f"spectrogram of song {song!r} gives a patch of shape (6, 64), "
                              f"but song ") + r"'\w+' gives \(8, 64\)",
        }[cut]
        with pytest.raises(DataError, match=message):
            run_stage(cfg, stage)

    @pytest.mark.parametrize("table, stage", [("predictions_audio", "evaluate"),
                                              ("embeddings_track", "train-fusion")])
    def test_song_without_row_is_data_exit(self, staged_run, tmp_path, capsys, table, stage):
        """A song missing from a table that `extract` writes (a test song for
        `evaluate`, a training song for `train-fusion`) ends in one error line
        that names the table, the song and the stage to rerun, not a KeyError."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        n_train = len(matrixio.load_ids(str(out / "factors_songs.items.ids")))
        rows = matrixio.load_matrix(str(out / f"{table}.csmx"))["rows"]
        ids = matrixio.load_ids(str(out / f"{table}.ids"))
        song = ids[n_train] if stage == "evaluate" else ids[1]  # test songs follow training songs
        keep = [r for r, i in enumerate(ids) if i != song]
        matrixio.save_matrix(str(out / f"{table}.csmx"), {"rows": rows[keep]})
        matrixio.save_ids(str(out / f"{table}.ids"), [ids[r] for r in keep])
        assert main([stage, "--config", str(staged_run.cfg_path), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == (f"error: row table {table!r} has no row for 1 id(s) "
                                           f"({song}); rerun stage 'extract'\n")

    def test_head_order_leaves_trained_heads_unchanged(self, staged_run, tmp_path, monkeypatch):
        """Each head's seed is its own offset from the stage seed, not its place
        in HEADS: training the heads in reverse order writes byte-identical
        parameters and logs."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg = dataclasses.replace(staged_run.cfg, out_dir=str(out))
        writes = STAGE_TABLE["train-fusion"].writes
        assert {rel.split("_")[0] for rel in writes} == {"params", "log"}
        for rel in writes:
            os.remove(out / rel)
        monkeypatch.setattr(pipeline, "HEADS", dict(reversed(pipeline.HEADS.items())))
        run_stage(cfg, "train-fusion")
        for rel in writes:
            assert filecmp.cmp(out / rel, staged_run.cfg.out(rel), shallow=False), rel

    def test_every_stage_runs_without_validation_artists(self, tmp_path):
        """`split.val = 0` leaves `splits/val.tsv` empty, and no stage reads it."""
        data_dir = tmp_path / "data"
        synth.write_dataset(synth.generate(tiny_spec()), data_dir)
        cfg = load_pipeline_config(write_config(
            tmp_path / "p.cfg", str(data_dir), str(tmp_path / "out"),
            **{"split.train": 0.85, "split.val": 0, "split.test": 0.15}))
        for stage in STAGES:
            run_stage(cfg, stage)
        assert os.path.getsize(cfg.out("splits/val.tsv")) == 0
        with open(cfg.out("report.json"), encoding="utf-8") as fh:
            assert set(json.load(fh)) == set(APPROACHES)

    def test_empty_triples_file_stops_split_naming_it(self, tmp_path):
        data_dir = tmp_path / "data"
        synth.write_dataset(synth.generate(tiny_spec()), data_dir)
        (data_dir / "triples.tsv").write_text("")
        cfg = load_pipeline_config(write_config(tmp_path / "p.cfg", str(data_dir),
                                                str(tmp_path / "out")))
        with pytest.raises(DataError, match=re.escape(f"{cfg.triples}: empty triples file")):
            run_stage(cfg, "split")

    def test_stages_leave_config_unchanged(self, staged_run):
        assert staged_run.cfg == load_pipeline_config(staged_run.cfg_path)

    def test_evaluate_on_empty_out_names_split(self, pipeline_run, tmp_path):
        cfg = dataclasses.replace(pipeline_run, out_dir=str(tmp_path / "empty"))
        with pytest.raises(StageError, match="split"):
            run_stage(cfg, "evaluate")


class TestArtifacts:
    @pytest.mark.parametrize("stage", STAGES)
    def test_all_expected_files_exist(self, staged_run, stage):
        """Each stage creates exactly the artifacts the stage table declares."""
        assert staged_run.created[stage] == set(STAGE_TABLE[stage].writes)

    def test_matrix_artifacts_are_row_tables(self, pipeline_run):
        """Every matrix artifact but the network parameters holds one section,
        `rows`, beside an `.ids` file with one line per row."""
        out = Path(pipeline_run.out_dir)
        tables = sorted(p for p in out.glob("*.csmx") if not p.name.startswith("params_"))
        assert [p.stem for p in tables] == [
            "embeddings_artist", "embeddings_track", "factors_artists.items",
            "factors_artists.users", "factors_songs.items", "factors_songs.users",
            "features_text", "predictions_audio"]
        for path in tables:
            sections = matrixio.load_matrix(str(path))
            assert list(sections) == ["rows"], path.name
            ids = path.with_suffix(".ids").read_text(encoding="utf-8").splitlines()
            assert len(ids) == len(sections["rows"]) > 0, path.name

    def test_extract_embeds_training_then_test_songs(self, pipeline_run):
        """`extract` embeds the songs later stages read, and no others."""
        train_ids = matrixio.load_ids(pipeline_run.out("factors_songs.items.ids"))
        with open(pipeline_run.out("splits/test.tsv"), encoding="utf-8") as fh:
            test_ids = list(dict.fromkeys(line.split("\t")[1] for line in fh))
        for name in ("embeddings_track", "predictions_audio"):
            assert matrixio.load_ids(pipeline_run.out(f"{name}.ids")) == train_ids + test_ids

    def test_track_embedding_is_one_column_per_last_conv_filter(self, pipeline_run):
        """The track net's final pool takes every frame its pyramid leaves, so
        `embeddings_track` holds one column per filter of the last conv, none a
        copy of another. Only filters that no song activates share a column:
        zero throughout."""
        net = pipeline._track_net(pipeline_run, TINY["bins"], pipeline_run.wmf_songs.k)
        filters = [layer.filters for layer in net.trunk if layer.kind == "conv1d_time"][-1]
        emb = matrixio.load_matrix(pipeline_run.out("embeddings_track.csmx"))["rows"]
        assert emb.shape[1] == filters
        live = emb[:, emb.any(axis=0)]
        assert np.unique(live, axis=1).shape[1] == live.shape[1]

    def test_report_covers_all_approaches(self, pipeline_run):
        with open(pipeline_run.out("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert set(report) == {"audio", "sem-emb", "mm-lf-lin", "mm-lf-h1",
                               "random", "upper-bound"}
        for entry in report.values():
            assert 0.0 <= entry["map"] <= 1.0
            assert entry["users"] >= 1

    def test_split_artists_are_disjoint(self, pipeline_run):
        from coldrec.data import load_assignment
        assignment = load_assignment(pipeline_run.out("splits/artist_assignment.tsv"))
        assert set(assignment.values()) == {"train", "val", "test"}

    def test_eval_files_per_approach(self, pipeline_run):
        for approach in ("audio", "sem-emb", "mm-lf-lin", "mm-lf-h1",
                         "random", "upper-bound"):
            with open(pipeline_run.out(f"eval_{approach}.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            assert summary["k"] == 50

    def test_training_logs_written(self, pipeline_run):
        for log in ("log_artist.tsv", "log_track.tsv", "log_fusion_lin.tsv",
                    "log_fusion_h1.tsv", "log_sememb.tsv"):
            with open(pipeline_run.out(log), encoding="utf-8") as fh:
                header = fh.readline().strip()
            assert header == "epoch\ttrain_loss\tval_loss"


class TestCli:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_usage_error(self, capsys):
        assert main(["not-a-stage", "--config", "x"]) == EXIT_USAGE

    def test_missing_config_file_is_data_error(self, tmp_path, capsys):
        code = main(["split", "--config", str(tmp_path / "none.cfg")])
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["config-is-directory", "out-is-file"])
    def test_bad_path_is_data_exit(self, staged_run, tmp_path, capsys, bad):
        """A config path naming a directory, or an output directory naming a
        file, ends in one error line, not in a traceback."""
        cfg_path = tmp_path
        if bad == "out-is-file":
            (tmp_path / "taken").write_text("")
            cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                    str(tmp_path / "taken"))
        assert main(["split", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]+\n", err), err

    @pytest.mark.parametrize("field", [0, 1], ids=["user", "item"])
    def test_empty_id_in_triples_is_data_exit(self, staged_run, tmp_path, capsys, field):
        """A play line with an empty user or item id ends `split` in one error
        line naming the file and the line, before any artifact is written."""
        lines = Path(staged_run.cfg.triples).read_text(encoding="utf-8").splitlines(True)
        parts = lines[6].split("\t")
        parts[field] = ""
        lines[6] = "\t".join(parts)
        triples = tmp_path / "triples.tsv"
        triples.write_text("".join(lines), encoding="utf-8")
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(tmp_path / "out"), **{"paths.triples": str(triples)})
        assert main(["split", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        name = ("user", "item")[field]
        assert err == f"error: {triples}:7: empty {name} id\n"
        assert not os.path.exists(tmp_path / "out" / "splits")

    @pytest.mark.parametrize("field", [0, 1], ids=["item", "artist"])
    def test_empty_id_in_artist_map_is_data_exit(self, staged_run, tmp_path, capsys, field):
        """An artist map line with an empty item or artist id ends `split` in one
        error line naming the file and the line, before any artifact is written."""
        lines = Path(staged_run.cfg.artist_map).read_text(encoding="utf-8").splitlines(True)
        parts = lines[6].rstrip("\n").split("\t")
        parts[field] = ""
        lines[6] = "\t".join(parts) + "\n"
        artist_map = tmp_path / "artist_map.tsv"
        artist_map.write_text("".join(lines), encoding="utf-8")
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(tmp_path / "out"), **{"paths.artist_map": str(artist_map)})
        assert main(["split", "--config", str(cfg_path)]) == EXIT_DATA
        name = ("item", "artist")[field]
        assert capsys.readouterr().err == f"error: {artist_map}:7: empty {name} id\n"
        assert not os.path.exists(tmp_path / "out" / "splits")

    @pytest.mark.parametrize("artist_id", ["", "zz\rq", "zz\nq"], ids=["empty", "cr", "lf"])
    @pytest.mark.parametrize("key, record", [
        ("paths.documents", {"text": "bio"}), ("paths.annotations", {"entities": []}),
    ], ids=["documents", "annotations"])
    def test_artist_id_that_cannot_label_a_row_is_data_exit(self, staged_run, tmp_path, capsys,
                                                             key, record, artist_id):
        """An artist id that no row table line can hold, empty or with a line
        break, ends `enrich` in one error line naming the file, line and field."""
        path = tmp_path / "input.jsonl"
        path.write_text("".join(json.dumps({"artist_id": a, **record}) + "\n"
                                for a in ("a_ok", artist_id)), encoding="utf-8")
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(tmp_path / "out"), **{key: str(path)})
        assert main(["enrich", "--config", str(cfg_path)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {path}:2: field 'artist_id' must be a non-empty id without line breaks, "
            f"got {artist_id!r}\n")
        assert not os.path.exists(tmp_path / "out" / "enriched_docs.jsonl")

    def test_stages_run_without_scipy(self, staged_run, tmp_path):
        """A fresh process that imports the CLI and runs every stage of a tiny
        dataset loads no scipy module, at import or after the last stage."""
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(tmp_path / "out"))
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import coldrec.cli\n"
            "print('scipy after import:', scipy_modules())\n"
            "for stage in coldrec.cli.STAGES:\n"
            f"    assert coldrec.cli.main([stage, '--config', {str(cfg_path)!r}]) == 0, stage\n"
            "print('scipy after stages:', scipy_modules())\n"
        )
        src = os.path.dirname(os.path.dirname(coldrec.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert [line for line in run.stdout.splitlines() if line.startswith("scipy")] == [
            "scipy after import: []", "scipy after stages: []"]
        assert os.path.exists(tmp_path / "out" / "report.json")

    def test_mistyped_document_field_is_data_exit(self, staged_run, tmp_path, capsys):
        """A biography whose text is a number ends `enrich` in one error line
        naming the line and the field, not in a traceback."""
        docs = tmp_path / "documents.jsonl"
        docs.write_text('{"artist_id": "a1", "text": 5}\n')
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(tmp_path / "out"), **{"paths.documents": str(docs)})
        assert main(["enrich", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(docs))}:1: field 'text' [^\n]+\n", err), err

    def test_synth_and_split_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.cfg"
        write_kv_file(spec_path, {"users": 25, "artists": 8, "songs_per_artist": 3,
                                  "latent_dim": 6, "bins": 6, "frames": 70,
                                  "text_terms": 20, "doc_tokens": 40,
                                  "templates": 3, "seed": 2})
        data_dir = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == EXIT_OK
        cfg_path = write_config(tmp_path / "p.cfg", str(data_dir), str(tmp_path / "out"),
                                **{"split.train": 0.6, "split.val": 0.2, "split.test": 0.2})
        assert main(["split", "--config", str(cfg_path)]) == EXIT_OK
        assert os.path.exists(tmp_path / "out" / "splits" / "train.tsv")

    @pytest.mark.parametrize("part,ratios", [("test", (0.9, 0.1, 0.0)),
                                             ("train", (0.0, 0.5, 0.5))])
    def test_split_part_without_artists_is_data_exit(self, tmp_path, capsys, part, ratios):
        """Later stages read the train and test parts, so `split` stops with
        one error line that names the part and writes no split."""
        data_dir = tmp_path / "data"
        synth.write_dataset(synth.generate(tiny_spec()), data_dir)
        cfg_path = write_config(tmp_path / "p.cfg", str(data_dir), str(tmp_path / "out"),
                                **dict(zip(("split.train", "split.val", "split.test"), ratios)))
        assert main(["split", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: split\.{part} = 0 leaves the {part} part without artists\n",
                            err), err
        assert not os.path.exists(tmp_path / "out" / "splits")

    def test_negative_split_ratio_is_data_exit(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        synth.write_dataset(synth.generate(tiny_spec()), data_dir)
        cfg_path = write_config(tmp_path / "p.cfg", str(data_dir), str(tmp_path / "out"),
                                **{"split.train": 1.0, "split.val": -0.1, "split.test": 0.1})
        assert main(["split", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*'val'[^\n]*\n", err), err
        assert not os.path.exists(tmp_path / "out" / "splits")

    def test_stage_error_is_data_exit(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.cfg"
        write_kv_file(spec_path, {"users": 10, "artists": 5, "songs_per_artist": 2,
                                  "latent_dim": 4, "bins": 4, "frames": 70,
                                  "text_terms": 10, "doc_tokens": 20,
                                  "templates": 2, "seed": 1})
        data_dir = tmp_path / "data"
        main(["synth", "--spec", str(spec_path), "--out", str(data_dir)])
        cfg_path = write_config(tmp_path / "p.cfg", str(data_dir), str(tmp_path / "out"))
        # evaluate before anything else: missing split artifacts
        assert main(["evaluate", "--config", str(cfg_path)]) == EXIT_DATA
        assert "split" in capsys.readouterr().err

    def test_diverging_training_is_data_exit(self, staged_run, tmp_path, capsys):
        """A finite but far too high learning rate ends in one error line that
        names the epoch and the rate, not in a traceback."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(out), **{"train.artist.lr": 1e300})
        assert main(["train-artist", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged: non-finite .*loss at epoch \d+, "
                            r".*learning rate 1e\+300\n", err), err

    def test_zero_epochs_is_data_exit(self, staged_run, tmp_path, capsys):
        """An epoch cap of 0 would save the untrained initial parameters for every
        later stage; it ends in one error line that names the epochs instead."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        os.remove(out / "params_artist.csmx")
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(out), **{"train.artist.epochs": 0})
        assert main(["train-artist", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*epochs[^\n]*\n", err), err
        assert not os.path.exists(out / "params_artist.csmx")

    def test_diverging_als_is_data_exit(self, staged_run, tmp_path, capsys, recwarn):
        """An alpha so high that ALS overflows ends in one error line that names
        the sweep, alpha and lambda, with no numpy warnings before it."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(out), **{"wmf.songs.alpha": 1e308})
        assert main(["factorize-songs", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ALS diverged: non-finite factors in sweep \d+ "
                            r"\(alpha 1e\+308, lambda [0-9.e+-]+\); .*\n", err), err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_singular_als_system_is_data_exit(self, staged_run, tmp_path, capsys):
        """k above the number of training artists with a vanishing lambda leaves
        an artist-factor row system singular: one error line that names the
        sweep, the row, alpha and lambda."""
        out = tmp_path / "out"
        shutil.copytree(staged_run.cfg.out_dir, out)
        cfg_path = write_config(tmp_path / "p.cfg", os.path.dirname(staged_run.cfg.triples),
                                str(out), **{"wmf.artists.k": 64, "wmf.artists.lambda": 1e-20})
        assert main(["factorize-artists", "--config", str(cfg_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ALS system of (user|item) row \d+ is not positive definite "
                            r"in sweep 1 \(alpha [0-9.e+-]+, lambda 1e-20\); "
                            r"raise lambda or lower k\n", err), err
