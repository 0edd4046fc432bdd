"""Desk-scale synthetic dataset generator with complementary modalities.

Text features carry the first half of the true latent coordinates, audio
templates the second half, so a fused model can outperform either single
modality while both beat random.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import audio as audio_mod
from . import textfeat
from .data import FeedbackMatrix, save_artist_map, save_triples
from .textfeat import AnnotationSet, KbEntity, KbSnapshot


@dataclass
class SyntheticSpec:
    n_users: int = 500
    n_artists: int = 200
    songs_per_artist: int = 10
    latent_dim: int = 16
    text_noise: float = 0.4
    audio_noise: float = 0.2
    density: float = 0.04       # target fraction of (user, song) pairs played
    mean_extra_plays: float = 2.0
    bins: int = 32
    frames: int = 180
    n_text_terms: int = 80
    doc_tokens: int = 120
    n_templates: int = 8
    seed: int = 0

    def validate(self, key=str):
        """A ValueError for the first field out of range, named ``key(field)``."""
        def check(name, ok, bound):
            if not ok:
                raise ValueError(f"{key(name)}: must be {bound}, got {getattr(self, name)}")

        for name in ("n_users", "n_artists", "songs_per_artist", "latent_dim",
                     "bins", "frames", "n_text_terms", "doc_tokens", "n_templates"):
            check(name, getattr(self, name) >= 1, ">= 1")
        check("latent_dim", self.latent_dim % 2 == 0, "even (split across modalities)")
        check("density", 0 < self.density <= 1, "in (0, 1]")
        check("text_noise", 0 <= self.text_noise <= 1, "in [0, 1]")
        check("mean_extra_plays", self.mean_extra_plays >= 0, ">= 0")
        check("seed", self.seed >= 0, ">= 0")


@dataclass
class SyntheticData:
    feedback: FeedbackMatrix
    artist_map: dict[str, str]
    documents: dict[str, str]  # artist id -> biography text
    annotations: AnnotationSet
    kb: KbSnapshot
    spectrograms: dict[str, audio_mod.Spectrogram]
    artist_factors: np.ndarray
    song_factors: np.ndarray
    user_factors: np.ndarray


def generate(spec: SyntheticSpec) -> SyntheticData:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    d = spec.latent_dim
    half = d // 2
    text_coords = np.arange(half)
    audio_coords = np.arange(half, d)

    artist_ids = [f"a{j:04d}" for j in range(spec.n_artists)]
    artist_f = rng.normal(size=(spec.n_artists, d))
    song_ids = []
    song_artist = {}
    song_rows = []
    for j, aid in enumerate(artist_ids):
        for s in range(spec.songs_per_artist):
            sid = f"s{j:04d}_{s:02d}"
            song_ids.append(sid)
            song_artist[sid] = aid
            song_rows.append(artist_f[j] + 0.3 * rng.normal(size=d))
    song_f = np.stack(song_rows)
    user_f = rng.normal(size=(spec.n_users, d))
    user_ids = [f"u{j:04d}" for j in range(spec.n_users)]

    feedback = _sample_plays(rng, user_ids, song_ids, user_f, song_f, spec)

    documents = _make_documents(rng, artist_ids, artist_f[:, text_coords], spec)
    kb, annotations = _make_kb(artist_ids, artist_f[:, text_coords])

    specs = _make_spectrograms(rng, song_ids, song_f[:, audio_coords], spec)
    return SyntheticData(
        feedback=feedback,
        artist_map=song_artist,
        documents=documents,
        annotations=annotations,
        kb=kb,
        spectrograms=specs,
        artist_factors=artist_f,
        song_factors=song_f,
        user_factors=user_f,
    )


def _sample_plays(rng, user_ids, song_ids, user_f, song_f, spec: SyntheticSpec) -> FeedbackMatrix:
    scores = user_f @ song_f.T
    # standardize per user, then tilt play probability toward high scores
    mu = scores.mean(axis=1, keepdims=True)
    sd = scores.std(axis=1, keepdims=True) + 1e-9
    z = (scores - mu) / sd
    weights = np.exp(1.5 * z)
    probs = spec.density * weights / weights.mean(axis=1, keepdims=True)
    probs = np.clip(probs, 0.0, 0.9)
    hits = rng.random(probs.shape) < probs
    counts = np.zeros(probs.shape, dtype=np.int64)
    counts[hits] = 1 + rng.poisson(spec.mean_extra_plays, size=int(hits.sum()))
    # every user needs at least one play to be evaluable
    for u in np.flatnonzero(~hits.any(axis=1)):
        best = int(np.argmax(z[u]))
        counts[u, best] = 1
    rows, cols = np.nonzero(counts)
    return FeedbackMatrix(list(user_ids), list(song_ids), rows, cols, counts[rows, cols])


def _make_documents(rng, artist_ids, text_f, spec: SyntheticSpec):
    """Token frequencies are a noisy non-negative readout of the text factors."""
    half = text_f.shape[1]
    readout = np.abs(rng.normal(size=(spec.n_text_terms, half)))
    terms = [f"word{t:03d}" for t in range(spec.n_text_terms)]
    docs = {}
    for j, aid in enumerate(artist_ids):
        intensity = np.exp(readout @ text_f[j] / np.sqrt(half))
        signal = intensity / intensity.sum()
        mix = (1 - spec.text_noise) * signal + spec.text_noise / spec.n_text_terms
        counts = rng.multinomial(spec.doc_tokens, mix)
        tokens = []
        for t, c in enumerate(counts):
            tokens.extend([terms[t]] * int(c))
        docs[aid] = " ".join(tokens)
    return docs


def _make_kb(artist_ids, text_f):
    """One profile entity per artist whose categories quantize the text factors.

    Categories are near-noiseless, so enriched documents carry cleaner
    signal than the sampled token streams. A non-music entity is linked to
    every artist to exercise class filtering.
    """
    thirds = np.quantile(text_f, [1 / 3, 2 / 3], axis=0)
    fifths = np.quantile(text_f, [0.2, 0.4, 0.6, 0.8], axis=0)
    tenths = np.quantile(text_f, np.arange(0.1, 1.0, 0.1), axis=0)
    entities: KbSnapshot = {
        "e_offtopic": KbEntity(classes={"SoccerPlayer"}, properties={}, categories=["Sports"]),
    }
    by_artist: AnnotationSet = {}
    for j, aid in enumerate(artist_ids):
        cats = []
        for c in range(text_f.shape[1]):
            level = int(np.searchsorted(thirds[:, c], text_f[j, c]))
            fine = int(np.searchsorted(fifths[:, c], text_f[j, c]))
            decile = int(np.searchsorted(tenths[:, c], text_f[j, c]))
            cats.append(f"profile_axis{c}_level{level}")
            cats.append(f"profile_axis{c}_band{fine}")
            cats.append(f"profile_axis{c}_decile{decile}")
        eid = f"e_{aid}"
        entities[eid] = KbEntity(
            classes={"Band"},
            properties={"genre": [f"axis0 level {int(text_f[j, 0] > 0)}"]},
            categories=cats,
        )
        by_artist[aid] = [eid, "e_offtopic"]
    return entities, by_artist


def _make_spectrograms(rng, song_ids, audio_f, spec: SyntheticSpec):
    half = audio_f.shape[1]
    readout = np.abs(rng.normal(size=(spec.n_templates, half)))
    specs: dict[str, audio_mod.Spectrogram] = {}
    for j, sid in enumerate(song_ids):
        clean = np.log1p(np.exp(readout @ audio_f[j] / np.sqrt(half)))
        noisy = clean * (1 + spec.audio_noise * rng.normal(size=spec.n_templates))
        weights = np.maximum(noisy, 0.0)
        frames = int(rng.integers(spec.frames, int(spec.frames * 1.5) + 1))
        specs[sid] = audio_mod.synth_spectrogram(
            spec.bins, frames, weights, seed=spec.seed * 100003 + j, noise=0.05)
    return specs


def write_dataset(data: SyntheticData, out_dir) -> None:
    """Write every artifact in the on-disk formats the pipeline consumes."""
    os.makedirs(out_dir, exist_ok=True)
    save_triples(data.feedback, os.path.join(out_dir, "triples.tsv"))
    save_artist_map(data.artist_map, os.path.join(out_dir, "artist_map.tsv"))
    textfeat.save_documents(data.documents, os.path.join(out_dir, "documents.jsonl"))
    textfeat.save_annotations(data.annotations, os.path.join(out_dir, "annotations.jsonl"))
    textfeat.save_kb_snapshot(data.kb, os.path.join(out_dir, "kb.jsonl"))
    spec_dir = os.path.join(out_dir, "spectrograms")
    os.makedirs(spec_dir, exist_ok=True)
    for sid, s in data.spectrograms.items():
        audio_mod.save_spectrogram(s, os.path.join(spec_dir, f"{sid}.cqts"))
