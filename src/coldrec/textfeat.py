"""Artist biography features: tokenization, tf-idf, and KB enrichment."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import DataError, replacing

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

# Ontology classes considered music-relevant; entities outside these are dropped.
MUSIC_CLASSES = frozenset({
    "MusicalArtist", "Band", "MusicGenre", "MusicalWork",
    "RecordLabel", "Instrument", "Engineer", "Place",
})

# Which KB properties to append per entity class.
DEFAULT_PROPERTY_MAP: dict[str, list[str]] = {
    "MusicalArtist": ["homeTown", "instrument", "genre", "associatedBand"],
    "MusicalWork": ["writer", "producer", "recordedIn"],
    "MusicGenre": ["stylisticOrigin", "instrument"],
    "Band": ["homeTown", "genre", "associatedBand"],
    "RecordLabel": ["genre"],
}


@dataclass
class Document:
    artist_id: str
    text: str


@dataclass
class KbEntity:
    classes: set[str]
    properties: dict[str, list[str]]
    categories: list[str]


KbSnapshot = dict[str, KbEntity]  # entity id -> entity
AnnotationSet = dict[str, list[str]]  # artist id -> linked entity ids


@dataclass
class Vocabulary:
    terms: list[str]
    index: dict[str, int]
    doc_freq: np.ndarray  # per-term document frequency
    n_docs: int

    @property
    def size(self) -> int:
        return len(self.terms)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop tokens shorter than 2."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if len(t) >= 2]


def filter_entities(entities: list[str], kb: KbSnapshot) -> list[str]:
    """Keep music-domain entities, preserving order and dropping duplicates."""
    kept: list[str] = []
    seen: set[str] = set()
    for eid in entities:
        if eid in seen:
            continue
        ent = kb.get(eid)
        if ent is None or not (ent.classes & MUSIC_CLASSES):
            continue
        seen.add(eid)
        kept.append(eid)
    return kept


def _join_value(value: str) -> str:
    return "_".join(value.split())


def enrich_document(doc: Document, entities: list[str], kb: KbSnapshot) -> Document:
    """Append KB property values (per `DEFAULT_PROPERTY_MAP`) and categories
    of the linked entities.

    Values are whitespace-joined with underscores so each one tokenizes as a
    single term. ``entities`` is expected to be pre-filtered.
    """
    appended: list[str] = []
    for eid in entities:
        ent = kb.get(eid)
        if ent is None:
            continue
        prop_names: list[str] = []
        for cls, names in DEFAULT_PROPERTY_MAP.items():
            if cls in ent.classes:
                for name in names:
                    if name not in prop_names:
                        prop_names.append(name)
        for name in prop_names:
            for value in ent.properties.get(name, []):
                appended.append(_join_value(value))
        for cat in ent.categories:
            appended.append(_join_value(cat))
    if not appended:
        return doc
    return Document(doc.artist_id, doc.text + " " + " ".join(appended))


def build_vocab(corpus: list[Document], cap: int) -> Vocabulary:
    """Top-``cap`` terms by document frequency, ties broken lexicographically."""
    if cap < 1:
        raise ValueError("vocabulary cap must be >= 1")
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    df: Counter[str] = Counter()
    for doc in corpus:
        df.update(set(tokenize(doc.text)))
    ranked = sorted(df, key=lambda t: (-df[t], t))[:cap]
    return Vocabulary(
        terms=ranked,
        index={t: i for i, t in enumerate(ranked)},
        doc_freq=np.array([df[t] for t in ranked], dtype=np.int64),
        n_docs=len(corpus),
    )


def tfidf_transform(doc: Document, vocab: Vocabulary) -> np.ndarray:
    """tf-idf vector over the vocabulary, L2-normalized.

    weight(t) = tf(t) * (ln((1+N)/(1+df(t))) + 1); a document with no
    in-vocabulary terms maps to the zero vector.
    """
    vec = np.zeros(vocab.size)
    for term, tf in Counter(tokenize(doc.text)).items():
        idx = vocab.index.get(term)
        if idx is not None:
            vec[idx] = tf * (math.log((1 + vocab.n_docs) / (1 + vocab.doc_freq[idx])) + 1.0)
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def tfidf_matrix(docs: list[Document], vocab: Vocabulary) -> np.ndarray:
    return np.stack([tfidf_transform(d, vocab) for d in docs]) if docs else np.zeros((0, vocab.size))


# ---------------------------------------------------------------------------
# JSON-lines codecs

def load_documents(path) -> list[Document]:
    """One document per artist; an artist with two documents is a DataError."""
    docs: dict[str, Document] = {}
    for lineno, rec in _iter_jsonl(path):
        artist_id = _checked(path, lineno, "artist_id", rec.get("artist_id"))
        if artist_id in docs:
            raise DataError(f"{path}:{lineno}: duplicate artist_id {artist_id!r}")
        docs[artist_id] = Document(artist_id, _checked(path, lineno, "text", rec.get("text")))
    return list(docs.values())


def save_documents(docs: list[Document], path) -> None:
    with replacing(path) as fh:
        for d in docs:
            fh.write(json.dumps({"artist_id": d.artist_id, "text": d.text}) + "\n")


def load_annotations(path) -> AnnotationSet:
    """One entity list per artist; an artist listed twice is a DataError."""
    by_artist: dict[str, list[str]] = {}
    for lineno, rec in _iter_jsonl(path):
        artist_id = _checked(path, lineno, "artist_id", rec.get("artist_id"))
        if artist_id in by_artist:
            raise DataError(f"{path}:{lineno}: duplicate artist_id {artist_id!r}")
        by_artist[artist_id] = _checked(path, lineno, "entities", rec.get("entities"), listed=True)
    return by_artist


def save_annotations(ann: AnnotationSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for artist_id, entities in ann.items():
            fh.write(json.dumps({"artist_id": artist_id, "entities": entities}) + "\n")


def load_kb_snapshot(path) -> KbSnapshot:
    entities: dict[str, KbEntity] = {}
    for lineno, rec in _iter_jsonl(path):
        eid = _checked(path, lineno, "entity_id", rec.get("entity_id"))
        properties = rec.get("properties", {})
        if not isinstance(properties, dict):
            raise DataError(f"{path}:{lineno}: field 'properties' must be an object, "
                            f"not {type(properties).__name__}")
        ent = KbEntity(
            classes=set(_checked(path, lineno, "classes", rec.get("classes", []), listed=True)),
            properties={k: _checked(path, lineno, f"properties.{k}", v, listed=True)
                        for k, v in properties.items()},
            categories=_checked(path, lineno, "categories", rec.get("categories", []), listed=True),
        )
        if eid in entities:
            raise DataError(f"{path}:{lineno}: duplicate entity_id {eid!r}")
        entities[eid] = ent
    return entities


def save_kb_snapshot(kb: KbSnapshot, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for eid, ent in kb.items():
            fh.write(json.dumps({
                "entity_id": eid,
                "classes": sorted(ent.classes),
                "properties": ent.properties,
                "categories": ent.categories,
            }) + "\n")


def _iter_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                raise DataError(f"{path}:{lineno}: invalid JSON") from None
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec


def _checked(path, lineno: int, field: str, value, listed: bool = False):
    """`value`, read for `field` on line `lineno` of `path`: a string, or with
    `listed` a list of strings. Anything else, an absent value (None) too, is a
    DataError naming the line and the field."""
    if listed:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, str)
    if not ok:
        got = "missing" if value is None else f"not {type(value).__name__}"
        raise DataError(f"{path}:{lineno}: field {field!r} must be "
                        f"{'a list of strings' if listed else 'a string'}, {got}")
    return value
