import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldrec import textfeat
from coldrec.data import DataError
from coldrec.textfeat import (KbEntity,
                              build_vocab, enrich_document,
                              load_annotations, load_documents,
                              load_kb_snapshot, save_annotations,
                              save_documents, save_kb_snapshot, tfidf_transform,
                              tokenize)


class TestTokenize:
    def test_basic(self):
        assert tokenize("The Beatles, rock!") == ["the", "beatles", "rock"]

    def test_empty(self):
        assert tokenize("") == []

    def test_short_tokens_dropped(self):
        assert tokenize("a B a") == []
        assert tokenize("ab AB") == ["ab", "ab"]

    def test_digits_kept(self):
        assert tokenize("formed in 1968") == ["formed", "in", "1968"]

    def test_underscored_values_survive(self):
        assert tokenize("Abbey_Road_Studios") == ["abbey", "road", "studios"]

    @given(st.text(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_tokens_are_lowercase_alnum(self, text):
        for tok in tokenize(text):
            assert len(tok) >= 2
            assert tok == tok.lower()


def make_kb():
    return {
        "e_artist": KbEntity({"MusicalArtist"}, {"genre": ["Rock"]},
                             ["English_rock_groups"]),
        "e_player": KbEntity({"SoccerPlayer"}, {}, ["Athletes"]),
        "e_studio": KbEntity({"Place"}, {}, ["Abbey Road Studios"]),
    }


class TestFilterEntities:
    """`enrich_document` keeps each music-domain link once, in link order."""

    def test_music_class_kept(self):
        assert enrich_document("bio", ["e_artist"], make_kb()) == "bio Rock English_rock_groups"

    def test_off_domain_dropped(self):
        assert enrich_document("bio", ["e_player"], make_kb()) == "bio"

    def test_missing_entity_dropped(self):
        assert enrich_document("bio", ["e_nosuch"], make_kb()) == "bio"

    def test_order_preserved_and_deduplicated(self):
        out = enrich_document("bio", ["e_studio", "e_artist", "e_studio"], make_kb())
        assert out == "bio Abbey_Road_Studios Rock English_rock_groups"

    def test_idempotent(self):
        kb = make_kb()
        entities = ["e_artist", "e_player", "e_studio", "e_nosuch"]
        assert (enrich_document("bio", entities + entities[::-1], kb)
                == enrich_document("bio", entities, kb)
                == enrich_document("bio", ["e_artist", "e_studio"], kb))


class TestEnrich:
    def test_appends_properties_and_categories(self):
        out = enrich_document("Born in Liverpool", ["e_artist"], make_kb())
        assert out == "Born in Liverpool Rock English_rock_groups"

    def test_empty_entities_identity(self):
        assert enrich_document("Born in Liverpool", [], make_kb()) == "Born in Liverpool"

    def test_multiword_value_underscored(self):
        out = enrich_document("recorded here", ["e_studio"], make_kb())
        assert out.endswith("Abbey_Road_Studios")

    def test_token_multiset_superset(self):
        from collections import Counter

        text = "some biography text about rock"
        out = enrich_document(text, ["e_artist", "e_studio"], make_kb())
        before = Counter(tokenize(text))
        after = Counter(tokenize(out))
        assert all(after[t] >= c for t, c in before.items())

    def test_custom_property_map(self):
        kb = {"e": KbEntity({"MusicGenre"}, {"stylisticOrigin": ["Blues"]}, [])}
        assert "Blues" in enrich_document("text here", ["e"], kb)


class TestVocab:
    def test_df_ranking_with_ties(self, monkeypatch):
        monkeypatch.setattr(textfeat, "VOCAB_CAP", 2)
        corpus = ["aa bb", "bb cc"]
        vocab = build_vocab(corpus)
        assert vocab.terms == ["bb", "aa"]
        assert vocab.doc_freq.tolist() == [2, 1]
        assert vocab.n_docs == 2

    def test_cap_slack_keeps_all(self):
        corpus = ["aa bb cc"]
        vocab = build_vocab(corpus)
        assert sorted(vocab.terms) == ["aa", "bb", "cc"]

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(textfeat, "VOCAB_CAP", 3)
        corpus = ["xx yy zz yy", "zz ww"]
        v1 = build_vocab(corpus)
        v2 = build_vocab(corpus)
        assert v1.terms == v2.terms

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([])

    def test_df_counts_documents_not_occurrences(self):
        corpus = ["aa aa aa", "bb"]
        vocab = build_vocab(corpus)
        assert vocab.doc_freq[vocab.index["aa"]] == 1


class TestTfidf:
    def test_hand_computed_example(self):
        corpus = ["aa bb aa", "bb cc"]
        vocab = build_vocab(corpus)
        vec = tfidf_transform(corpus[0], vocab)
        idf_aa = math.log(3 / 2) + 1
        raw = np.zeros(vocab.size)
        raw[vocab.index["aa"]] = 2 * idf_aa
        raw[vocab.index["bb"]] = 1.0
        expected = raw / np.linalg.norm(raw)
        assert np.allclose(vec, expected, atol=1e-9)
        # unnormalized weights (2.8109302, 1.0), norm 2.9835097
        assert vec[vocab.index["aa"]] == pytest.approx(0.9421556, abs=1e-6)
        assert vec[vocab.index["bb"]] == pytest.approx(0.3351750, abs=1e-6)

    def test_out_of_vocabulary_is_zero(self):
        vocab = build_vocab(["aa bb"])
        vec = tfidf_transform("zz qq", vocab)
        assert np.array_equal(vec, np.zeros(vocab.size))

    def test_single_term_unit_weight(self):
        vocab = build_vocab(["aa bb"])
        vec = tfidf_transform("aa", vocab)
        assert vec[vocab.index["aa"]] == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=0, max_size=20))
    def test_norm_is_one_unless_empty(self, tokens):
        vocab = build_vocab(["aa bb", "cc dd"])
        vec = tfidf_transform(" ".join(tokens), vocab)
        norm = np.linalg.norm(vec)
        if tokens:
            assert norm == pytest.approx(1.0, abs=1e-9)
        else:
            assert norm == 0.0


class TestCodecs:
    def test_documents_round_trip(self, tmp_path):
        docs = {"a1": "hello world", "a2": "unicode ünïcode"}
        save_documents(docs, tmp_path / "docs.jsonl")
        assert load_documents(tmp_path / "docs.jsonl") == docs

    def test_annotations_round_trip(self, tmp_path):
        ann = {"a1": ["e1", "e2"], "a2": []}
        save_annotations(ann, tmp_path / "ann.jsonl")
        assert load_annotations(tmp_path / "ann.jsonl") == ann

    def test_kb_round_trip(self, tmp_path):
        kb = make_kb()
        save_kb_snapshot(kb, tmp_path / "kb.jsonl")
        assert load_kb_snapshot(tmp_path / "kb.jsonl") == kb

    def test_single_line_snapshot(self, tmp_path):
        (tmp_path / "kb.jsonl").write_text(
            '{"entity_id": "e1", "classes": ["Band"], "properties": {}, "categories": []}\n')
        kb = load_kb_snapshot(tmp_path / "kb.jsonl")
        assert set(kb) == {"e1"}

    def test_duplicate_entity_rejected(self, tmp_path):
        line = '{"entity_id": "e1", "classes": [], "properties": {}, "categories": []}\n'
        (tmp_path / "kb.jsonl").write_text(line + line)
        with pytest.raises(DataError, match="duplicate"):
            load_kb_snapshot(tmp_path / "kb.jsonl")

    @pytest.mark.parametrize("load, lines", [
        (load_documents, ['{"artist_id": "a1", "text": "x"}', '{"artist_id": "a2", "text": "y"}',
                          '{"artist_id": "a1", "text": "z"}']),
        (load_annotations, ['{"artist_id": "a1", "entities": ["e1"]}',
                            '{"artist_id": "a2", "entities": []}',
                            '{"artist_id": "a1", "entities": ["e2"]}']),
    ], ids=["documents", "annotations"])
    def test_duplicate_artist_rejected(self, tmp_path, load, lines):
        path = tmp_path / "x.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: duplicate artist_id 'a1'")):
            load(path)

    def test_malformed_json_reports_line(self, tmp_path):
        (tmp_path / "docs.jsonl").write_text('{"artist_id": "a1", "text": "x"}\nnot json\n')
        with pytest.raises(DataError, match=":2:"):
            load_documents(tmp_path / "docs.jsonl")

    @pytest.mark.parametrize("load, line, field", [
        (load_documents, '{"artist_id": 7, "text": "x"}', "artist_id"),
        (load_documents, '{"artist_id": "a1", "text": 5}', "text"),
        (load_annotations, '{"artist_id": 7, "entities": []}', "artist_id"),
        (load_annotations, '{"artist_id": "a1", "entities": "e_a1"}', "entities"),
        (load_annotations, '{"artist_id": "a1", "entities": ["e1", 2]}', "entities"),
        (load_kb_snapshot, '{"entity_id": 7}', "entity_id"),
        (load_kb_snapshot, '{"entity_id": "e1", "classes": "Band"}', "classes"),
        (load_kb_snapshot, '{"entity_id": "e1", "categories": "Rock"}', "categories"),
        (load_kb_snapshot, '{"entity_id": "e1", "properties": "genre"}', "properties"),
        (load_kb_snapshot, '{"entity_id": "e1", "properties": {"genre": "Rock"}}',
         "properties.genre"),
    ], ids=["doc-artist", "doc-text", "ann-artist", "ann-string", "ann-number", "kb-entity",
            "kb-classes", "kb-categories", "kb-properties", "kb-property"])
    def test_mistyped_field_names_line_and_field(self, tmp_path, load, line, field):
        """A field of the wrong JSON type is a DataError, not a value that is
        silently split into characters or that crashes a later stage."""
        path = tmp_path / "x.jsonl"
        path.write_text('{"artist_id": "a0", "entity_id": "e0", "text": "", "entities": []}\n'
                        + line + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:2: field {field!r} must be")):
            load(path)

    @pytest.mark.parametrize("load", [load_documents, load_annotations, load_kb_snapshot])
    def test_missing_id_names_field(self, tmp_path, load):
        path = tmp_path / "x.jsonl"
        path.write_text('{"other": 1}\n')
        with pytest.raises(DataError, match=r":1: field '\w+_id' must be a string, missing"):
            load(path)
