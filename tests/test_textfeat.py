import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldrec.data import DataError
from coldrec.textfeat import (Document, KbEntity,
                              build_vocab, enrich_document, filter_entities,
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
    def test_music_class_kept(self):
        assert filter_entities(["e_artist"], make_kb()) == ["e_artist"]

    def test_off_domain_dropped(self):
        assert filter_entities(["e_player"], make_kb()) == []

    def test_missing_entity_dropped(self):
        assert filter_entities(["e_nosuch"], make_kb()) == []

    def test_order_preserved_and_deduplicated(self):
        out = filter_entities(["e_studio", "e_artist", "e_studio"], make_kb())
        assert out == ["e_studio", "e_artist"]

    def test_idempotent(self):
        kb = make_kb()
        entities = ["e_artist", "e_player", "e_studio", "e_artist"]
        once = filter_entities(entities, kb)
        assert filter_entities(once, kb) == once


class TestEnrich:
    def test_appends_properties_and_categories(self):
        doc = Document("a1", "Born in Liverpool")
        out = enrich_document(doc, ["e_artist"], make_kb())
        assert out.text == "Born in Liverpool Rock English_rock_groups"

    def test_empty_entities_identity(self):
        doc = Document("a1", "Born in Liverpool")
        out = enrich_document(doc, [], make_kb())
        assert out.text == doc.text

    def test_multiword_value_underscored(self):
        doc = Document("a1", "recorded here")
        out = enrich_document(doc, ["e_studio"], make_kb())
        assert out.text.endswith("Abbey_Road_Studios")

    def test_token_multiset_superset(self):
        from collections import Counter

        doc = Document("a1", "some biography text about rock")
        out = enrich_document(doc, ["e_artist", "e_studio"], make_kb())
        before = Counter(tokenize(doc.text))
        after = Counter(tokenize(out.text))
        assert all(after[t] >= c for t, c in before.items())

    def test_custom_property_map(self):
        kb = {"e": KbEntity({"MusicGenre"}, {"stylisticOrigin": ["Blues"]}, [])}
        out = enrich_document(Document("a", "text here"), ["e"], kb)
        assert "Blues" in out.text


class TestVocab:
    def test_df_ranking_with_ties(self):
        corpus = [Document("a", "aa bb"), Document("b", "bb cc")]
        vocab = build_vocab(corpus, cap=2)
        assert vocab.terms == ["bb", "aa"]
        assert vocab.doc_freq.tolist() == [2, 1]
        assert vocab.n_docs == 2

    def test_cap_slack_keeps_all(self):
        corpus = [Document("a", "aa bb cc")]
        vocab = build_vocab(corpus, cap=100)
        assert sorted(vocab.terms) == ["aa", "bb", "cc"]

    def test_deterministic(self):
        corpus = [Document("a", "xx yy zz yy"), Document("b", "zz ww")]
        v1 = build_vocab(corpus, cap=3)
        v2 = build_vocab(corpus, cap=3)
        assert v1.terms == v2.terms

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], cap=5)

    def test_df_counts_documents_not_occurrences(self):
        corpus = [Document("a", "aa aa aa"), Document("b", "bb")]
        vocab = build_vocab(corpus, cap=10)
        assert vocab.doc_freq[vocab.index["aa"]] == 1


class TestTfidf:
    def test_hand_computed_example(self):
        corpus = [Document("d1", "aa bb aa"), Document("d2", "bb cc")]
        vocab = build_vocab(corpus, cap=10)
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
        vocab = build_vocab([Document("d1", "aa bb")], cap=10)
        vec = tfidf_transform(Document("x", "zz qq"), vocab)
        assert np.array_equal(vec, np.zeros(vocab.size))

    def test_single_term_unit_weight(self):
        vocab = build_vocab([Document("d1", "aa bb")], cap=10)
        vec = tfidf_transform(Document("x", "aa"), vocab)
        assert vec[vocab.index["aa"]] == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=0, max_size=20))
    def test_norm_is_one_unless_empty(self, tokens):
        vocab = build_vocab([Document("d1", "aa bb"), Document("d2", "cc dd")], cap=10)
        vec = tfidf_transform(Document("x", " ".join(tokens)), vocab)
        norm = np.linalg.norm(vec)
        if tokens:
            assert norm == pytest.approx(1.0, abs=1e-9)
        else:
            assert norm == 0.0


class TestCodecs:
    def test_documents_round_trip(self, tmp_path):
        docs = [Document("a1", "hello world"), Document("a2", "unicode ünïcode")]
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
