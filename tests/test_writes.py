"""Every text artifact a stage writes appears whole or not at all.

Each writer goes through `data.replacing`: the bytes go to a temp file
beside the target, and `os.replace` puts it in place only once the write
finished. A writer that fails part-way leaves the earlier file as it was.
"""

import os

import numpy as np
import pytest

from coldrec.data import replacing, save_split, save_triples
from coldrec.evaluate import EvalReport
from coldrec.textfeat import save_documents
from coldrec.zoo import TrainLog
from feedback_oracle import feedback


class _FailsWhenFormatted(str):
    """An id whose formatting fails, as a full disk would part-way through a write."""

    def __format__(self, spec):
        raise OSError("no space left on device")


class _FloatFailsWhenFormatted(float):
    def __format__(self, spec):
        raise OSError("no space left on device")


def _matrix(user_ids):
    return feedback(np.array([[1], [2]]), list(user_ids), ["s1"])


def _split(last_part):
    parts = {p: _matrix(["u1", "u2"]) for p in ("train", "val", "test")}
    return parts, {"a1": "train", "a2": last_part}


# (file name, write the earlier file, write one that fails after its first line)
WRITERS = {
    "triples": ("t.tsv",
                lambda path: save_triples(_matrix(["u1", "u2"]), path),
                lambda path: save_triples(_matrix(["u1", _FailsWhenFormatted("u2")]), path)),
    "artist_assignment": ("artist_assignment.tsv",
                          lambda path: save_split(_split("test"), os.path.dirname(path)),
                          lambda path: save_split(_split(_FailsWhenFormatted("test")),
                                                  os.path.dirname(path))),
    "documents": ("enriched_docs.jsonl",
                  lambda path: save_documents({"a1": "x", "a2": "y"}, path),
                  lambda path: save_documents({"a1": "x", "a2": object()}, path)),
    "train_log": ("log.tsv",
                  lambda path: TrainLog([(0, 1.0, 2.0), (1, 0.5, 1.5)]).write_tsv(path),
                  lambda path: TrainLog([(0, 1.0, 2.0),
                                         (1, _FloatFailsWhenFormatted(0.5), 1.5)]).write_tsv(path)),
    "eval": ("eval.tsv",
             lambda path: EvalReport({"u1": 0.5, "u2": 0.25}, 0.375, 10, 2, 0).write(
                 path, f"{path}.json"),
             lambda path: EvalReport({"u1": 0.5, "u2": _FloatFailsWhenFormatted(0.25)},
                                     0.375, 10, 2, 0).write(path, f"{path}.json")),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_write_leaves_earlier_file(tmp_path, name):
    file_name, write, write_failing = WRITERS[name]
    path = tmp_path / file_name
    write(str(path))
    files = sorted(os.listdir(tmp_path))
    before = {f: (tmp_path / f).read_bytes() for f in files}
    with pytest.raises((OSError, TypeError)):
        write_failing(str(path))
    assert sorted(os.listdir(tmp_path)) == files  # no temp file left beside them
    assert {f: (tmp_path / f).read_bytes() for f in files} == before


def test_replacing_writes_text_and_bytes(tmp_path):
    with replacing(tmp_path / "a.txt") as fh:
        fh.write("söng\n")
    with replacing(tmp_path / "b.bin", "wb") as fh:
        fh.write(b"\x00\x01")
    assert (tmp_path / "a.txt").read_bytes() == "söng\n".encode("utf-8")
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.bin"]
