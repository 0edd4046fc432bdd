"""Ranking evaluation: MAP@K, paired t-tests, and baseline factors."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import FeedbackMatrix, replacing
from .wmf import WmfConfig, factorize_wmf


@dataclass
class EvalReport:
    ap_by_user: dict[str, float]
    map_score: float
    cutoff: int
    n_users: int
    n_skipped: int

    def ap_vector(self) -> np.ndarray:
        return np.array(list(self.ap_by_user.values()))

    def standard_error(self) -> float:
        aps = self.ap_vector()
        if len(aps) < 2:
            return 0.0
        return float(aps.std(ddof=1) / np.sqrt(len(aps)))

    def write(self, tsv_path, json_path) -> None:
        with replacing(tsv_path) as fh:
            for user, ap in self.ap_by_user.items():
                fh.write(f"{user}\t{ap:.10f}\n")
        with replacing(json_path) as fh:
            json.dump({"map": self.map_score, "k": self.cutoff,
                       "users": self.n_users, "skipped": self.n_skipped}, fh, indent=2)
            fh.write("\n")


@dataclass
class TTestResult:
    t: float
    p: float
    n: int
    degenerate: bool = False


def rank_items(user_factor: np.ndarray, item_factors: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k dot-product scores, ties broken by item index."""
    check_cutoff(k)
    if user_factor.shape[-1] != item_factors.shape[1]:
        raise ValueError("factor dimension mismatch")
    scores = item_factors @ user_factor
    k = min(k, len(scores))
    # stable sort of negated scores keeps equal scores in ascending index order
    return np.argsort(-scores, kind="stable")[:k]


def average_precision(ranked, relevant: set, k: int) -> float:
    """AP at cut-off k, normalized by min(|relevant|, k)."""
    if not relevant:
        raise ValueError("average precision needs at least one relevant item")
    hits = 0
    total = 0.0
    for pos, item in enumerate(ranked[:k], start=1):
        if item in relevant:
            hits += 1
            total += hits / pos
    return total / min(len(relevant), k)


def check_cutoff(k: int) -> None:
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")


def map_at_k(user_factors: np.ndarray, item_factors: np.ndarray,
             test: FeedbackMatrix, k: int) -> EvalReport:
    """MAP over users of ``test``; users with no relevant items are skipped.

    Factor rows must align with the user/item order of the test matrix.
    """
    check_cutoff(k)
    if user_factors.shape[0] != test.n_users or item_factors.shape[0] != test.n_items:
        raise ValueError("factor rows do not match the test matrix")
    ap_by_user: dict[str, float] = {}
    skipped = 0
    for u in range(test.n_users):
        relevant = set(test.indices[test.indptr[u]:test.indptr[u + 1]].tolist())
        if not relevant:
            skipped += 1
            continue
        ranked = rank_items(user_factors[u], item_factors, k)
        ap_by_user[test.user_ids[u]] = average_precision(ranked.tolist(), relevant, k)
    if not ap_by_user:
        raise ValueError("no evaluable users: every user has an empty relevant set")
    map_score = float(np.mean(list(ap_by_user.values())))
    return EvalReport(ap_by_user, map_score, k, len(ap_by_user), skipped)


def paired_ttest(ap_a, ap_b) -> TTestResult:
    """Two-sided paired t-test on aligned per-user AP vectors.

    scipy is imported here, not with the module: no stage calls this.
    """
    from scipy.special import betainc

    a = np.asarray(ap_a, dtype=np.float64)
    b = np.asarray(ap_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("AP vectors must be 1-D and of equal length")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0:
        return TTestResult(t=float("nan"), p=float("nan"), n=n, degenerate=True)
    t = float(d.mean() / (sd / np.sqrt(n)))
    nu = n - 1
    p = float(betainc(nu / 2.0, 0.5, nu / (nu + t * t)))
    return TTestResult(t=t, p=p, n=n)


def random_factors(n_items: int, k: int, seed: int) -> np.ndarray:
    """The random baseline's item factors: seeded unit-norm rows."""
    f = np.random.default_rng(seed).normal(size=(n_items, k))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    return f


def make_baseline_factors(test: FeedbackMatrix, cfg: WmfConfig, seed: int):
    """The upper bound's (item_factors, user_factors): WMF fit on the test feedback itself."""
    model = factorize_wmf(test, cfg, seed)
    return model.item_factors, model.user_factors
