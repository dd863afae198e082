"""Acceptance suite.

Nine criteria: analytic gradients against finite differences, ranking
metrics against a brute-force oracle, planted-matrix recovery for both
aligners, five qualitative orderings on the reference experiment, and
bit-for-bit determinism of the quick reference run.

The reference experiment (criteria 4-8) runs once per session (a few
minutes); everything else is fast.
"""

import itertools

import numpy as np
import pytest

from brandalign import repro
from brandalign.align import fit_linear_projection, fit_procrustes
from brandalign.data import BrandMapping
from brandalign.evaluate import evaluate, make_events
from brandalign.model import EmbeddingSpace, ModelParams, TrainConfig
from conftest import make_catalog, make_sessions, make_space
from oracles import TrainingPair, brute_force_metrics, finite_difference_max_rel_err

GRAD_TOL = 1e-4
RECOVERY_TOL = 1e-6
ORACLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness

def _grad_instance(seed, lam, variant, n_neg):
    rng = np.random.default_rng(seed)
    n_hotels = 4 + n_neg
    catalog = make_catalog({"m0": [f"h{i}" for i in range(n_hotels)]},
                           seed=seed)
    cfg = TrainConfig(sub_dim=2, d=3, window=2, n_neg=n_neg,
                      learning_rate=0.05, epochs=1,
                      l2_weight=float(rng.choice([0.0, 1e-3])),
                      lam=lam, reg_variant=variant, seed=seed)
    params = ModelParams(
        w_c=rng.normal(0, 0.5, (n_hotels, 2)),
        w_a=rng.normal(0, 0.5, (catalog.amenity_dim, 2)),
        w_g=rng.normal(0, 0.5, (catalog.geo_dim, 2)),
        w_e=rng.normal(0, 0.5, (6, 3)))
    ids = list(catalog.hotel_ids)
    target, context = rng.choice(ids, size=2, replace=False)
    rest = [h for h in ids if h not in (target, context)]
    negatives = tuple(rng.choice(rest, size=n_neg, replace=True))
    pair = TrainingPair(str(target), str(context),
                        tuple(str(n) for n in negatives))
    source = mapping = None
    if lam > 0:
        source = EmbeddingSpace("S", ids, np.abs(rng.normal(0, 0.5, (len(ids), 3))))
        # roughly half the instances leave the pair's target unmapped
        mapped = [h for h in ids if rng.random() < 0.5] or [str(target)]
        mapping = BrandMapping({h: h for h in mapped})
    return pair, params, catalog, cfg, source, mapping


def test_criterion_1_gradient_correctness():
    combos = itertools.cycle(
        [(lam, variant, n_neg)
         for lam in (0.0, 1.0)
         for variant in ("norm", "squared_norm")
         for n_neg in (1, 2, 3, 4, 5)])
    worst = 0.0
    for seed in range(100):
        lam, variant, n_neg = next(combos)
        pair, params, catalog, cfg, source, mapping = \
            _grad_instance(seed, lam, variant, n_neg)
        err = finite_difference_max_rel_err(pair, params, catalog, cfg,
                                            source, mapping)
        worst = max(worst, err)
        assert err < GRAD_TOL, \
            f"instance {seed} (lam={lam}, {variant}, n_neg={n_neg}): {err}"
    print(f"\ncriterion 1 PASS: max FD relative error {worst:.3g} < {GRAD_TOL}")


# ---------------------------------------------------------------------------
# criterion 2: metric oracle equivalence + invariants

def test_criterion_2_metrics_match_brute_force_and_invariants():
    # fixed 20-event fixture, compared at 1e-12
    catalog = make_catalog({"m0": [f"h{j}" for j in range(8)],
                            "m1": [f"g{j}" for j in range(7)]}, seed=2)
    rng = np.random.default_rng(2)
    vectors = {h: rng.normal(size=4) for h in catalog.hotel_ids}
    space = make_space("X", vectors, 4)
    clicks = [["h0", "h3", "h5"], ["h1", "h2"], ["h7", "h0", "h4", "h6"],
              ["g0", "g1", "g2"], ["g3", "g4"], ["g6", "g5", "g0", "g1"],
              ["h2", "h6", "h1"], ["g2", "g6", "g4"], ["h4", "h7", "h2"],
              ["g5", "g3", "g6"]]
    sessions = make_sessions("X", clicks, catalog)
    events = make_events(sessions, catalog)
    assert len(events) == 20
    for mode in ("cosine", "model"):
        rep = evaluate(sessions, space, catalog, mode=mode, ks=(1, 3, 10))
        for k in (1, 3, 10):
            bf_hits, bf_mrr = brute_force_metrics(events, vectors, catalog,
                                                  mode, k)
            assert abs(rep.hits(k, mode, "in_brand") - bf_hits) < ORACLE_TOL
            assert abs(rep.mrr(k, mode, "in_brand") - bf_mrr) < ORACLE_TOL

    # invariants on 1000 randomized fixtures
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        rng = np.random.default_rng(seed)
        per_market = int(rng.integers(4, 9))
        markets = {f"m{i}": [f"m{i}h{j}" for j in range(per_market)]
                   for i in range(2)}
        cat = make_catalog(markets, seed=seed)
        vecs = {h: rng.normal(size=3) for h in cat.hotel_ids
                if rng.random() > 0.15}
        sess_clicks = []
        for _ in range(6):
            m = f"m{int(rng.integers(2))}"
            length = int(rng.integers(2, 5))
            s = [str(h) for h in rng.choice(markets[m], size=length)]
            if all(h in vecs for h in s):
                sess_clicks.append(s)
        sessions = make_sessions("X", sess_clicks, cat)
        if not make_events(sessions, cat):
            continue
        sp = make_space("X", vecs, 3)
        mode = "cosine" if seed % 2 else "model"
        rep = evaluate(sessions, sp, cat, mode=mode, ks=(1, 3, 8))
        prev_h = prev_m = 0.0
        for k in (1, 3, 8):
            h, m = rep.hits(k, mode, "in_brand"), rep.mrr(k, mode, "in_brand")
            assert 0.0 <= m <= h <= 1.0, f"fixture {seed}"
            assert h >= prev_h and m >= prev_m, f"fixture {seed}"
            prev_h, prev_m = h, m
        checked += 1
    print(f"\ncriterion 2 PASS: 20-event oracle match at {ORACLE_TOL}, "
          f"invariants on {checked} fixtures")


# ---------------------------------------------------------------------------
# criterion 3: projection recovery

def test_criterion_3_planted_matrix_recovery():
    worst_lp = worst_pr = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = 3 + seed % 4
        n = 2 * d + int(rng.integers(0, 6))
        s = rng.normal(size=(n, d))
        r = rng.normal(size=(d, d))
        lp = fit_linear_projection(s, s @ r)
        worst_lp = max(worst_lp, float(np.max(np.abs(lp.w - r))))
        assert np.max(np.abs(lp.w - r)) < RECOVERY_TOL, f"lstsq seed {seed}"

        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        pr = fit_procrustes(s, s @ q)
        worst_pr = max(worst_pr, float(np.max(np.abs(pr.w - q))))
        assert np.max(np.abs(pr.w - q)) < RECOVERY_TOL, f"procrustes seed {seed}"

        noisy_t = s @ r + 0.3 * rng.normal(size=(n, d))
        assert fit_procrustes(s, noisy_t).fit_residual \
            >= fit_linear_projection(s, noisy_t).fit_residual - 1e-12, \
            f"residual ordering seed {seed}"
    print(f"\ncriterion 3 PASS: recovery errors lstsq {worst_lp:.3g}, "
          f"procrustes {worst_pr:.3g} < {RECOVERY_TOL}; residual ordering "
          f"held on all 50 instances")


# ---------------------------------------------------------------------------
# criteria 4-8: reference-experiment orderings (one full run per session)

@pytest.fixture(scope="session")
def reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference-run")
    return repro.run_repro(out, seed=42, quick=False, log=lambda *a: None)


def _hits(result, name, brand, k, mode="cosine"):
    for row in result.report_rows:
        if (row["embeddings"], row["eval_brand"], row["k"], row["mode"]) == \
                (name, brand, k, mode):
            return row["hits"]
    raise KeyError((name, brand, k, mode))


def test_criterion_4_da_beats_lp_on_target_brand(reference_run):
    da = _hits(reference_run, "da_lambda10", "B", 100)
    lp = _hits(reference_run, "lp_projected", "B", 100)
    assert da > lp
    print(f"\ncriterion 4 PASS: hits@100 on brand B — da_lambda10 {da:.4f} "
          f"> lp_projected {lp:.4f}")


def test_criterion_5_closeness_monotone_in_lambda(reference_run):
    c = reference_run.closeness
    assert c["da_lambda10"] < c["da_lambda05"] < c["single_target"]
    print(f"\ncriterion 5 PASS: mean mapped distance "
          f"{c['da_lambda10']:.4f} (lam=1) < {c['da_lambda05']:.4f} (lam=0.5) "
          f"< {c['single_target']:.4f} (lam=0)")


def test_criterion_6_in_brand_non_degradation(reference_run):
    da = _hits(reference_run, "da_lambda10", "B", 100)
    plain = _hits(reference_run, "single_target", "B", 100)
    assert da >= 0.9 * plain
    print(f"\ncriterion 6 PASS: in-brand hits@100 da {da:.4f} >= "
          f"0.9 x plain {plain:.4f}")


def test_criterion_7_model_scoring_improvement(reference_run):
    da = _hits(reference_run, "da_lambda10", "B", 100, mode="model")
    plain = _hits(reference_run, "single_target", "B", 100, mode="model")
    assert da >= plain
    print(f"\ncriterion 7 PASS: model-scoring hits@100 da {da:.4f} >= "
          f"plain {plain:.4f}")


def test_criterion_8_jump_start(reference_run):
    da = reference_run.curves["da_lambda10"]
    plain = reference_run.curves["single_target"]
    assert da and plain
    assert da[0]["hits@100"] > plain[0]["hits@100"]
    final_plain = plain[-1]["hits@100"]
    reach = [row["step"] for row in da if row["hits@100"] >= final_plain]
    assert reach and reach[0] < plain[-1]["step"]
    print(f"\ncriterion 8 PASS: first checkpoint da {da[0]['hits@100']:.4f} "
          f"> cold start {plain[0]['hits@100']:.4f}; da reached the cold-start "
          f"final {final_plain:.4f} at step {reach[0]} < {plain[-1]['step']}")


def test_reference_run_reports_no_violations(reference_run):
    assert reference_run.violations == []


# ---------------------------------------------------------------------------
# criterion 9: determinism of the quick reference run

def test_criterion_9_quick_repro_is_byte_identical(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        result = repro.run_repro(d, seed=42, quick=True, log=lambda *a: None)
        assert result.violations == []
    compared = []
    for name in ("report.jsonl", "curve_single_target.jsonl",
                 "curve_da_lambda10.jsonl", "repro-summary.json",
                 "A.emb", "B_single_target.emb", "B_da_lambda10.emb",
                 "B_da_lambda05.emb", "lp.proj"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    print(f"\ncriterion 9 PASS: {len(compared)} output files byte-identical "
          f"across two quick runs")
