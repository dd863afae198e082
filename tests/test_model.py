import math
from dataclasses import replace

import numpy as np
import pytest

from brandalign import model, repro, synth
from brandalign.data import BrandMapping, ClickSession, DataError, SessionSet
from brandalign.evaluate import make_events
from brandalign.model import (EmbeddingSpace, ModelParams, StepContext,
                              TrainConfig, TrainingDiverged, _forward,
                              export_embeddings, gradients, init_params,
                              read_embeddings, train, write_embeddings)
from brandalign.rng import substream
from conftest import make_catalog, make_sessions
from oracles import (TrainingPair, finite_difference_max_rel_err, reference_train,
                     straight_line_embedding)

FD_TOL = 1e-4


def tiny_config(**overrides) -> TrainConfig:
    base = dict(sub_dim=2, d=3, window=2, n_neg=1,
                learning_rate=0.05, epochs=1, l2_weight=0.0, seed=0,
                eval_every=10)
    base.update(overrides)
    return TrainConfig(**base)


def random_instance(seed: int, cfg: TrainConfig, n_hotels: int = 4):
    """Random catalog, params, pair, and nonnegative source space."""
    rng = np.random.default_rng(seed)
    catalog = make_catalog({"m0": [f"h{i}" for i in range(n_hotels)]}, seed=seed)
    w = cfg.sub_dim
    params = ModelParams(
        w_c=rng.normal(0, 0.5, (n_hotels, w)),
        w_a=rng.normal(0, 0.5, (catalog.amenity_dim, w)),
        w_g=rng.normal(0, 0.5, (catalog.geo_dim, w)),
        w_e=rng.normal(0, 0.5, (3 * w, cfg.d)))
    ids = catalog.hotel_ids
    target, context = rng.choice(ids, size=2, replace=False)
    negatives = tuple(rng.choice([h for h in ids if h != target and h != context],
                                 size=cfg.n_neg, replace=True))
    pair = TrainingPair(str(target), str(context), tuple(str(n) for n in negatives))
    source = EmbeddingSpace("S", ids, np.abs(rng.normal(0, 0.5, (len(ids), cfg.d))))
    return catalog, params, pair, source


# ---------------------------------------------------------------------------
# feature sub-embeddings: normalize, then relu

def _norm_relu(y):
    """relu(y / ||y||) of each row of y, as the V_c block that model._forward
    makes of W_c rows y."""
    k, w = y.shape
    params = ModelParams(w_c=y, w_a=np.zeros((1, w)), w_g=np.zeros((1, w)),
                         w_e=np.zeros((3 * w, 1)))
    u = _forward(params, y, np.ones((k, 1)), np.ones((k, 1)))[4]
    return u[:, :w]


def test_feature_embed_three_four_five():
    assert np.allclose(_norm_relu(np.array([[3.0, 4.0]])), [[0.6, 0.8]])


def test_feature_embed_clips_negative_coordinate():
    assert np.allclose(_norm_relu(np.array([[3.0, -4.0]])), [[0.6, 0.0]])


def test_feature_embed_zero_input_is_zero():
    assert np.array_equal(_norm_relu(np.array([[0.0, 0.0], [3.0, 4.0]]))[0],
                          [0.0, 0.0])


def test_feature_embed_nonnegative_unit_bounded():
    y = _norm_relu(np.random.default_rng(0).normal(size=(50, 4)))
    assert np.all(y >= 0)
    assert np.all(np.linalg.norm(y, axis=1) <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# enriched embeddings, as export_embeddings computes them

def test_enriched_embedding_zero_we_gives_zero():
    catalog, params, _, _ = random_instance(0, tiny_config())
    params.w_e[...] = 0.0
    space = export_embeddings(params, catalog)
    assert all(np.array_equal(v, np.zeros(3)) for v in space.vectors.values())


def test_enriched_embedding_matches_straight_line_oracle():
    cfg = tiny_config()
    for seed in range(10):
        catalog, params, _, _ = random_instance(seed, cfg)
        space = export_embeddings(params, catalog)
        for hid in catalog.hotel_ids:
            want = straight_line_embedding(hid, params, catalog)
            assert np.max(np.abs(space.vectors[hid] - want)) < 1e-12


def test_enriched_embedding_is_functional():
    # hotels with identical W_c rows and identical features embed to the same
    # bits, wherever they sit in a catalog that export multiplies as one block
    from brandalign.data import HotelCatalog, HotelRecord
    rng = np.random.default_rng(1)
    cfg = tiny_config(sub_dim=16, d=32)
    twins = [0, 7, 500, 1002]
    amenities, geo = rng.uniform(0, 1, (1003, 8)), rng.uniform(-1, 1, (1003, 2))
    amenities[twins], geo[twins] = amenities[0], geo[0]
    catalog = HotelCatalog([HotelRecord(f"h{i:04d}", f"m{i % 5}", amenities[i], geo[i])
                            for i in range(1003)])
    w = cfg.sub_dim
    params = ModelParams(
        w_c=rng.normal(0, 0.5, (1003, w)),
        w_a=rng.normal(0, 0.5, (catalog.amenity_dim, w)),
        w_g=rng.normal(0, 0.5, (catalog.geo_dim, w)),
        w_e=rng.normal(0, 0.5, (3 * w, cfg.d)))
    params.w_c[twins] = params.w_c[0]
    matrix = export_embeddings(params, catalog).matrix
    assert np.any(matrix[0] > 0)
    for row in twins[1:]:
        assert matrix[row].tobytes() == matrix[0].tobytes(), row


# ---------------------------------------------------------------------------
# the per-pair loss that gradients returns

def _hotels(pair, catalog):
    return tuple(catalog.index[h] for h in (pair.target, pair.context,
                                            *pair.negatives))


def _loss(params, catalog, cfg, hotels, source=None, mapping=None) -> float:
    ctx = StepContext(replace(params), catalog, cfg, source, mapping)
    return gradients(ctx, hotels)[0]


def _hand_instance(w_c_rows, scale=1.0):
    """Hotels whose embeddings are scale * their W_c rows: W_a = W_g = 0 zero
    the amenity and geo sub-embeddings, and W_e passes V_c through."""
    w_c = np.array(w_c_rows, dtype=float)
    catalog = make_catalog({"m0": [f"h{i}" for i in range(len(w_c))]})
    cfg = tiny_config(d=2, n_neg=len(w_c) - 2)
    w_e = np.zeros((3 * cfg.sub_dim, 2))
    w_e[:2] = scale * np.eye(2)
    params = ModelParams(w_c=w_c, w_a=np.zeros((catalog.amenity_dim, 2)),
                         w_g=np.zeros((catalog.geo_dim, 2)), w_e=w_e)
    return params, catalog, cfg, tuple(range(len(w_c)))


def test_sgns_loss_all_zero_vectors():
    for n_neg in (1, 3):  # three negatives among four hotels repeat one
        cfg = tiny_config(n_neg=n_neg)
        catalog, params, pair, _ = random_instance(0, cfg)
        params.w_e[...] = 0.0
        got = _loss(params, catalog, cfg, _hotels(pair, catalog))
        assert got == pytest.approx((1 + n_neg) * math.log(2), abs=1e-12)


def test_sgns_loss_hand_example():
    # v_t = v_ctx = (1, 0), v_neg = (0, 1)
    got = _loss(*_hand_instance([[1, 0], [1, 0], [0, 1]]))
    assert got == pytest.approx(math.log(1 + math.exp(-1)) + math.log(2), abs=1e-12)
    assert got == pytest.approx(1.006409, abs=1e-6)


def test_sgns_loss_saturated_positive():
    # v_t = v_ctx = (50, 0), both negatives (0, 50)
    got = _loss(*_hand_instance([[1, 0], [1, 0], [0, 1], [0, 1]], scale=50.0))
    assert got == pytest.approx(2 * math.log(2), abs=1e-12)


def test_sgns_loss_is_logaddexp_bit_for_bit_at_the_edges():
    # every score is >= 0; the positive's and the negative's each take s = 0
    # (zero rows, the collapse mode), an ordinary s, and one past 745, where
    # exp(-s) underflows to 0
    scores = []
    for rows, scale in (([[0, 0], [0, 0], [1, 0]], 1.0),
                        ([[1, 0], [1, 0], [0, 1]], 1.5),
                        ([[1, 0], [1, 0], [0, 1]], 30.0),
                        ([[1, 0], [0.6, 0.8], [1, 0]], 1.5),
                        ([[1, 0], [0.6, 0.8], [1, 0]], 30.0)):
        params, catalog, cfg, hotels = _hand_instance(rows, scale)
        v = export_embeddings(params, catalog).matrix
        s_pos, s_neg = float(v[0] @ v[1]), float(v[2] @ v[0])
        want = float(np.logaddexp(0.0, -s_pos)) + float(np.logaddexp(0.0, s_neg))
        assert _loss(params, catalog, cfg, hotels) == want, (rows, scale)
        scores.append((s_pos, s_neg))
    s_pos, s_neg = zip(*scores)
    assert s_pos[0] == 0.0 < s_pos[1] < 745.0 < s_pos[2]
    assert s_neg[0] == s_neg[1] == s_neg[2] == 0.0 < s_neg[3] < 745.0 < s_neg[4]


def test_sgns_loss_monotone_in_scores():
    # the negative's W_c row is zero, so only the positive dot s^2 moves
    losses = [_loss(*_hand_instance([[0.6, 0.8], [0.6, 0.8], [0, 0]], scale=s))
              for s in (0.1, 0.5, 1.0)]
    assert losses[0] > losses[1] > losses[2]


def test_sgns_loss_nonnegative():
    cfg = tiny_config(n_neg=2)
    for seed in range(20):
        catalog, params, pair, _ = random_instance(seed, cfg)
        assert _loss(params, catalog, cfg, _hotels(pair, catalog)) >= 0


def test_da_loss_examples():
    # W_e = 0 embeds every hotel at 0, so ||V_target - V_source|| = 5
    cfg = tiny_config(n_neg=2)
    base = 3 * math.log(2)
    catalog, params, pair, source = random_instance(1, cfg)
    params.w_e[...] = 0.0
    hotels = _hotels(pair, catalog)
    source.matrix[source.index[pair.target]] = [3.0, 4.0, 0.0]
    for variant, penalty in (("norm", 5.0), ("squared_norm", 25.0)):
        for lam in (0.5, 2.0):
            got = _loss(params, catalog, replace(cfg, lam=lam, reg_variant=variant),
                        hotels, source)
            assert got == pytest.approx(base + lam * penalty, abs=1e-12)
    source.matrix[source.index[pair.target]] = 0.0
    assert _loss(params, catalog, replace(cfg, lam=2.0), hotels, source) == base
    assert _loss(params, catalog, cfg, hotels) == base


def test_da_loss_never_below_base():
    cfg = tiny_config(n_neg=2)
    rng = np.random.default_rng(4)
    for seed in range(20):
        catalog, params, pair, source = random_instance(seed, cfg)
        hotels = _hotels(pair, catalog)
        base = _loss(params, catalog, cfg, hotels)
        for variant in ("norm", "squared_norm"):
            reg = replace(cfg, lam=rng.uniform(0.01, 2), reg_variant=variant)
            assert _loss(params, catalog, reg, hotels, source) >= base


@pytest.mark.parametrize("n_neg", [1, 5])
@pytest.mark.parametrize("lam, variant", [(0.0, "norm"), (0.7, "norm"),
                                          (0.7, "squared_norm")])
def test_step_loss_is_the_loss_of_the_exported_rows(n_neg, lam, variant):
    # gradients and export_embeddings share one forward pass: the pair loss
    # recomputed from the exported rows, plus the L2 term of the parameters,
    # is the loss that the step returns
    cfg = tiny_config(sub_dim=3, d=4, n_neg=n_neg, l2_weight=0.01, lam=lam,
                      reg_variant=variant)
    for seed in range(20):
        catalog, params, _, source = random_instance(seed, cfg, n_hotels=8)
        rng = np.random.default_rng(seed)
        t, c, *others = rng.permutation(8).tolist()
        negatives = rng.choice(others[:3], size=n_neg).tolist()  # n_neg=5 repeats
        hotels = (t, c, *negatives)
        v = export_embeddings(params, catalog).matrix
        want = np.logaddexp(0.0, -v[t] @ v[c])
        want += sum(np.logaddexp(0.0, v[t] @ v[n]) for n in negatives)
        dist = np.linalg.norm(v[t] - source.matrix[t])
        want += lam * (dist if variant == "norm" else dist * dist)
        want += 0.5 * cfg.l2_weight * (
            sum(params.w_c[h] @ params.w_c[h] for h in set(hotels))
            + sum(np.sum(w * w) for w in (params.w_a, params.w_g, params.w_e)))
        got = _loss(params, catalog, cfg, hotels, source)
        assert abs(got - want) <= 1e-12, seed


# ---------------------------------------------------------------------------
# gradients vs finite differences

def test_gradients_match_finite_differences_plain():
    cfg = tiny_config(n_neg=1, lam=0.0)
    catalog, params, pair, _ = random_instance(0, cfg)
    assert finite_difference_max_rel_err(pair, params, catalog, cfg) < FD_TOL


@pytest.mark.parametrize("variant", ["norm", "squared_norm"])
def test_gradients_match_finite_differences_regularized(variant):
    cfg = tiny_config(n_neg=2, lam=1.0, reg_variant=variant)
    catalog, params, pair, source = random_instance(1, cfg)
    err = finite_difference_max_rel_err(pair, params, catalog, cfg,
                                        source_space=source, mapping=None)
    assert err < FD_TOL


def test_gradients_match_finite_differences_with_weight_decay():
    cfg = tiny_config(n_neg=2, l2_weight=1e-3)
    catalog, params, pair, _ = random_instance(2, cfg)
    assert finite_difference_max_rel_err(pair, params, catalog, cfg) < FD_TOL


def test_gradients_match_finite_differences_partial_mapping():
    # unmapped target hotel: the regularizer is silently skipped
    cfg = tiny_config(n_neg=1, lam=1.0)
    catalog, params, pair, source = random_instance(3, cfg)
    mapping = BrandMapping({h: h for h in catalog.hotel_ids if h != pair.target})
    err = finite_difference_max_rel_err(pair, params, catalog, cfg,
                                        source_space=source, mapping=mapping)
    assert err < FD_TOL


def test_gradients_untouched_rows_are_absent():
    cfg = tiny_config(n_neg=1, lam=0.0, l2_weight=0.0)
    catalog, params, pair, _ = random_instance(4, cfg)
    hotels = _hotels(pair, catalog)
    _, idx, _, _ = gradients(StepContext(replace(params), catalog, cfg), hotels)
    assert set(idx.tolist()) == set(hotels)


def test_gradients_missing_source_vector_is_an_error():
    cfg = tiny_config(lam=1.0)
    catalog, params, pair, source = random_instance(5, cfg)
    kept = [h for h in source.ids if h != pair.target]
    source = EmbeddingSpace("S", kept, source.matrix[[source.index[h] for h in kept]])
    with pytest.raises(ValueError, match="source space has no vector"):
        gradients(StepContext(replace(params), catalog, cfg, source, None),
                  _hotels(pair, catalog))


def test_gradients_regularizer_skipped_for_unmapped_hotel():
    cfg = tiny_config(lam=5.0)
    catalog, params, pair, source = random_instance(6, cfg)
    plain_cfg = tiny_config(lam=0.0)
    empty = BrandMapping({})
    reg = StepContext(replace(params), catalog, cfg, source, empty)
    plain = StepContext(replace(params), catalog, plain_cfg)
    loss_reg, _, _, grad_reg = gradients(reg, _hotels(pair, catalog))
    loss_plain, _, _, grad_plain = gradients(plain, _hotels(pair, catalog))
    assert loss_reg == loss_plain
    assert np.array_equal(grad_reg, grad_plain)


# ---------------------------------------------------------------------------
# training loop

def _tiny_world(seed=11):
    cfg = synth.WorldConfig(n_markets=2, hotels_per_market=8, latent_dim=4,
                            d_a_in=4, d_g_in=2, n_sessions_per_brand=60,
                            session_length=(2, 4), seed=seed)
    world = synth.generate_world(cfg)
    return world, synth.generate_sessions(world, "A", cfg)


def test_train_missing_source_vector_fails_before_the_first_pair(monkeypatch):
    # h00000 is mapped but brand B never clicks it, so no pair targets it;
    # the check once ran only when a pair did, and this run trained to the end
    world, _ = _tiny_world()
    cfg = world.config
    sessions = synth.generate_sessions(world, "B", cfg)
    assert "h00000" in world.mapping.pairs
    assert all("h00000" not in s.clicks for s in sessions.sessions)
    kept = [h for h in world.catalog.hotel_ids if h != "h00000"]
    source = EmbeddingSpace("A", kept, np.ones((len(kept), tiny_config().d)))
    steps = []
    monkeypatch.setattr(model, "gradients",
                        lambda *a: steps.append(1) or gradients(*a))
    with pytest.raises(ValueError, match="hotel 'h00000' is mapped but source "
                                         "space has no vector for 'h00000'"):
        train(sessions, world.catalog, tiny_config(lam=1.0), source, world.mapping)
    assert steps == []


def test_train_is_deterministic():
    world, sessions = _tiny_world()
    cfg = tiny_config(epochs=2, seed=3)
    a = export_embeddings(train(sessions, world.catalog, cfg), world.catalog)
    b = export_embeddings(train(sessions, world.catalog, cfg), world.catalog)
    for hid in a.vectors:
        assert np.array_equal(a.vectors[hid], b.vectors[hid])


def test_train_lambda_with_empty_mapping_equals_plain():
    world, sessions = _tiny_world()
    dummy_source = EmbeddingSpace("S", [], np.zeros((0, 3)))
    plain = train(sessions, world.catalog, tiny_config(epochs=2, seed=3))
    regularized = train(sessions, world.catalog,
                        tiny_config(epochs=2, seed=3, lam=1.0),
                        source_space=dummy_source, mapping=BrandMapping({}))
    for name in ("w_c", "w_a", "w_g", "w_e"):
        assert np.array_equal(getattr(plain, name), getattr(regularized, name))


def test_train_requires_source_space_when_lambda_positive():
    world, sessions = _tiny_world()
    with pytest.raises(ValueError, match="requires a frozen source"):
        train(sessions, world.catalog, tiny_config(lam=1.0))


def test_train_rejects_a_source_space_of_another_dimension(monkeypatch):
    # before the check, the first mapped pair failed with numpy's broadcast error
    world, sessions = _tiny_world()
    ids = world.catalog.hotel_ids
    source = EmbeddingSpace("S", ids, np.ones((len(ids), 8)))
    calls, real = [], model.gradients

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(model, "gradients", counted)
    with pytest.raises(ValueError, match=r"^source space dim 8 != model dim 3$"):
        train(sessions, world.catalog, tiny_config(lam=1.0), source_space=source,
              mapping=BrandMapping({h: h for h in ids}))
    assert calls == []  # no pair was trained


def test_train_loss_decreases_over_epochs():
    world, sessions = _tiny_world()
    # d=3 is too narrow to learn anything here (dead ReLU outputs), so use d=8
    cfg = replace(tiny_config(epochs=5, seed=7), d=8)
    losses = train(sessions, world.catalog, cfg).epoch_losses
    assert len(losses) == 5
    assert losses[4] < losses[0]


def test_train_regularizer_pulls_mapped_hotels_toward_source():
    world, sessions = _tiny_world()
    catalog = world.catalog
    mapping = BrandMapping({h: h for h in catalog.hotel_ids})
    base_cfg = tiny_config(epochs=5, seed=7)
    source = export_embeddings(train(sessions, catalog, base_cfg), catalog,
                               brand="S")

    def mean_distance(params):
        space = export_embeddings(params, catalog)
        return np.mean([np.linalg.norm(space.vectors[h] - source.vectors[h])
                        for h in catalog.hotel_ids])

    plain = train(sessions, catalog, tiny_config(epochs=5, seed=8))
    pulled = train(sessions, catalog,
                   tiny_config(epochs=5, seed=8, lam=10.0,
                               reg_variant="squared_norm"),
                   source_space=source, mapping=mapping)
    assert mean_distance(pulled) < mean_distance(plain)


def test_train_curve_sink_called_on_schedule():
    world, sessions = _tiny_world()
    cfg = tiny_config(epochs=1, eval_every=25)
    steps = []
    train(sessions, world.catalog, cfg,
          curve_sink=lambda step, space: steps.append((step, len(space.vectors))))
    assert steps
    assert all(step % 25 == 0 for step, _ in steps)
    assert all(count == len(world.catalog) for _, count in steps)


def test_train_diverges_with_absurd_learning_rate():
    # normalization caps the SGNS terms, but a weight-decay step with
    # lr * mu > 2 grows the matrices geometrically until the loss overflows
    world, sessions = _tiny_world()
    cfg = replace(tiny_config(epochs=5, learning_rate=1e3), l2_weight=1.0)
    with pytest.raises(TrainingDiverged):
        train(sessions, world.catalog, cfg)


def test_train_without_pairs_is_an_error():
    # two hotels in one market: no pair has an eligible negative
    catalog = make_catalog({"m0": ["A", "B"]})
    sessions = make_sessions("X", [["A", "B"]], catalog)
    with pytest.raises(ValueError,
                       match=r"nothing to train on.*\(2 pairs skipped per epoch\)"):
        train(sessions, catalog, tiny_config(epochs=2))
    with pytest.raises(ValueError, match="nothing to train on"):
        train(make_sessions("X", [], catalog), catalog, tiny_config())


@pytest.mark.parametrize("clicks", [("h0", "zz", "h1"), ("zz", "h0"), ("h1", "h0", "zz")])
def test_train_on_a_hotel_outside_the_catalog_is_the_catalogs_error(clicks):
    # an unknown hotel anywhere in a session is the catalog's DataError, the
    # one make_events raises for an unknown query, not a bare KeyError
    catalog = make_catalog({"m0": ["h0", "h1", "h2"]})
    sessions = SessionSet("A", [ClickSession("s0", "A", "m0", clicks)])
    with pytest.raises(DataError, match=r"^unknown hotel_id 'zz'$"):
        train(sessions, catalog, tiny_config())
    with pytest.raises(DataError, match=r"^unknown hotel_id 'zz'$"):
        make_events(SessionSet("A", [ClickSession("s0", "A", "m0", ("zz", "h0"))]), catalog)


# The integer-indexed trainer must reproduce the string-keyed per-pair loop
# in tests/oracles.py bit for bit: same pairs, same negatives, same floats.
REFERENCE_DIMS = dict(sub_dim=16, d=32)
REFERENCE_CASES = {
    "sgd": dict(),
    "sgd_l2": dict(l2_weight=1e-3),
    "norm_l2_partial_mapping": dict(lam=1.0, reg_variant="norm", l2_weight=1e-3),
    "squared_norm_partial_mapping": dict(lam=1.0, reg_variant="squared_norm"),
    "adam": dict(optimizer="adam", learning_rate=0.01),
    "adam_l2_duplicate_negatives": dict(optimizer="adam", learning_rate=0.01,
                                        n_neg=3, l2_weight=1e-3),
    "duplicate_negatives": dict(n_neg=3),
    # repro's sizes, where BLAS runs other kernels than at 3/8
    "reference_dims_squared_norm_partial_mapping": dict(
        **REFERENCE_DIMS, lam=1.0, reg_variant="squared_norm", l2_weight=1e-6),
    "reference_dims_duplicate_negatives": dict(**REFERENCE_DIMS, n_neg=5),
    "reference_dims_norm_l2_partial_mapping": dict(
        **REFERENCE_DIMS, lam=1.0, reg_variant="norm", l2_weight=1e-3),
    "reference_dims_adam_l2_duplicate_negatives": dict(
        **REFERENCE_DIMS, optimizer="adam", learning_rate=0.01, n_neg=3, l2_weight=1e-3),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_train_matches_reference_loop_bit_for_bit(case):
    world, sessions = _tiny_world()
    catalog = world.catalog
    cfg = tiny_config(**{"sub_dim": 3, "d": 8, "epochs": 3,
                         "seed": 5, **REFERENCE_CASES[case]})
    source = mapping = None
    if cfg.lam > 0:
        rng = np.random.default_rng(9)
        source = EmbeddingSpace("S", catalog.hotel_ids, np.abs(
            rng.normal(0, 0.5, (len(catalog), cfg.d))))
        mapping = BrandMapping({h: h for h in catalog.hotel_ids[::2]})
    got = train(sessions, catalog, cfg, source_space=source, mapping=mapping)
    want, want_losses = reference_train(sessions, catalog, cfg, source, mapping)
    for name in ("w_c", "w_a", "w_g", "w_e"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # the L2 term of the loss is summed in another order
    assert got.epoch_losses == pytest.approx(want_losses, rel=1e-12, abs=0)


def test_train_diverges_at_the_reference_step_and_pair():
    world, sessions = _tiny_world()
    cfg = replace(tiny_config(epochs=5, learning_rate=1e3), l2_weight=1.0)
    with pytest.raises(TrainingDiverged) as got:
        train(sessions, world.catalog, cfg)
    with pytest.raises(TrainingDiverged) as want:
        reference_train(sessions, world.catalog, cfg)
    assert (got.value.step, got.value.pair) == (want.value.step, want.value.pair)


def test_train_adam_optimizer_runs_and_is_deterministic():
    world, sessions = _tiny_world()
    cfg = tiny_config(epochs=2, optimizer="adam", learning_rate=0.01)
    a = train(sessions, world.catalog, cfg)
    b = train(sessions, world.catalog, cfg)
    assert np.array_equal(a.w_e, b.w_e)


def test_train_config_validation():
    with pytest.raises(ValueError):
        tiny_config(learning_rate=-1.0).validate()
    with pytest.raises(ValueError):
        tiny_config(reg_variant="typo").validate()
    with pytest.raises(ValueError):
        tiny_config(optimizer="typo").validate()
    with pytest.raises(ValueError):
        tiny_config(n_neg=0).validate()


@pytest.mark.parametrize("field", ["sub_dim", "d", "n_neg"])
def test_train_sizes_at_2_63_are_refused_by_name(field):
    # numpy takes array sizes as int64; train --n-neg 10**20 once ran until killed
    tiny_config(**{field: 2 ** 63 - 1}).validate()
    with pytest.raises(ValueError, match=rf"^{field} must be below 2\*\*63, got {2 ** 63}$"):
        tiny_config(**{field: 2 ** 63}).validate()


def test_train_counts_past_int64_stay_valid():
    # window, epochs and eval_every are Python ints only: no numpy call takes them
    tiny_config(window=10 ** 20, epochs=10 ** 20, eval_every=10 ** 20).validate()


# ---------------------------------------------------------------------------
# export + file format

def test_export_covers_catalog_and_matches_forward():
    world, sessions = _tiny_world()
    cfg = tiny_config(epochs=1)
    params = train(sessions, world.catalog, cfg)
    space = export_embeddings(params, world.catalog, brand="A")
    assert set(space.vectors) == set(world.catalog.hotel_ids)
    assert space.dim == cfg.d
    for hid in world.catalog.hotel_ids:
        want = straight_line_embedding(hid, params, world.catalog)
        assert np.max(np.abs(space.vectors[hid] - want)) < 1e-12
    again = export_embeddings(params, world.catalog, brand="A")
    for hid in space.vectors:
        assert np.array_equal(space.vectors[hid], again.vectors[hid])


def test_exported_embeddings_are_nonnegative_so_cosines_are_too():
    world, sessions = _tiny_world()
    params = train(sessions, world.catalog, tiny_config(epochs=1))
    space = export_embeddings(params, world.catalog)
    mat = np.stack([space.vectors[h] for h in world.catalog.hotel_ids])
    assert np.all(mat >= 0)
    assert np.all(mat @ mat.T >= 0)  # all pairwise dots (hence cosines) >= 0


def test_embedding_file_roundtrip(tmp_path):
    world, sessions = _tiny_world()
    params = train(sessions, world.catalog, tiny_config(epochs=1))
    space = export_embeddings(params, world.catalog, brand="A")
    path = tmp_path / "a.emb"
    write_embeddings(space, path)
    header = path.read_text().splitlines()[0]
    assert header == f"{len(space.vectors)} {space.dim}"
    back = read_embeddings(path, brand="A")
    assert back.dim == space.dim
    for hid, v in space.vectors.items():
        assert np.array_equal(back.vectors[hid], v)  # repr round-trips exactly


def test_read_embeddings_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "bad1.emb"
    bad_header.write_text("2\n")
    with pytest.raises(DataError, match=r"bad1\.emb:1: bad header"):
        read_embeddings(bad_header)

    bad_row = tmp_path / "bad2.emb"
    bad_row.write_text("1 3\nh0 0.1 0.2\n")
    with pytest.raises(ValueError, match="expected 3 coordinates"):
        read_embeddings(bad_row)

    bad_count = tmp_path / "bad3.emb"
    bad_count.write_text("2 2\nh0 0.1 0.2\n")
    with pytest.raises(DataError, match=r"bad3\.emb:1: header count 2 != 1 rows"):
        read_embeddings(bad_count)

    for bad in ("nan", "inf", "-inf"):
        non_finite = tmp_path / "bad4.emb"
        non_finite.write_text(f"2 2\nh0 0.1 0.2\n\nh1 0.3 {bad}\n")
        with pytest.raises(ValueError, match=r"bad4\.emb:4: non-finite"):
            read_embeddings(non_finite)

    huge = tmp_path / "huge.emb"
    huge.write_text("2 2\nh0 0.1 0.2\nh1 1e200 0.2\n")
    with pytest.raises(DataError, match=r"huge\.emb:3: squared norm of 'h1' overflows"):
        read_embeddings(huge)

    bad_dim = tmp_path / "bad5.emb"
    bad_dim.write_text("2 x\nh0 0.1 0.2\n")
    with pytest.raises(DataError, match=r"bad5\.emb:1: invalid literal for int"):
        read_embeddings(bad_dim)

    bad_coordinate = tmp_path / "bad6.emb"
    bad_coordinate.write_text("2 2\nh0 0.1 0.2\nh1 zz 0.2\n")
    with pytest.raises(DataError, match=r"bad6\.emb:3: could not convert .*'zz'"):
        read_embeddings(bad_coordinate)

    # from 2**60 on numpy cannot shape even a (0, dim) array of floats
    for dim in ("0", "-1", "1152921504606846976", "100000000000000000000"):
        bad_dim = tmp_path / "bad7.emb"
        bad_dim.write_text(f"0 {dim}\n")
        with pytest.raises(DataError, match=r"bad7\.emb:1: dimension must be positive"):
            read_embeddings(bad_dim)


def test_read_embeddings_rejects_a_repeated_hotel(tmp_path):
    # the header count equals the number of distinct ids, so only the repeat
    # check can reject this file
    path = tmp_path / "repeat.emb"
    path.write_text("2 2\nh0 0.1 0.2\nh1 0.3 0.4\n\nh0 9.0 9.0\n")
    with pytest.raises(DataError) as raised:
        read_embeddings(path)
    assert str(raised.value) == f"{path}:5: hotel 'h0' repeated from line 2"


def test_embedding_space_rows_are_its_matrix_and_read_only():
    matrix = np.arange(6.0).reshape(3, 2)
    space = EmbeddingSpace("S", ["c", "a", "b"], matrix)
    assert space.dim == 2
    assert space.index == {"c": 0, "a": 1, "b": 2}
    assert list(space.vectors) == ["c", "a", "b"] and len(space.vectors) == 3
    assert all(np.shares_memory(space.vectors[h], matrix) for h in space.ids)
    assert np.array_equal(space.vectors["a"], [2.0, 3.0])
    with pytest.raises(TypeError):
        space.vectors["a"] = np.zeros(2)
    with pytest.raises(ValueError, match="distinct, one per matrix row"):
        EmbeddingSpace("S", ["a", "a", "b"], matrix)
    with pytest.raises(ValueError, match="distinct, one per matrix row"):
        EmbeddingSpace("S", ["a", "b"], matrix)


def test_init_params_seeded_and_in_range():
    catalog = make_catalog({"m0": ["h0", "h1", "h2"]})
    cfg = tiny_config()
    factory = lambda label: substream(5, "init", label)
    a = init_params(catalog, cfg, factory)
    b = init_params(catalog, cfg, factory)
    assert np.array_equal(a.w_c, b.w_c)
    assert np.array_equal(a.w_e, b.w_e)
    assert np.max(np.abs(a.w_c)) <= 0.5 / cfg.sub_dim
    assert np.max(np.abs(a.w_a)) <= 0.5 / cfg.sub_dim
