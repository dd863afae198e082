"""Session embedding network: fused feature sub-embeddings, SGNS objective,
cross-brand regularizer, manual gradients, and the training loop.

Every hotel is embedded as relu([V_c, V_a, V_g] @ W_e) where each V_* is a
normalize-then-relu projection of an input feature vector (the click one-hot,
amenities, geo). One forward pass, _forward, computes it both for a training
step's hotels and for export's whole catalog. Training is per-pair SGNS with
negatives drawn from the target hotel's market. When a frozen source-brand
space is supplied, a penalty lam * ||V_target - V_source|| (or its square)
ties each training pair's target hotel, when it is mapped, to its source
counterpart.
"""

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .data import (BrandMapping, DataError, HotelCatalog, SessionSet,
                   check_finite, open_text, parse_numbers)
from .pairs import build_epoch_stream

EPS_NORM = 1e-12


class TrainingDiverged(RuntimeError):
    """Non-finite loss encountered; carries the step and the pair, a
    (target, context, negatives) tuple of hotel ids."""

    def __init__(self, step: int, pair: tuple, loss: float):
        super().__init__(f"non-finite loss {loss} at step {step} on pair "
                         f"({pair[0]}, {pair[1]})")
        self.step = step
        self.pair = pair


@dataclass
class TrainConfig:
    sub_dim: int = 16                # width of each of the three sub-embeddings
    d: int = 32
    window: int = 3
    n_neg: int = 5
    learning_rate: float = 0.05
    epochs: int = 10
    l2_weight: float = 1e-6          # weight decay on touched parameters
    lam: float = 0.0                 # cross-brand regularizer strength
    reg_variant: str = "norm"        # "norm" | "squared_norm"
    optimizer: str = "sgd"           # "sgd" | "adam"
    seed: int = 0
    eval_every: int = 10_000

    def validate(self):
        if min(self.sub_dim, self.d, self.window,
               self.n_neg, self.epochs, self.eval_every) < 1:
            raise ValueError("size fields must be positive")
        for name in ("sub_dim", "d", "n_neg"):  # numpy array sizes and draws are int64
            if getattr(self, name) >= 2 ** 63:
                raise ValueError(f"{name} must be below 2**63, got {getattr(self, name)}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not (0 <= self.l2_weight < np.inf and 0 <= self.lam < np.inf):
            raise ValueError("l2_weight and lam must be finite and >= 0")
        if self.reg_variant not in ("norm", "squared_norm"):
            raise ValueError(f"unknown reg_variant {self.reg_variant!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class ModelParams:
    """Trainable matrices; W_c rows follow the catalog's hotel order.
    epoch_losses is an output: train appends each epoch's mean pair loss."""
    w_c: np.ndarray  # |H| x sub_dim
    w_a: np.ndarray  # d_a_in x sub_dim
    w_g: np.ndarray  # d_g_in x sub_dim
    w_e: np.ndarray  # 3 sub_dim x d
    epoch_losses: list = field(default_factory=list)


class EmbeddingSpace:
    """One brand's hotel vectors: row i of matrix is hotel ids[i]. dim, index
    (id -> row) and vectors, a read-only id -> row view, are derived."""

    def __init__(self, brand: str, ids, matrix: np.ndarray):
        self.brand, self.ids, self.matrix = brand, tuple(ids), matrix
        self.dim = matrix.shape[1]
        self.index = {h: i for i, h in enumerate(self.ids)}
        if not len(self.index) == len(self.ids) == len(matrix):
            raise ValueError("hotel ids must be distinct, one per matrix row")
        self.vectors = MappingProxyType(dict(zip(self.ids, matrix)))


def _block_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The k x 3 array of a[i, block j] . b[i, block j] over the three
    sub-embedding blocks of each row, one einsum over (k, 3, sub_dim) views."""
    shape = (len(a), 3, -1)
    return np.einsum("ijk,ijk->ij", a.reshape(shape), b.reshape(shape))


def _forward(p: ModelParams, w_c: np.ndarray, a_in: np.ndarray,
             g_in: np.ndarray) -> tuple:
    """relu([V_c, V_a, V_g] @ W_e) of k hotels from their W_c, amenity and geo
    rows: V_* = relu(y_* / ||y_*||), or zero where ||y_*|| is (near) zero.
    Returns (y, sq, inv, yhat, u, z): y = [y_c, y_a, y_g], their squared
    norms, 1 / ||y_*|| repeated over each block, y * inv, relu(yhat) and
    z = u @ W_e, whose relu is the embedding."""
    w = w_c.shape[1]
    y = np.empty((len(w_c), 3 * w))
    y[:, :w] = w_c
    np.matmul(a_in, p.w_a, out=y[:, w:2 * w])
    np.matmul(g_in, p.w_g, out=y[:, 2 * w:])
    sq = _block_dots(y, y)
    norms = np.sqrt(sq)
    inv = np.divide(1.0, norms, out=np.zeros(norms.shape),
                    where=norms >= EPS_NORM).repeat(w, axis=1)
    yhat = y * inv
    u = np.maximum(yhat, 0.0)
    return y, sq, inv, yhat, u, u @ p.w_e


class StepContext:
    """What the per-pair step reads besides the hotels: the parameters, the
    feature matrices, the config and the frozen source space's vectors.

    W_a, W_g and W_e of params are re-seated as views of one flat buffer,
    self.flat, so that weight decay, the L2 term and the dense update are
    one op each. Their gradient is self.grad, which every step overwrites
    through self.grad_views; the step allocates its other arrays itself.
    """

    def __init__(self, params: ModelParams, catalog: HotelCatalog,
                 cfg: TrainConfig, source_space=None, mapping=None):
        self.params, self.cfg = params, cfg
        dense = (params.w_a, params.w_g, params.w_e)
        self.shapes = [w.shape for w in dense]
        self.cuts = np.cumsum([w.size for w in dense])[:-1]
        self.flat = np.concatenate([w.ravel() for w in dense])
        params.w_a, params.w_g, params.w_e = self.views(self.flat)
        self.grad = np.empty_like(self.flat)  # overwritten by every step
        self.grad_views = self.views(self.grad)
        self.features = catalog.features
        self.a_dim = catalog.amenity_dim
        w = cfg.sub_dim
        self.blocks = [slice(j * w, (j + 1) * w) for j in range(3)]
        # catalog row -> its source-brand vector or None, when lam > 0;
        # mapping=None maps each hotel to itself
        self.sources = []
        for target_id in catalog.hotel_ids if cfg.lam > 0 else ():
            src_id = target_id if mapping is None else mapping.to_source(target_id)
            row = None if source_space is None else source_space.index.get(src_id)
            if src_id is not None and row is None:
                raise ValueError(
                    f"hotel {target_id!r} is mapped but source space has no vector "
                    f"for {src_id!r}")
            self.sources.append(None if row is None else source_space.matrix[row])

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """W_a, W_g and W_e shaped views of a flat buffer."""
        return [a.reshape(s) for a, s in zip(np.split(flat, self.cuts), self.shapes)]


def gradients(ctx: StepContext, hotels: tuple[int, ...]):
    """Loss and exact gradient of one pair over catalog indices: SGNS, the
    regularizer on the target, and weight decay on touched parameters.

    hotels are the catalog indices of (target, context, *negatives). Returns
    (loss, idx, dy_c, grad): the distinct hotels, the gradient of their W_c
    rows, and the gradient of ctx.flat. ndarray.take indexes the small
    arrays: numpy's Python-level wrappers cost more than the work.
    """
    p, cfg, (bc, ba, bg) = ctx.params, ctx.cfg, ctx.blocks
    rows = list(dict.fromkeys(hotels))  # the distinct hotels, in order
    if len(rows) == len(hotels):  # always so at n_neg=1
        t, c, neg = 0, 1, slice(2, None)
    else:
        t, c, *neg = [rows.index(h) for h in hotels]
    idx = np.array(rows)
    x = ctx.features.take(idx, axis=0)
    a_in, g_in = x[:, :ctx.a_dim], x[:, ctx.a_dim:]
    y, sq, inv, yhat, u, z = _forward(p, p.w_c.take(idx, axis=0), a_in, g_in)
    v = np.maximum(z, 0.0)

    v_t = v[t]
    s_pos = float(v_t @ v[c])
    # v is a relu, so every score s is >= 0 or nan: from e = exp(-s) <= 1, log1p(e)
    # is softplus(-s), s + log1p(e) softplus(s) and 1 / (1 + e) sigmoid(s) to the bit
    e = math.exp(-s_pos)
    loss = math.log1p(e)
    g_pos = -e / (1.0 + e)
    dv = np.zeros(v.shape)
    dv_t = dv[t]
    dv_t += g_pos * v[c]
    dv[c] += g_pos * v_t
    v_neg = v[neg]
    scores = [(s, math.exp(-s)) for s in (v_neg @ v_t).tolist()]
    loss += sum([s + math.log1p(e) for s, e in scores])
    g_neg = np.array([1.0 / (1.0 + e) for _, e in scores])
    dv_t += g_neg @ v_neg
    if type(neg) is slice:
        dv[neg] += g_neg[:, None] * v_t
    else:
        np.add.at(dv, neg, g_neg[:, None] * v_t)

    if cfg.lam > 0 and (v_src := ctx.sources[hotels[0]]) is not None:
        diff = v_t - v_src
        norm = math.sqrt(diff @ diff)
        if cfg.reg_variant == "norm":
            loss += cfg.lam * norm
            if norm >= EPS_NORM:
                dv_t += cfg.lam / norm * diff
        else:
            loss += cfg.lam * norm * norm
            dv_t += 2.0 * cfg.lam * diff

    dz = np.where(z > 0, dv, 0.0)
    grad, (dw_a, dw_g, dw_e) = ctx.grad, ctx.grad_views
    np.matmul(u.T, dz, out=dw_e)
    masked = np.where(yhat > 0, dz @ p.w_e.T, 0.0)
    proj = _block_dots(yhat, masked)
    dy = (masked - yhat * proj.repeat(cfg.sub_dim, axis=1)) * inv
    np.matmul(a_in.T, dy[:, ba], out=dw_a)
    np.matmul(g_in.T, dy[:, bg], out=dw_g)
    dy_c = dy[:, bc]

    mu = cfg.l2_weight
    if mu > 0:
        # sq[:, 0] already holds the squared norms of the W_c rows
        loss += 0.5 * mu * (float(np.add.reduce(sq[:, 0]))
                            + float(ctx.flat @ ctx.flat))
        dy_c += mu * y[:, bc]
        grad += mu * ctx.flat
    return loss, idx, dy_c, grad


def init_params(catalog: HotelCatalog, cfg: TrainConfig,
                rng_factory) -> ModelParams:
    """Seeded uniform init.

    The sub-embedding matrices are scale-invariant (the normalize layer
    divides their scale out), so they use the word2vec-style [-0.5/cols,
    0.5/cols] range. W_e is NOT scale-invariant: at 0.5/cols the exported
    embeddings start with norms ~0.05 and the contrastive gradients, which
    are proportional to the embeddings themselves, never bootstrap. It gets
    a Glorot range instead.
    """
    def uni(label, shape, half):
        return rng_factory(label).uniform(-half, half, size=shape)

    w, d_cat = cfg.sub_dim, 3 * cfg.sub_dim
    return ModelParams(
        w_c=uni("w_c", (len(catalog), w), 0.5 / w),
        w_a=uni("w_a", (catalog.amenity_dim, w), 0.5 / w),
        w_g=uni("w_g", (catalog.geo_dim, w), 0.5 / w),
        w_e=uni("w_e", (d_cat, cfg.d), math.sqrt(6.0 / (d_cat + cfg.d))),
    )


class _AdamState:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, w_c: np.ndarray, flat: np.ndarray, cfg: TrainConfig):
        self.m_c, self.v_c = np.zeros_like(w_c), np.zeros_like(w_c)
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self.t, self.cfg = 0, cfg

    def update(self, w_c, flat, idx, dy_c, grad):
        # lazy variant: W_c moments advance only on touched rows, with the
        # global step used for bias correction
        self.t += 1
        b1, b2, eps, lr = self.BETA1, self.BETA2, self.EPS, self.cfg.learning_rate
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t

        def adam(w, m, v, g):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            w -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

        adam(flat, self.m, self.v, grad)
        w, m, v = w_c[idx], self.m_c[idx], self.v_c[idx]
        adam(w, m, v, dy_c)
        w_c[idx], self.m_c[idx], self.v_c[idx] = w, m, v


@np.errstate(over="ignore", invalid="ignore")  # the loss check reports a divergence
def train(train_sessions: SessionSet, catalog: HotelCatalog, cfg: TrainConfig,
          source_space: EmbeddingSpace | None = None,
          mapping: BrandMapping | None = None,
          curve_sink=None) -> ModelParams:
    """Deterministic single-worker training loop: exact per-pair SGD (or
    Adam) over catalog indices.

    curve_sink, when given, is called as curve_sink(step, space) every
    cfg.eval_every pair updates with a freshly exported embedding space.
    Each epoch's mean pair loss goes to the result's epoch_losses. Raises
    ValueError when the sessions yield no pair to train on, and before the
    first pair when lam > 0 and a mapped hotel has no source vector.
    """
    cfg.validate()
    if cfg.lam > 0 and source_space is None:
        raise ValueError("lam > 0 requires a frozen source embedding space")
    if cfg.lam > 0 and source_space.dim != cfg.d:
        raise ValueError(f"source space dim {source_space.dim} != model dim {cfg.d}")

    from .rng import substream
    params = init_params(catalog, cfg,
                         lambda label: substream(cfg.seed, "init", label))
    ctx = StepContext(params, catalog, cfg, source_space, mapping)
    flat = ctx.flat
    adam = _AdamState(params.w_c, flat, cfg) if cfg.optimizer == "adam" else None

    step = 0
    for epoch in range(cfg.epochs):
        skip_counter = [0]
        loss_sum = 0.0
        n_pairs = 0
        stream = build_epoch_stream(train_sessions, catalog, cfg.window,
                                    cfg.n_neg, cfg.seed, epoch, skip_counter)
        for hotels in stream:
            loss, idx, dy_c, grad = gradients(ctx, hotels)
            if not math.isfinite(loss):
                ids = catalog.hotel_ids
                raise TrainingDiverged(step, (ids[hotels[0]], ids[hotels[1]],
                                              tuple(ids[n] for n in hotels[2:])), loss)
            if adam is not None:
                adam.update(params.w_c, flat, idx, dy_c, grad)
            else:
                params.w_c[idx] -= cfg.learning_rate * dy_c
                flat -= cfg.learning_rate * grad
            loss_sum += loss
            n_pairs += 1
            step += 1
            if curve_sink is not None and step % cfg.eval_every == 0:
                curve_sink(step, export_embeddings(params, catalog))
        if n_pairs == 0:  # every epoch trains the same pairs
            raise ValueError(
                f"nothing to train on: {len(train_sessions)} training sessions give "
                f"no pair with an eligible negative ({skip_counter[0]} pairs "
                f"skipped per epoch)")
        params.epoch_losses.append(loss_sum / n_pairs)
    return params


def export_embeddings(params: ModelParams, catalog: HotelCatalog,
                      brand: str = "unknown") -> EmbeddingSpace:
    """Materialize the enriched embedding of every catalog hotel: the training
    step's forward pass over all catalog rows at once."""
    x, a_dim = catalog.features, catalog.amenity_dim
    z = _forward(params, params.w_c, x[:, :a_dim], x[:, a_dim:])[5]
    return EmbeddingSpace(brand, catalog.hotel_ids, np.maximum(z, 0.0, out=z))


# ---------------------------------------------------------------------------
# embedding file format: "<count> <dim>" header then "<id> <v1> ... <vdim>"

def write_embeddings(space: EmbeddingSpace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space.ids)} {space.dim}\n")
        for hid in sorted(space.ids):
            coords = " ".join(map(repr, space.matrix[space.index[hid]].tolist()))
            fh.write(f"{hid} {coords}\n")


def read_embeddings(path, brand: str = "unknown") -> EmbeddingSpace:
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}:1: bad header")
        count, dim = parse_numbers(header, int, path, 1)
        if not 1 <= dim < 2 ** 60:  # numpy's float arrays stay below 2**63 bytes
            raise DataError(f"{path}:1: dimension must be positive and below 2**60, got {dim}")
        lines, coords = {}, []  # hotel id -> its line, in file order
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise DataError(f"{path}:{lineno}: expected {dim} coordinates for "
                                f"{parts[0]!r}, got {len(parts) - 1}")
            if lines.setdefault(parts[0], lineno) != lineno:
                raise DataError(f"{path}:{lineno}: hotel {parts[0]!r} repeated "
                                f"from line {lines[parts[0]]}")
            coords.append(parse_numbers(parts[1:], float, path, lineno))
    ids, linenos = list(lines), list(lines.values())
    matrix = np.array(coords, dtype=float).reshape(len(ids), dim)
    check_finite(matrix, path, linenos)
    with np.errstate(over="ignore"):
        bounded = np.isfinite(np.einsum("ij,ij->i", matrix, matrix))
    if not bounded.all():
        row = int(np.argmin(bounded))
        raise DataError(f"{path}:{linenos[row]}: squared norm of {ids[row]!r} "
                        f"overflows")
    if len(ids) != count:
        raise DataError(f"{path}:1: header count {count} != {len(ids)} rows")
    return EmbeddingSpace(brand, ids, matrix)
