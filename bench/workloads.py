"""The benchmark's three workloads.

Each workload has a set-up (its inputs, generated from the seed), a timed
phase that ``run.py`` repeats for the run's seconds, and a check that
verifies the outputs and counts failed operations against attempted ones.
Every workload reports every end-to-end metric: a throughput whose kind of
work the timed phase does not do is measured by a probe after it (see
NOTES.md for which is which on each workload).

The workloads call the package only through module attributes
(``model.train``, not a name imported from ``model``), so the traced run's
wrappers see every call.
"""

import contextlib
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import brandalign
from brandalign import align, data, model, pairs, repro, synth

# the package's __init__ binds the function evaluate over the submodule name
evaluate = importlib.import_module("brandalign.evaluate")

_clock = time.perf_counter
KS = (10, 100)
# sessions the short source model of the full-world workloads trains on; the
# target models use repro's data-poor budget (TARGET_SESSIONS_PER_HOTEL)
SOURCE_TRAIN_SESSIONS = {"full": 300, "tiny": 40}
RANK_CHECKS_PER_CELL = 16
# a throughput measured off the timed phase repeats its unit of work for at
# least this long and reports the median rate
PROBE_S = 2.0
UNITS = {"train_pairs_per_s": "1/s", "eval_events_per_s": "1/s",
         "ingest_sessions_per_s": "1/s", "hits100_da_target": "ratio",
         "closeness_da10": "distance"}


def _quiet(*_args, **_kwargs):
    pass


def count_pairs(sessions, window: int) -> int:
    """SGNS positive pairs in one epoch, as the pair stream builds them."""
    return sum(len(pairs.make_pairs(s, window)) for s in sessions)


@dataclass
class Context:
    seed: int
    size: str        # "full" | "tiny" (the self-test's world)
    workdir: str     # scratch for this run, removed at exit
    state_dir: str   # per-checkout records kept across runs
    tracer: object = None
    host: object = None  # hostspeed.HostSpeed of an untraced run

    @contextlib.contextmanager
    def untraced(self):
        """Keep probe calls out of the per-layer figures."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False


@dataclass
class Checks:
    attempted: int = 0
    failed: list = field(default_factory=list)  # (label, counts_against_correct)

    def op(self, label, fn):
        """Run one checked operation; False or an exception is a failure."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as exc:  # a check must report, never abort the run
            self.failed.append((f"{label}: {type(exc).__name__}: {exc}", True))
            return
        if not ok:
            self.failed.append((label, True))


@dataclass
class Outcome:
    metrics: dict             # end-to-end name -> value
    checks: Checks
    sizes: dict


def probe_rate(ctx, fn):
    """fn() -> (units, result); median units per second over PROBE_S, at
    nominal host speed in an untraced run. Each reading starts from the same
    collector state, as the timed phase does."""
    rates = []
    start = _clock()
    while not rates or _clock() - start < PROBE_S:
        gc.collect()
        t0 = _clock()
        units, result = fn()
        t1 = _clock()
        rates.append(units / (ctx.host.normalise(t0, t1) if ctx.host else t1 - t0))
    return statistics.median(rates), result


def _same_bytes(path, write, obj, scratch):
    write(obj, scratch)
    with open(path, "rb") as a, open(scratch, "rb") as b:
        return a.read() == b.read()


def round_trip(checks, label, path, read, write, scratch):
    """write -> read -> write must reproduce the file byte for byte."""
    checks.op(f"round trip {label}",
              lambda: _same_bytes(path, write, read(path), scratch))


def _tiny_world(seed):
    return synth.WorldConfig(n_markets=2, hotels_per_market=30, latent_dim=8,
                             d_a_in=8, d_g_in=2, n_sessions_per_brand=300,
                             seed=seed)


def world_config(ctx):
    if ctx.size == "tiny":
        return _tiny_world(ctx.seed)
    return repro.reference_world_config(seed=ctx.seed)


# ---------------------------------------------------------------------------
# repro-quick

class ReproQuick:
    """run_repro(quick=True): the whole paper pipeline on the 2x150 world."""

    name = "repro-quick"
    setup_reps = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._patched = []
        if ctx.size == "tiny":
            # a smaller quick world, so the self-test takes seconds
            seed_cfg = repro.reference_train_config

            def train_cfg(seed, quick=False):
                return replace(seed_cfg(seed, quick), epochs=1, eval_every=40)

            def target_cfg(seed, quick=False):
                return replace(train_cfg(seed, quick), epochs=2)

            self._patch("reference_world_config",
                        lambda seed=42, quick=False: _tiny_world(seed))
            self._patch("reference_train_config", train_cfg)
            self._patch("target_train_config", target_cfg)

    def _patch(self, attr, value):
        self._patched.append((attr, getattr(repro, attr)))
        setattr(repro, attr, value)

    def close(self):
        for attr, value in reversed(self._patched):
            setattr(repro, attr, value)

    def setup(self):
        # run_repro generates its own world: set-up is interpreter start and
        # package import, which run.py measures
        return None

    def timed(self, state, i):
        out_dir = os.path.join(self.ctx.workdir, f"repro-{i}")
        return out_dir, repro.run_repro(out_dir, seed=self.ctx.seed,
                                        quick=True, log=_quiet)

    def check(self, state, out, walls):
        ctx = self.ctx
        checks = Checks()
        out_dir, res = out
        wall_s = statistics.median(walls)

        # the ordering checks: outcomes of the seed, not program defects
        checks.attempted += 7
        for label in res.violations:
            n = 2 if label.startswith("curves missing") else 1
            checks.failed.extend([(f"ordering: {label}", False)] * n)

        # determinism: report.jsonl of every repetition against the first
        # run of this seed and code in this checkout
        digests = [_sha256_file(os.path.join(ctx.workdir, f"repro-{i}", "report.jsonl"))
                   for i in range(len(walls))]
        checks.op("report.jsonl identical across runs of this seed and code",
                  lambda: same_as_recorded(ctx, self.name, digests))

        # the files repro wrote read back and re-write byte for byte
        scratch = os.path.join(ctx.workdir, "rewrite.tmp")
        p = lambda name: os.path.join(out_dir, name)  # noqa: E731
        catalog = data.load_catalog(p("catalog.jsonl"))
        wcfg = repro.reference_world_config(seed=ctx.seed, quick=True)
        src_brand, tgt_brand = wcfg.brands
        sessions = {b: data.load_sessions(p(f"sessions_{b}.jsonl"), catalog, b)
                    for b in wcfg.brands}
        round_trip(checks, "catalog", p("catalog.jsonl"), data.load_catalog,
                   synth.write_catalog, scratch)
        round_trip(checks, "mapping", p("mapping.tsv"), data.load_mapping,
                   synth.write_mapping, scratch)
        for b in wcfg.brands:
            round_trip(checks, f"sessions_{b}", p(f"sessions_{b}.jsonl"),
                       lambda path, b=b: data.load_sessions(path, catalog, b),
                       synth.write_sessions, scratch)
        for name in sorted(f for f in os.listdir(out_dir) if f.endswith(".emb")):
            round_trip(checks, name, p(name), model.read_embeddings,
                       model.write_embeddings, scratch)
        round_trip(checks, "lp.proj", p("lp.proj"), align.read_projection,
                   align.write_projection, scratch)

        # work counts: pairs over the four trainings, events ranked
        src_cfg = repro.reference_train_config(ctx.seed, quick=True)
        tgt_cfg = repro.target_train_config(ctx.seed, quick=True)
        splits = {b: data.split_sessions(sessions[b], repro.SPLIT_RATIOS, ctx.seed)
                  for b in wcfg.brands}
        train = {b: splits[b][0] for b in wcfg.brands}
        n_tgt = min(len(train[tgt_brand]),
                    max(1, round(repro.TARGET_SESSIONS_PER_HOTEL * len(catalog))))
        pairs = (src_cfg.epochs * count_pairs(train[src_brand].sessions, src_cfg.window)
                 + 3 * tgt_cfg.epochs * count_pairs(train[tgt_brand].sessions[:n_tgt],
                                                    tgt_cfg.window))
        cells = [r for r in res.report_rows if r["k"] == KS[0]]
        test_events = next(r["n_events"] for r in cells
                           if (r["embeddings"], r["eval_brand"], r["mode"])
                           == ("single_target", tgt_brand, "cosine"))
        curve_events = min(repro.CURVE_EVENT_CAP, test_events)
        # events ranked by run_repro: the grid plus every curve checkpoint
        events = (sum(r["n_events"] for r in cells)
                  + curve_events * sum(len(c) for c in res.curves.values()))
        hits = next(r["hits"] for r in res.report_rows
                    if (r["embeddings"], r["eval_brand"], r["mode"], r["k"])
                    == ("da_lambda10", tgt_brand, "cosine", 100))
        da10 = model.read_embeddings(p(f"{tgt_brand}_da_lambda10.emb"))
        checks.op("re-read da_lambda10 reproduces the report's hits@100",
                  lambda: evaluate.evaluate(splits[tgt_brand][2], da10, catalog,
                                            ks=KS).hits(100, "cosine", "in_brand")
                  == hits)
        n_sessions = sum(len(s) for s in sessions.values())

        # ranking and parsing are a few percent of the timed phase: probes
        def rank():
            rep = evaluate.evaluate(splits[tgt_brand][2], da10, catalog, ks=KS)
            return rep.rows[(KS[0], "cosine", "in_brand")]["n_events"], None

        def parse():
            return sum(len(data.load_sessions(p(f"sessions_{b}.jsonl"), catalog, b))
                       for b in wcfg.brands), None
        with ctx.untraced():
            eval_rate, _ = probe_rate(ctx, rank)
            parse_rate, _ = probe_rate(ctx, parse)
        return Outcome(
            metrics={
                "train_pairs_per_s": pairs / wall_s,
                "eval_events_per_s": eval_rate,
                "ingest_sessions_per_s": parse_rate,
                "hits100_da_target": hits,
                "closeness_da10": res.closeness["da_lambda10"],
            },
            checks=checks,
            sizes={"hotels": len(catalog), "sessions": n_sessions,
                   "pairs": pairs, "events": events})


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def code_digest() -> str:
    """SHA-256 of the package's and the benchmark's Python sources, and of
    the numpy version, so that only outputs of identical code are compared."""
    h = hashlib.sha256(np.__version__.encode())
    for d in (Path(brandalign.__file__).parent, Path(__file__).parent):
        for path in sorted(d.glob("*.py")):
            h.update(f"{d.name}/{path.name}".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def same_as_recorded(ctx, workload, digests) -> bool:
    """True when every digest equals the one recorded by the first run of
    this workload, size, seed and code in the checkout. The first such run
    records its own digest and passes if its repetitions agree."""
    path = os.path.join(ctx.state_dir, "output-sha256.json")
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    key = f"{workload}:{ctx.size}:{ctx.seed}:{code_digest()}"
    if key not in record:
        record[key] = digests[0]
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return set(digests) == {record[key]}


# ---------------------------------------------------------------------------
# shared set-up of the full-world workloads

@dataclass
class FullWorld:
    brands: tuple
    files: dict          # catalog, mapping, sessions_<brand> -> path
    catalog: object
    mapping: object
    inverse: object
    splits: dict         # brand -> (train, val, test)
    spaces: dict         # name -> EmbeddingSpace
    train_cfg: object    # the one-epoch config of the short trainings
    target_train: object # the target brand's data-poor training sessions
    train_pairs: int


def prepare_full_world(ctx, via_files: bool) -> FullWorld:
    """Generate the world, write its files, and train short models.

    With via_files the set-up follows the CLI: sessions, embeddings and the
    projection are loaded from the files written before.
    """
    wcfg = world_config(ctx)
    src, tgt = wcfg.brands
    world = synth.generate_world(wcfg)
    sessions = {b: synth.generate_sessions(world, b, wcfg) for b in wcfg.brands}
    wdir = os.path.join(ctx.workdir, "world")
    os.makedirs(wdir, exist_ok=True)
    files = {"catalog": os.path.join(wdir, "catalog.jsonl"),
             "mapping": os.path.join(wdir, "mapping.tsv")}
    synth.write_catalog(world.catalog, files["catalog"])
    synth.write_mapping(world.mapping, files["mapping"])
    for b in wcfg.brands:
        files[f"sessions_{b}"] = os.path.join(wdir, f"sessions_{b}.jsonl")
        synth.write_sessions(sessions[b], files[f"sessions_{b}"])

    catalog, mapping = world.catalog, world.mapping
    if via_files:
        catalog = data.load_catalog(files["catalog"])
        mapping = data.load_mapping(files["mapping"], catalog, catalog)
        sessions = {b: data.load_sessions(files[f"sessions_{b}"], catalog, b)
                    for b in wcfg.brands}
    splits = {b: data.split_sessions(sessions[b], repro.SPLIT_RATIOS, ctx.seed)
              for b in wcfg.brands}

    cfg = replace(repro.reference_train_config(ctx.seed), epochs=1)
    src_train = data.SessionSet(src, splits[src][0].sessions[:SOURCE_TRAIN_SESSIONS[ctx.size]])
    n_tgt = max(1, round(repro.TARGET_SESSIONS_PER_HOTEL * len(catalog)))
    tgt_train = data.SessionSet(tgt, splits[tgt][0].sessions[:n_tgt])

    src_params = model.train(src_train, catalog, cfg)
    spaces = {"single_source": model.export_embeddings(src_params, catalog, brand=src)}
    for name, lam in (("single_target", 0.0), ("da_lambda10", 1.0),
                      ("da_lambda05", 0.5)):
        run_cfg = replace(cfg, lam=lam, reg_variant=repro.REG_VARIANT) if lam else cfg
        params = model.train(tgt_train, catalog, run_cfg,
                             source_space=spaces["single_source"] if lam else None,
                             mapping=mapping if lam else None)
        spaces[name] = model.export_embeddings(params, catalog, brand=tgt)
    train_pairs = (count_pairs(src_train.sessions, cfg.window)
                   + 3 * count_pairs(tgt_train.sessions, cfg.window))

    if via_files:
        for name in list(spaces):
            path = os.path.join(wdir, f"{name}.emb")
            model.write_embeddings(spaces[name], path)
            spaces[name] = model.read_embeddings(path, brand=spaces[name].brand)
        s, t, _, _ = align.common_rows(spaces["single_source"],
                                       spaces["single_target"], mapping)
        proj_path = os.path.join(wdir, "lp.proj")
        align.write_projection(align.fit_linear_projection(s, t), proj_path)
        spaces["lp_projected"] = align.apply_projection(
            spaces["single_source"], align.read_projection(proj_path))

    inverse = data.BrandMapping({t: s for s, t in mapping.pairs.items()})
    return FullWorld(wcfg.brands, files, catalog, mapping, inverse, splits,
                     spaces, cfg, tgt_train, train_pairs)


class _FullWorldWorkload:
    setup_reps = 2

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def close(self):
        pass

    def train_rate(self, fw) -> float:
        """Pairs per second of a one-epoch plain training of the target
        brand's data-poor budget; median over PROBE_S, untraced."""
        n = fw.train_cfg.epochs * count_pairs(fw.target_train.sessions,
                                              fw.train_cfg.window)
        with self.ctx.untraced():
            rate, _ = probe_rate(
                self.ctx, lambda: (n, model.train(fw.target_train, fw.catalog, fw.train_cfg)))
        return rate


# ---------------------------------------------------------------------------
# eval-grid

SOURCE_LIKE = ("single_source", "lp_projected")   # keyed by source-brand ids
SPACE_ORDER = ("single_source", "single_target", "lp_projected",
               "da_lambda10", "da_lambda05")
POOLS = ("market", "global")


def grid_cells(brands):
    src, tgt = brands
    cells = [(name, b, "cosine") for name in SPACE_ORDER for b in brands]
    cells += [("single_target", tgt, "model"), ("da_lambda10", tgt, "model")]
    return [(name, b, mode, pool) for pool in POOLS for name, b, mode in cells]


def _cell_setting(fw, name, eval_brand):
    """(setting, mapping or None) as repro's evaluation grid chooses them."""
    src, tgt = fw.brands
    home = src if name in SOURCE_LIKE else tgt
    if eval_brand == home:
        return "in_brand", None
    return "cross_brand", (fw.mapping if home == src else fw.inverse)


def eval_cell(fw, cell, sessions, ks=KS):
    name, eval_brand, mode, pool = cell
    setting, mp = _cell_setting(fw, name, eval_brand)
    space = fw.spaces[name]
    if mp is None:
        rep = evaluate.evaluate(sessions, space, fw.catalog, mode=mode, ks=ks,
                                pool=pool)
    else:
        rep = evaluate.cross_brand_evaluate(sessions, space, mp, fw.catalog,
                                            mode=mode, ks=ks, pool=pool)
    return rep, setting


def grid_digest(results) -> str:
    """SHA-256 of every cell's report rows and metadata."""
    rows = [[list(cell), setting, sorted([list(key), row] for key, row in rep.rows.items()),
             sorted(rep.metadata.items())]
            for cell, (rep, setting) in sorted(results.items())]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def interleave_markets(events):
    """Events reordered round-robin over their markets, so that a batch
    returns to each market after visiting the others."""
    markets = sorted({ev.market_id for ev in events})
    groups = [[ev for ev in events if ev.market_id == m] for m in markets]
    return [ev for row in itertools.zip_longest(*groups) for ev in row
            if ev is not None]


class EvalGrid(_FullWorldWorkload):
    """repro's evaluation grid on the full world, market and global pools."""

    name = "eval-grid"

    def setup(self):
        return prepare_full_world(self.ctx, via_files=True)

    def timed(self, fw, i):
        results, errors = {}, {}
        for cell in grid_cells(fw.brands):
            try:
                results[cell] = eval_cell(fw, cell, fw.splits[cell[1]][2])
            except Exception as exc:  # reported as a failed cell
                errors[cell] = f"{type(exc).__name__}: {exc}"
        return results, errors

    def check(self, fw, out, walls):
        ctx = self.ctx
        checks = Checks()
        results, errors = out
        wall_s = statistics.median(walls)
        cells = grid_cells(fw.brands)
        checks.attempted += len(cells)
        checks.failed.extend((f"grid cell {c}: {e}", True) for c, e in errors.items())
        events = sum(rep.rows[(KS[0], cell[2], setting)]["n_events"]
                     for cell, (rep, setting) in results.items())
        checks.op("grid reports identical across runs of this seed and code",
                  lambda: same_as_recorded(ctx, self.name, [grid_digest(results)]))

        with ctx.untraced():
            self._check_ranks(fw, cells, random.Random(ctx.seed), checks)

        # session parsing, as the set-up does it
        src = fw.brands[0]
        path = fw.files[f"sessions_{src}"]
        with ctx.untraced():
            parse_rate, _ = probe_rate(ctx, lambda: (
                len(data.load_sessions(path, fw.catalog, src)), None))

        # a failed cell has no report; its failure is counted above
        hits_cell = results.get(("da_lambda10", fw.brands[1], "cosine", "market"))
        hits = hits_cell[0].hits(100, "cosine", "in_brand") if hits_cell else 0.0
        return Outcome(
            metrics={
                "train_pairs_per_s": self.train_rate(fw),
                "eval_events_per_s": events / wall_s,
                "ingest_sessions_per_s": parse_rate,
                "hits100_da_target": hits,
                "closeness_da10": repro._mean_mapped_distance(
                    fw.spaces["da_lambda10"], fw.spaces["single_source"], fw.mapping),
            },
            checks=checks,
            sizes={"hotels": len(fw.catalog),
                   "sessions": sum(len(s) for sp in fw.splits.values() for s in sp),
                   "pairs": fw.train_pairs, "events": events})

    def _check_ranks(self, fw, cells, rng, checks):
        """A seeded sample of events per grid cell, ranked as one batch by
        the grid's path and one by one by rank_candidates."""
        by_brand = {b: evaluate.make_events(fw.splits[b][2], fw.catalog)
                    for b in fw.brands}
        for cell in cells:
            name, eval_brand, mode, pool = cell
            _, mp = _cell_setting(fw, name, eval_brand)
            pool_events = by_brand[eval_brand]
            if mp is not None:
                pool_events = [ev for ev in pool_events
                               if mp.to_source(ev.query) is not None]
            sample = interleave_markets(
                rng.sample(pool_events, min(RANK_CHECKS_PER_CELL, len(pool_events))))
            checks.op(f"ranks of {len(sample)} sampled events in {cell}",
                      lambda cell=cell, sample=sample: self._ranks_agree(fw, cell, sample))

    @staticmethod
    def _ranks_agree(fw, cell, events):
        """The grid's batched path against rank_candidates: every report row
        must equal the one the individual ranks give."""
        name, eval_brand, mode, pool = cell
        _, mp = _cell_setting(fw, name, eval_brand)
        space = fw.spaces[name]
        lookup = None
        if mp is not None:
            def lookup(hid):
                src = mp.to_source(hid)
                return None if src is None else space.vectors.get(src)
        ranks = [evaluate.rank_candidates(ev, space, fw.catalog, mode=mode,
                                          pool=pool, lookup=lookup).index(ev.truth) + 1
                 for ev in events]
        batch = data.SessionSet(eval_brand, [
            data.ClickSession(f"probe-{i}", eval_brand, ev.market_id, (ev.query, ev.truth))
            for i, ev in enumerate(events)])
        ks = (1, KS[0], KS[1], len(fw.catalog))
        rep, setting = eval_cell(fw, cell, batch, ks=ks)
        n = len(ranks)
        expected = {(k, mode, setting): {
            "hits": sum(1 for r in ranks if r <= k) / n,
            "mrr": math.fsum(1.0 / r for r in ranks if r <= k) / n,
            "n_events": n} for k in ks}
        return rep.rows == expected


# ---------------------------------------------------------------------------
# ingest

class Ingest(_FullWorldWorkload):
    """Parse the full world's files, split, build events, and write and
    re-read session, embedding and projection files; fit LP and Procrustes."""

    name = "ingest"

    def setup(self):
        return prepare_full_world(self.ctx, via_files=False)

    def timed(self, fw, i):
        files = fw.files
        out = os.path.join(self.ctx.workdir, "ingest")
        os.makedirs(out, exist_ok=True)
        catalog = data.load_catalog(files["catalog"])
        sessions = {b: data.load_sessions(files[f"sessions_{b}"], catalog, b)
                    for b in fw.brands}
        mapping = data.load_mapping(files["mapping"], catalog, catalog)
        parsed = sum(len(s) for s in sessions.values())
        splits = {b: data.split_sessions(sessions[b], repro.SPLIT_RATIOS,
                                         self.ctx.seed) for b in fw.brands}
        events = {b: evaluate.make_events(splits[b][2], catalog) for b in fw.brands}
        written, reread = {}, {}
        for b in fw.brands:
            path = written[f"test_{b}"] = os.path.join(out, f"test_{b}.jsonl")
            synth.write_sessions(splits[b][2], path)
            reread[f"test_{b}"] = data.load_sessions(path, catalog, b)
            parsed += len(reread[f"test_{b}"])
        for name, space in fw.spaces.items():
            path = written[name] = os.path.join(out, f"{name}.emb")
            model.write_embeddings(space, path)
            reread[name] = model.read_embeddings(path, brand=space.brand)
        s, t, _, _ = align.common_rows(reread["single_source"],
                                       reread["single_target"], mapping)
        for name, fit in (("lp", align.fit_linear_projection),
                          ("procrustes", align.fit_procrustes)):
            path = written[name] = os.path.join(out, f"{name}.proj")
            align.write_projection(fit(s, t), path)
            reread[name] = align.read_projection(path)
        projected = align.apply_projection(reread["single_source"], reread["lp"])
        return {"catalog": catalog, "sessions": sessions, "mapping": mapping,
                "events": events, "written": written, "reread": reread,
                "projected": projected, "parsed": parsed}

    def check(self, fw, out, walls):
        checks = Checks()
        wall_s = statistics.median(walls)
        scratch = os.path.join(self.ctx.workdir, "rewrite.tmp")
        files, written, reread = fw.files, out["written"], out["reread"]

        def same(path, write, obj):
            return lambda: _same_bytes(path, write, obj, scratch)

        checks.op("round trip catalog",
                  same(files["catalog"], synth.write_catalog, out["catalog"]))
        checks.op("round trip mapping",
                  same(files["mapping"], synth.write_mapping, out["mapping"]))
        for b in fw.brands:
            checks.op(f"round trip sessions_{b}",
                      same(files[f"sessions_{b}"], synth.write_sessions,
                           out["sessions"][b]))
            checks.op(f"round trip test_{b}",
                      same(written[f"test_{b}"], synth.write_sessions,
                           reread[f"test_{b}"]))
        for name, space in fw.spaces.items():
            checks.op(f"round trip {name}.emb",
                      same(written[name], model.write_embeddings, reread[name]))
            checks.op(f"re-read {name}.emb equals the space written",
                      lambda space=space, back=reread[name]:
                      space.vectors.keys() == back.vectors.keys()
                      and all(np.array_equal(v, back.vectors[h])
                              for h, v in space.vectors.items()))
        for name in ("lp", "procrustes"):
            checks.op(f"round trip {name}.proj",
                      same(written[name], align.write_projection, reread[name]))
        checks.op("projected space covers the source space",
                  lambda: len(out["projected"].vectors)
                  == len(reread["single_source"].vectors))

        # the re-read space must rank exactly as the one it was written from
        tgt = fw.brands[1]
        test = fw.splits[tgt][2]
        mem = evaluate.evaluate(test, fw.spaces["da_lambda10"], out["catalog"], ks=KS)

        def rank():
            rep = evaluate.evaluate(test, reread["da_lambda10"], out["catalog"], ks=KS)
            return rep.rows[(KS[0], "cosine", "in_brand")]["n_events"], rep
        with self.ctx.untraced():
            eval_rate, disk = probe_rate(self.ctx, rank)
        checks.op("re-read da_lambda10 evaluates identically",
                  lambda: mem.rows == disk.rows)
        return Outcome(
            metrics={
                "train_pairs_per_s": self.train_rate(fw),
                "eval_events_per_s": eval_rate,
                "ingest_sessions_per_s": out["parsed"] / wall_s,
                "hits100_da_target": disk.hits(100, "cosine", "in_brand"),
                "closeness_da10": repro._mean_mapped_distance(
                    reread["da_lambda10"], reread["single_source"], out["mapping"]),
            },
            checks=checks,
            sizes={"hotels": len(out["catalog"]), "sessions": out["parsed"],
                   "pairs": fw.train_pairs,
                   "events": sum(len(e) for e in out["events"].values())})


WORKLOADS = {w.name: w for w in (ReproQuick, EvalGrid, Ingest)}
