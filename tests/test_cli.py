"""End-to-end CLI tests; everything runs in-process through main()."""

import json
import os
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import brandalign
from brandalign import model, repro, synth
from brandalign.align import read_projection
from brandalign.cli import GEN_FLAGS, TRAIN_FLAGS, build_parser, main
from brandalign.data import load_catalog, load_sessions, split_sessions
from brandalign.model import read_embeddings


def test_package_imports_without_scipy():
    # the runtime needs numpy only; scipy is a test dependency
    env = dict(os.environ, PYTHONPATH=str(Path(brandalign.__file__).parents[1]))
    code = ("import sys, brandalign, brandalign.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("world")
    rc = main(["gen", "--out-dir", str(d), "--markets", "2",
               "--hotels-per-market", "12", "--sessions", "300",
               "--seed", "7"])
    assert rc == 0
    return d


def gen_args(d, **over):
    args = {"--out-dir": str(d), "--markets": "2", "--hotels-per-market": "12",
            "--sessions": "300", "--seed": "7"}
    args.update(over)
    out = ["gen"]
    for k, v in args.items():
        out += [k, v]
    return out


TRAIN_SMALL = ["--dim", "8", "--sub-dim", "4", "--epochs", "2", "--n-neg", "1"]


@pytest.fixture(scope="module")
def trained(world_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("emb")
    a_emb, b_emb = str(d / "A.emb"), str(d / "B.emb")
    for brand, out in (("A", a_emb), ("B", b_emb)):
        rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
                   "--sessions", str(world_dir / f"sessions_{brand}.jsonl"),
                   "--brand", brand, "--out", out] + TRAIN_SMALL)
        assert rc == 0
    return a_emb, b_emb


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_all_world_files(world_dir):
    for name in ("catalog.jsonl", "mapping.tsv", "world-meta.json",
                 "sessions_A.jsonl", "sessions_B.jsonl"):
        assert (world_dir / name).exists(), name
    lines = (world_dir / "catalog.jsonl").read_text().splitlines()
    assert len(lines) == 24


def test_gen_is_deterministic(tmp_path, world_dir):
    rc = main(gen_args(tmp_path))
    assert rc == 0
    for name in ("catalog.jsonl", "mapping.tsv", "sessions_A.jsonl",
                 "sessions_B.jsonl"):
        assert (tmp_path / name).read_bytes() == \
            (world_dir / name).read_bytes(), name


def test_gen_rejects_bad_overlap(tmp_path):
    assert main(gen_args(tmp_path, **{"--overlap": "1.5"})) == 2


def test_gen_rejects_bad_session_lengths(tmp_path):
    assert main(gen_args(tmp_path, **{"--min-len": "1"})) == 2


def test_gen_rejects_equal_brand_names(tmp_path, capsys):
    # before the check, sessions_A.jsonl held the second brand's sessions alone
    assert main(gen_args(tmp_path) + ["--brands", "A", "A"]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: brand names must differ, got ['A', 'A']\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_a_brand_name_holding_a_path_separator(tmp_path, capsys):
    # before the check, gen wrote the catalog, mapping, meta and brand A's
    # sessions, then failed to open sessions_B/C.jsonl
    assert main(gen_args(tmp_path) + ["--brands", "A", f"B{os.sep}C"]) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: brand names must not hold {os.sep!r}, got ['A', 'B{os.sep}C']\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_max_len_past_int64_is_one_error_line(tmp_path, capsys):
    # WorldConfig.validate refuses it before any file is written; it once
    # exited 1 with numpy's "high is out of bounds for int64" after the
    # catalog, mapping and meta were written
    rc = main(["gen", "--out-dir", str(tmp_path), "--sessions", "1",
               "--max-len", "1" + "0" * 30])
    assert rc == 2
    assert capsys.readouterr().err == ("usage error: session_length must be positive "
                                       "and below 2**63, got 1" + "0" * 30 + "\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["gen", "--latent-dim"], "latent_dim must be positive and below 2**63"),
    (["gen", "--sessions"], "n_sessions_per_brand must be positive and below 2**63"),
    (["gen", "--max-len"], "session_length must be positive and below 2**63"),
    (["train", "--catalog", "c.jsonl", "--sessions", "s.jsonl", "--brand", "A",
      "--out", "x.emb", "--dim"], "d must be below 2**63"),
], ids=["gen-latent-dim", "gen-sessions", "gen-max-len", "train-dim"])
def test_size_flag_past_int64_is_a_usage_error_naming_its_field(tmp_path, capsys,
                                                                 monkeypatch, argv, message):
    # gen --latent-dim 10**20 once ended in a TypeError traceback, --sessions
    # and --max-len in exit 1 after writing part of the world, and
    # train --dim in numpy's "Maximum allowed dimension exceeded"
    monkeypatch.chdir(tmp_path)
    assert main(argv + [str(10 ** 20)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}, got {10 ** 20}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, target", [("gen", (synth, "write_world")),
                                             ("repro", (repro, "run_repro"))])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command,
                                         target):
    # numpy's _ArrayMemoryError is a MemoryError; raised here, never allocated
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(*target, exhausted)
    assert main([command, "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {command}: out of memory\n"


def test_gen_writes_nothing_when_a_brands_sessions_run_out_of_memory(tmp_path, capsys,
                                                                     monkeypatch):
    # write_world once wrote the catalog, mapping, meta and brand A's
    # sessions before it generated brand B's
    generate_sessions = synth.generate_sessions

    def exhausted_for_b(world, brand, cfg):
        if brand == "B":
            raise MemoryError("Unable to allocate 7.28 TiB")
        return generate_sessions(world, brand, cfg)

    monkeypatch.setattr(synth, "generate_sessions", exhausted_for_b)
    assert main(gen_args(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: gen: out of memory\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_a_trillion_sessions_is_out_of_memory_at_once(tmp_path):
    # under a 2 GB address space the session arrays, allocated before any
    # draw, fail at once; draws appended to lists instead ran until killed
    env = dict(os.environ, PYTHONPATH=str(Path(brandalign.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONWARNINGS", None)
    limit = 2 * 1024 ** 3
    proc = subprocess.run(
        [sys.executable, "-m", "brandalign.cli", "gen", "--out-dir", str(tmp_path / "out"),
         "--markets", "2", "--hotels-per-market", "10", "--sessions", "1000000000000"],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr) == (1, "error: gen: out of memory\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# train

def test_train_writes_embeddings(trained, world_dir):
    a_emb, _ = trained
    space = read_embeddings(a_emb)
    assert space.dim == 8
    assert len(space.vectors) == 24
    for v in space.vectors.values():
        assert np.all(v >= 0.0)


def test_train_lambda_without_source_is_usage_error(world_dir, tmp_path):
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_B.jsonl"),
               "--brand", "B", "--out", str(tmp_path / "x.emb"),
               "--lambda", "1.0"] + TRAIN_SMALL)
    assert rc == 2


def test_train_regularized_run(world_dir, trained, tmp_path):
    a_emb, _ = trained
    out = str(tmp_path / "B_da.emb")
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_B.jsonl"),
               "--brand", "B", "--out", out,
               "--lambda", "0.5", "--reg-variant", "squared_norm",
               "--source-embeddings", a_emb,
               "--mapping", str(world_dir / "mapping.tsv")] + TRAIN_SMALL)
    assert rc == 0
    assert read_embeddings(out).dim == 8


def test_train_lambda_source_of_another_dim_names_the_file(world_dir, trained,
                                                          tmp_path, capsys):
    # before the check, the first mapped pair failed with a broadcast error
    a_emb, _ = trained
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_B.jsonl"),
               "--brand", "B", "--out", str(tmp_path / "x.emb"),
               "--lambda", "1.0", "--source-embeddings", a_emb,
               "--mapping", str(world_dir / "mapping.tsv")] + TRAIN_SMALL
              + ["--dim", "4"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: {a_emb}:1: source embedding dim 8 != --dim 4"


def test_train_missing_catalog_is_runtime_error(tmp_path, world_dir):
    rc = main(["train", "--catalog", str(tmp_path / "nope.jsonl"),
               "--sessions", str(world_dir / "sessions_A.jsonl"),
               "--brand", "A", "--out", str(tmp_path / "x.emb")] + TRAIN_SMALL)
    assert rc == 1


def test_train_rejects_nan_in_catalog(world_dir, tmp_path, capsys):
    # before the check, training ended in "non-finite loss nan at step ..."
    lines = (world_dir / "catalog.jsonl").read_text().splitlines()
    lines[2] = lines[2].replace('"amenities": [', '"amenities": [NaN, ', 1)
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--catalog", str(catalog),
               "--sessions", str(world_dir / "sessions_A.jsonl"),
               "--brand", "A", "--out", str(tmp_path / "x.emb")] + TRAIN_SMALL)
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {catalog}:3: hotel ") and "\n" not in err
    assert "non-finite amenity or geo entry" in err


def test_train_rejects_scalar_amenities_in_catalog(world_dir, tmp_path, capsys):
    # before the shape check, this ended in a TypeError traceback
    lines = (world_dir / "catalog.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["amenities"] = 5
    lines[2] = json.dumps(record)
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--catalog", str(catalog),
               "--sessions", str(world_dir / "sessions_A.jsonl"),
               "--brand", "A", "--out", str(tmp_path / "x.emb")] + TRAIN_SMALL)
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {catalog}:3: hotel ") and "\n" not in err
    assert "amenity entries must be a flat list of 8 numbers" in err


def test_train_without_pairs_is_runtime_error(world_dir, tmp_path, capsys):
    # a single session lands in val under the default 8:1:1 split
    first = (world_dir / "sessions_A.jsonl").read_text().splitlines()[0]
    one = tmp_path / "one.jsonl"
    one.write_text(first + "\n")
    out = tmp_path / "x.emb"
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(one), "--brand", "A", "--out", str(out)]
              + TRAIN_SMALL)
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: nothing to train on") and "\n" not in err
    assert not out.exists()


def test_train_rejects_a_hotel_id_with_whitespace(tmp_path, capsys):
    # it used to train and write the line "a b 0.0 ...", which eval then
    # read as hotel 'a' with one coordinate too many
    ids = ["a b", "c", "d", "e"]
    catalog, sessions, out = (tmp_path / n for n in ("catalog.jsonl",
                                                     "sessions.jsonl", "x.emb"))
    catalog.write_text("".join(json.dumps({"hotel_id": h, "market_id": "m",
                                           "amenities": [0.5], "geo": [0.0]}) + "\n"
                               for h in ids))
    sessions.write_text("".join(json.dumps({"session_id": f"s{i}", "brand": "A",
                                            "market_id": "m",
                                            "clicks": ids[i % 4:] + ids[:i % 4]}) + "\n"
                                for i in range(20)))
    rc = main(["train", "--catalog", str(catalog), "--sessions", str(sessions),
               "--brand", "A", "--out", str(out)] + TRAIN_SMALL)
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {catalog}:1: hotel 'a b': id is "
                                       f"empty or holds whitespace\n")
    assert not out.exists()


def test_train_lambda_source_without_a_mapped_hotel_fails_before_training(
        world_dir, trained, tmp_path, capsys):
    # the sessions never click h00000, so no pair targets it; the check once
    # ran only when a pair did, and this run exited 0
    a_emb, _ = trained
    _, *rows = Path(a_emb).read_text().splitlines()
    kept = [r for r in rows if r.split()[0] != "h00000"]
    source = tmp_path / "A.emb"
    source.write_text("\n".join([f"{len(kept)} 8", *kept]) + "\n")
    lines = (world_dir / "sessions_B.jsonl").read_text().splitlines()
    sessions = tmp_path / "sessions_B.jsonl"
    sessions.write_text("".join(line + "\n" for line in lines
                                if "h00000" not in json.loads(line)["clicks"]))
    assert "h00000\th00000" in (world_dir / "mapping.tsv").read_text()
    out = tmp_path / "B_da.emb"
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(sessions), "--brand", "B", "--out", str(out),
               "--lambda", "1", "--source-embeddings", str(source),
               "--mapping", str(world_dir / "mapping.tsv")] + TRAIN_SMALL)
    assert rc == 1
    assert capsys.readouterr().err == ("error: hotel 'h00000' is mapped but source "
                                       "space has no vector for 'h00000'\n")
    assert not out.exists()


def test_train_lambda_mapping_target_outside_the_catalog_names_the_line(
        world_dir, trained, tmp_path, capsys):
    # with no target in the catalog, the regularizer once did nothing and the
    # run exited 0 with the plain run's embeddings
    a_emb, _ = trained
    lines = (world_dir / "mapping.tsv").read_text().splitlines()
    assert lines[0] == "h00000\th00000"
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text("".join(f"{src}\tX{tgt[1:]}\n"
                               for src, tgt in (line.split("\t") for line in lines)))
    out = tmp_path / "B_da.emb"
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_B.jsonl"),
               "--brand", "B", "--out", str(out), "--lambda", "1",
               "--source-embeddings", a_emb, "--mapping", str(mapping)] + TRAIN_SMALL)
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {mapping}:1: unknown target hotel "
                                       f"'X00000'\n")
    assert not out.exists()


def test_train_lambda_with_an_empty_mapping_fails_before_training(
        world_dir, trained, tmp_path, capsys):
    # with no pair the regularizer does nothing: the run once trained the
    # plain model and exited 0
    a_emb, _ = trained
    mapping = tmp_path / "empty.tsv"
    mapping.write_text("")
    out = tmp_path / "B_da.emb"
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_B.jsonl"),
               "--brand", "B", "--out", str(out), "--lambda", "1",
               "--source-embeddings", a_emb, "--mapping", str(mapping)] + TRAIN_SMALL)
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {mapping}: mapping holds no hotel "
                                       f"pair to regularize\n")
    assert not out.exists()


def test_train_bad_ratios_is_usage_error(world_dir, tmp_path, capsys):
    # a:b:c, nan:1:1, -1:1:1, 0:0:0 and 1e308:1e308:1, whose sum overflows,
    # used to exit 1 with a message that named no flag
    for ratios in ("8:1", "a:b:c", "nan:1:1", "inf:1:1", "-1:1:1", "0:0:0", "1e308:1e308:1"):
        rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
                   "--sessions", str(world_dir / "sessions_A.jsonl"),
                   "--brand", "A", "--out", str(tmp_path / "x.emb"),
                   f"--ratios={ratios}"] + TRAIN_SMALL)
        assert rc == 2, ratios
        assert capsys.readouterr().err == (
            f"usage error: --ratios must be train:val:test numbers, finite, "
            f"nonnegative and with a positive sum, got {ratios!r}\n")


_RATIOS_8_1 = ("usage error: --ratios must be train:val:test numbers, finite, "
               "nonnegative and with a positive sum, got '8:1'\n")


def test_train_bad_ratios_is_usage_error_before_any_file_is_read(tmp_path, capsys):
    # the catalog used to be read first: a missing one exited 1 naming it
    out = tmp_path / "x.emb"
    rc = main(["train", "--catalog", str(tmp_path / "nope.jsonl"),
               "--sessions", str(tmp_path / "nope.jsonl"), "--brand", "A",
               "--out", str(out), "--ratios", "8:1"] + TRAIN_SMALL)
    assert rc == 2
    assert capsys.readouterr().err == _RATIOS_8_1
    assert not out.exists()


def test_eval_bad_ratios_without_split_is_usage_error(world_dir, trained, tmp_path,
                                                      capsys):
    # without --split the flag used to go unread, and eval exited 0
    out = tmp_path / "m.jsonl"
    rc = main(eval_args(world_dir, trained[0], "A", out, "--ratios", "8:1"))
    assert rc == 2
    assert capsys.readouterr().err == _RATIOS_8_1
    assert not out.exists()


def test_eval_cross_brand_without_mapping_is_usage_error_before_any_file_is_read(
        tmp_path, capsys):
    # the catalog, sessions and embeddings used to be read first: a missing
    # catalog exited 1 naming it
    out = tmp_path / "m.jsonl"
    missing = str(tmp_path / "nope.jsonl")
    rc = main(["eval", "--catalog", missing, "--sessions", missing, "--brand", "B",
               "--embeddings", str(tmp_path / "nope.emb"), "--cross-brand",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "usage error: --cross-brand requires --mapping\n"
    assert not out.exists()


def test_non_finite_float_settings_are_usage_errors(world_dir, tmp_path, capsys):
    # nan passed every `< 0` check: train --lambda nan trained as lambda 0,
    # and gen --bias nan wrote sessions that clicked 4 of 20 hotels
    train = ["train", "--catalog", str(world_dir / "catalog.jsonl"),
             "--sessions", str(world_dir / "sessions_A.jsonl"),
             "--brand", "A", "--out", str(tmp_path / "x.emb")] + TRAIN_SMALL
    for value in ("nan", "inf"):
        for argv in (train + ["--lambda", value], train + ["--lr", value],
                     train + ["--l2", value],
                     gen_args(tmp_path / "world", **{"--bias": value})):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and err.count("\n") == 1, argv
    assert list(tmp_path.iterdir()) == []


def test_diverging_train_is_one_error_line_without_numpy_warnings(world_dir,
                                                                 tmp_path, capsys):
    # numpy's overflow warnings once went to stderr ahead of the error line;
    # pytest records warnings instead of printing them, so record them here
    train = ["train", "--catalog", str(world_dir / "catalog.jsonl"),
             "--sessions", str(world_dir / "sessions_A.jsonl"),
             "--brand", "A", "--out", str(tmp_path / "x.emb")] + TRAIN_SMALL
    for flag in ("--lr", "--l2"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(train + [flag, "1e300"]) == 1, flag
        assert [str(w.message) for w in caught] == [], flag
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss ") and err.count("\n") == 1, flag
    assert list(tmp_path.iterdir()) == []


def test_gen_bias_past_float_range_is_one_error_line(tmp_path, capsys):
    # gen --bias 1000 once exited 0 with NaN click CDFs: brand A's sessions
    # clicked 4 of 20 hotels
    argv = gen_args(tmp_path / "world", **{"--markets": "2", "--hotels-per-market": "10",
                                           "--seed": "1", "--bias": "1000"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("error: brand_bias_strength 1000.0 puts the click "
                                       "weights of brand 'A' past float range\n")
    assert list(tmp_path.iterdir()) == []


def test_train_curve_file(world_dir, tmp_path):
    curve = tmp_path / "curve.jsonl"
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_A.jsonl"),
               "--brand", "A", "--out", str(tmp_path / "x.emb"),
               "--eval-every", "100", "--curve-file", str(curve)]
              + TRAIN_SMALL)
    assert rc == 0
    rows = [json.loads(line) for line in curve.read_text().splitlines()]
    assert rows and all({"step", "hits@10", "hits@100"} <= set(r) for r in rows)


@pytest.mark.parametrize("eval_every", ["50", "100000"])
def test_train_curve_file_with_an_empty_test_split_fails_before_training(
        world_dir, tmp_path, capsys, eval_every):
    # the run once trained up to its first checkpoint and failed there, or,
    # with no checkpoint in the stream, exited 0 with an empty curve file
    out, curve = tmp_path / "x.emb", tmp_path / "curve.jsonl"
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_A.jsonl"),
               "--brand", "A", "--out", str(out), "--ratios", "1:0:0",
               "--eval-every", eval_every, "--curve-file", str(curve)]
              + TRAIN_SMALL)
    assert rc == 1
    assert capsys.readouterr().err == ("error: the test split has no prediction "
                                       "events for the curve\n")
    assert list(tmp_path.iterdir()) == []


def test_train_prints_the_last_epoch_loss_and_writes_the_repro_curve(
        world_dir, tmp_path, capsys):
    curve = tmp_path / "curve.jsonl"
    rc = main(["train", "--catalog", str(world_dir / "catalog.jsonl"),
               "--sessions", str(world_dir / "sessions_A.jsonl"),
               "--brand", "A", "--out", str(tmp_path / "x.emb"),
               "--eval-every", "100", "--curve-file", str(curve)]
              + TRAIN_SMALL)
    assert rc == 0
    catalog = load_catalog(world_dir / "catalog.jsonl")
    sessions = load_sessions(world_dir / "sessions_A.jsonl", catalog, "A")
    train_s, _, test_s = split_sessions(sessions, (8.0, 1.0, 1.0), 42)
    rows = []
    params = model.train(train_s, catalog,
                         model.TrainConfig(sub_dim=4, d=8, n_neg=1, epochs=2,
                                           seed=42, eval_every=100),
                         curve_sink=repro._curve_sink(test_s, catalog, 42, rows))
    assert (f"final train loss (mean per pair, last epoch): "
            f"{params.epoch_losses[-1]:.6f}\n") in capsys.readouterr().out
    assert rows
    assert [json.loads(line) for line in curve.read_text().splitlines()] == rows


# ---------------------------------------------------------------------------
# align

def test_align_lp_and_procrustes(world_dir, trained, tmp_path):
    a_emb, b_emb = trained
    for method in ("lp", "procrustes"):
        out = tmp_path / f"{method}.proj"
        rc = main(["align", "--source-emb", a_emb, "--target-emb", b_emb,
                   "--mapping", str(world_dir / "mapping.tsv"),
                   "--method", method, "--out", str(out)])
        assert rc == 0
        proj = read_projection(out)
        assert proj.w.shape == (8, 8)
    q = read_projection(tmp_path / "procrustes.proj").w
    assert np.max(np.abs(q.T @ q - np.eye(8))) < 1e-8


def test_align_self_residual_near_zero(world_dir, trained, tmp_path, capsys):
    a_emb, _ = trained
    out = tmp_path / "self.proj"
    rc = main(["align", "--source-emb", a_emb, "--target-emb", a_emb,
               "--mapping", str(world_dir / "mapping.tsv"),
               "--method", "lp", "--out", str(out)])
    assert rc == 0
    residual = float(capsys.readouterr().out.rsplit("residual", 1)[1])
    assert residual < 1e-6


def test_align_repeated_mapping_target_names_the_line(world_dir, trained,
                                                     tmp_path, capsys):
    a_emb, b_emb = trained
    lines = (world_dir / "mapping.tsv").read_text().splitlines()
    target = lines[0].split("\t")[1]
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text("\n".join(lines + [f"extra\t{target}"]) + "\n")
    rc = main(["align", "--source-emb", a_emb, "--target-emb", b_emb,
               "--mapping", str(mapping), "--out", str(tmp_path / "w.proj")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == (f"error: {mapping}:{len(lines) + 1}: mapping not injective: "
                   f"target {target!r} repeated from line 1")


def test_align_empty_mapping_names_the_file(world_dir, trained, tmp_path, capsys):
    # the error once read "empty mapping: no common rows", naming no file
    a_emb, b_emb = trained
    mapping = tmp_path / "empty.tsv"
    mapping.write_text("")
    out = tmp_path / "w.proj"
    rc = main(["align", "--source-emb", a_emb, "--target-emb", b_emb,
               "--mapping", str(mapping), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {mapping}: mapping holds no hotel "
                                       f"pair to align\n")
    assert not out.exists()


def test_align_spaces_sharing_no_id_name_both_files(world_dir, trained, tmp_path, capsys):
    # the error once read "zero common rows between the two spaces", naming
    # neither file
    a_emb, b_emb = trained
    header, *rows = open(b_emb).read().splitlines()
    renamed = tmp_path / "renamed.emb"
    renamed.write_text("\n".join([header] + ["X" + row for row in rows]) + "\n")
    out = tmp_path / "w.proj"
    rc = main(["align", "--source-emb", a_emb, "--target-emb", str(renamed),
               "--mapping", str(world_dir / "mapping.tsv"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {a_emb}, {renamed}: zero common rows "
                                       f"between the two spaces\n")
    assert not out.exists()


def test_align_missing_file_is_runtime_error(world_dir, tmp_path):
    rc = main(["align", "--source-emb", str(tmp_path / "no.emb"),
               "--target-emb", str(tmp_path / "no.emb"),
               "--mapping", str(world_dir / "mapping.tsv"),
               "--out", str(tmp_path / "w.proj")])
    assert rc == 1


# ---------------------------------------------------------------------------
# eval

def eval_args(world_dir, emb, brand, out, *extra):
    return ["eval", "--catalog", str(world_dir / "catalog.jsonl"),
            "--sessions", str(world_dir / f"sessions_{brand}.jsonl"),
            "--brand", brand, "--embeddings", emb, "--out", str(out)] \
        + list(extra)


def test_eval_writes_metric_rows(world_dir, trained, tmp_path):
    a_emb, _ = trained
    out = tmp_path / "metrics.jsonl"
    rc = main(eval_args(world_dir, a_emb, "A", out, "--k", "1", "--k", "5"))
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    cells = [r for r in rows if "metadata" not in r]
    assert [(r["k"], r["mode"], r["setting"]) for r in cells] == \
        [(1, "cosine", "in_brand"), (5, "cosine", "in_brand")]
    for r in cells:
        assert 0.0 <= r["mrr"] <= r["hits"] <= 1.0


def test_eval_split_subsets_events(world_dir, trained, tmp_path):
    a_emb, _ = trained
    full, test = tmp_path / "full.jsonl", tmp_path / "test.jsonl"
    assert main(eval_args(world_dir, a_emb, "A", full)) == 0
    assert main(eval_args(world_dir, a_emb, "A", test,
                          "--split", "test")) == 0
    n_full = json.loads(full.read_text().splitlines()[0])["n_events"]
    n_test = json.loads(test.read_text().splitlines()[0])["n_events"]
    assert 0 < n_test < n_full


def test_eval_cross_brand(world_dir, trained, tmp_path):
    _, b_emb = trained
    out = tmp_path / "cross.jsonl"
    rc = main(eval_args(world_dir, b_emb, "A", out, "--cross-brand",
                        "--mapping", str(world_dir / "mapping.tsv")))
    assert rc == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert row["setting"] == "cross_brand"


def test_eval_cross_brand_mapping_target_outside_the_catalog_names_the_line(
        world_dir, trained, tmp_path, capsys):
    # a renamed target once left its hotel unmapped, and eval exited 0 with
    # metrics over fewer events
    a_emb, _ = trained
    lines = (world_dir / "mapping.tsv").read_text().splitlines()
    assert lines[0] == "h00000\th00000"
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text("\n".join(["h00000\tX00000"] + lines[1:]) + "\n")
    out = tmp_path / "cross.jsonl"
    rc = main(eval_args(world_dir, a_emb, "B", out, "--cross-brand",
                        "--mapping", str(mapping)))
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {mapping}:1: unknown target hotel "
                                       f"'X00000'\n")
    assert not out.exists()


def test_eval_cross_brand_empty_mapping_names_the_file(world_dir, trained, tmp_path,
                                                       capsys):
    # the error once read "no evaluable events: every query was unmapped",
    # naming no file
    a_emb, _ = trained
    mapping = tmp_path / "empty.tsv"
    mapping.write_text("")
    out = tmp_path / "cross.jsonl"
    rc = main(eval_args(world_dir, a_emb, "B", out, "--cross-brand",
                        "--mapping", str(mapping)))
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {mapping}: mapping holds no hotel "
                                       f"pair to evaluate across brands\n")
    assert not out.exists()


def test_eval_embeddings_lacking_a_query_hotel_names_the_file(world_dir, trained,
                                                              tmp_path, capsys):
    # the error once read "query hotel 'h00017' missing from space", naming
    # no file
    a_emb, _ = trained
    header, *rows = open(a_emb).read().splitlines()
    few = tmp_path / "few.emb"
    few.write_text("\n".join([f"5 {header.split()[1]}"] + rows[:5]) + "\n")
    out = tmp_path / "few.jsonl"
    rc = main(eval_args(world_dir, str(few), "A", out))
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(few))}: query hotel 'h\\d+' missing "
                        f"from space\n", err), err
    assert not out.exists()


def test_eval_cross_brand_requires_mapping(world_dir, trained, tmp_path):
    _, b_emb = trained
    rc = main(eval_args(world_dir, b_emb, "A", tmp_path / "x.jsonl",
                        "--cross-brand"))
    assert rc == 2


def test_eval_missing_threshold_exceeded(world_dir, trained, tmp_path):
    # a mapping covering almost nothing -> nearly all queries skipped
    _, b_emb = trained
    space = read_embeddings(b_emb)
    some_id = sorted(space.vectors)[0]
    mapping_path = tmp_path / "tiny-mapping.tsv"
    mapping_path.write_text(f"{some_id}\t{some_id}\n")
    rc = main(eval_args(world_dir, b_emb, "A", tmp_path / "x.jsonl",
                        "--cross-brand", "--mapping", str(mapping_path)))
    assert rc == 1


def test_eval_apply_projection_identity_roundtrip(world_dir, trained, tmp_path):
    # projecting through the identity must reproduce the plain eval exactly
    a_emb, _ = trained
    proj_path = tmp_path / "identity.proj"
    with open(proj_path, "w") as fh:
        fh.write("8 8 least_squares\n")
        for row in np.eye(8):
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    plain, proj = tmp_path / "plain.jsonl", tmp_path / "proj.jsonl"
    assert main(eval_args(world_dir, a_emb, "A", plain)) == 0
    assert main(eval_args(world_dir, a_emb, "A", proj,
                          "--apply-projection", str(proj_path))) == 0
    strip = lambda p: [json.loads(line) for line in p.read_text().splitlines()
                       if "metadata" not in json.loads(line)]
    assert strip(plain) == strip(proj)


def test_eval_orthogonal_projection_preserves_cosine_metrics(
        world_dir, tmp_path):
    # any orthogonal map is an isometry, so cosine metrics cannot change.
    # Use a generic random space: trained ReLU embeddings can contain exact
    # duplicates whose id-based tie-breaks dissolve under the rotation.
    rng = np.random.default_rng(0)
    catalog_ids = [json.loads(line)["hotel_id"]
                   for line in (world_dir / "catalog.jsonl").read_text().splitlines()]
    a_emb = str(tmp_path / "R.emb")
    with open(a_emb, "w") as fh:
        fh.write(f"{len(catalog_ids)} 8\n")
        for hid in sorted(catalog_ids):
            vec = rng.normal(size=8)
            fh.write(hid + " " + " ".join(repr(float(x)) for x in vec) + "\n")
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    proj_path = tmp_path / "rot.proj"
    with open(proj_path, "w") as fh:
        fh.write("8 8 orthogonal\n")
        for row in q:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    plain, rot = tmp_path / "plain.jsonl", tmp_path / "rot.jsonl"
    assert main(eval_args(world_dir, a_emb, "A", plain)) == 0
    assert main(eval_args(world_dir, a_emb, "A", rot,
                          "--apply-projection", str(proj_path))) == 0
    get = lambda p: [(json.loads(line)["k"],
                      round(json.loads(line)["hits"], 9),
                      round(json.loads(line)["mrr"], 9))
                     for line in p.read_text().splitlines()
                     if "metadata" not in json.loads(line)]
    assert get(plain) == get(rot)


def test_eval_cross_market_truth_counts_as_miss(world_dir, trained, tmp_path):
    a_emb, _ = trained
    catalog = [json.loads(line)
               for line in (world_dir / "catalog.jsonl").read_text().splitlines()]
    by_market = {}
    for rec in catalog:
        by_market.setdefault(rec["market_id"], []).append(rec["hotel_id"])
    (m0, (q, t)), (m1, (far, _)) = [(m, ids[:2]) for m, ids in sorted(by_market.items())]
    sessions = tmp_path / "cross.jsonl"
    sessions.write_text(json.dumps({"session_id": "s0", "brand": "A",
                                    "market_id": m0, "clicks": [q, far]}) + "\n"
                        + json.dumps({"session_id": "s1", "brand": "A",
                                      "market_id": m0, "clicks": [q, t]}) + "\n")
    out = tmp_path / "metrics.jsonl"
    with pytest.warns(UserWarning, match="outside market"):
        rc = main(["eval", "--catalog", str(world_dir / "catalog.jsonl"),
                   "--sessions", str(sessions), "--brand", "A",
                   "--embeddings", a_emb, "--out", str(out), "--k", "100"])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[-1]["metadata"]["truth_outside_pool"] == 1
    # the in-market event is a hit at k=100 (12-hotel market), the other a miss
    assert rows[0]["n_events"] == 2 and rows[0]["hits"] == 0.5


def test_eval_outside_market_clicks_are_one_warning_line(world_dir, trained,
                                                        tmp_path):
    # a warning goes to stderr outside pytest's capture: run the CLI in a
    # fresh interpreter
    a_emb, _ = trained
    lines = (world_dir / "sessions_A.jsonl").read_text().splitlines()[:20]
    records = [json.loads(line) for line in lines]
    markets = sorted({r["market_id"] for r in records})
    for r in records[:3]:  # three sessions moved to another market
        r["market_id"] = markets[1 - markets.index(r["market_id"])]
    sessions = tmp_path / "moved.jsonl"
    sessions.write_text("".join(json.dumps(r) + "\n" for r in records))
    outside = sum(len(r["clicks"]) for r in records[:3])
    env = dict(os.environ, PYTHONPATH=str(Path(brandalign.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "brandalign.cli", "eval", "--catalog",
         str(world_dir / "catalog.jsonl"), "--sessions", str(sessions),
         "--brand", "A", "--embeddings", a_emb, "--out", str(tmp_path / "m.jsonl")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first = records[0]
    assert proc.stderr.splitlines() == [
        f"warning: {sessions}:1: session {first['session_id']!r} click "
        f"{first['clicks'][0]!r} is outside market {first['market_id']!r} "
        f"({outside} click(s) in this file are outside their session's market)"]


def test_eval_without_cross_market_clicks_has_no_outside_count(world_dir, trained,
                                                               tmp_path):
    a_emb, _ = trained
    out = tmp_path / "metrics.jsonl"
    assert main(eval_args(world_dir, a_emb, "A", out)) == 0
    assert "truth_outside_pool" not in out.read_text()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_eval_non_finite_embedding_is_runtime_error(world_dir, trained, tmp_path,
                                                    capsys, bad):
    a_emb, _ = trained
    lines = open(a_emb).read().splitlines()
    parts = lines[2].split()
    lines[2] = " ".join([parts[0], bad] + parts[2:])
    corrupt = tmp_path / "corrupt.emb"
    corrupt.write_text("\n".join(lines) + "\n")
    rc = main(eval_args(world_dir, str(corrupt), "A", tmp_path / "x.jsonl"))
    assert rc == 1
    assert "corrupt.emb:3: non-finite" in capsys.readouterr().err


def test_eval_overflowing_embedding_norm_is_runtime_error(world_dir, trained,
                                                         tmp_path, capsys):
    # finite coordinates whose squared norm overflows scored NaN cosines
    a_emb, _ = trained
    lines = open(a_emb).read().splitlines()
    parts = lines[2].split()
    lines[2] = " ".join([parts[0], "1e200"] + parts[2:])
    corrupt = tmp_path / "huge.emb"
    corrupt.write_text("\n".join(lines) + "\n")
    rc = main(eval_args(world_dir, str(corrupt), "A", tmp_path / "x.jsonl"))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"huge.emb:3: squared norm of {parts[0]!r} overflows" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_eval_overflowing_projected_norm_is_runtime_error(world_dir, trained,
                                                          tmp_path, capsys):
    # a finite projection that maps finite rows to overflowing ones scored
    # NaN cosines, warned five times and exited 0
    a_emb, _ = trained
    rows = [line.split() for line in open(a_emb).read().splitlines()[1:]]
    first = next(r[0] for r in rows if any(float(x) for x in r[1:]))
    proj_path = tmp_path / "big.proj"
    with open(proj_path, "w") as fh:
        fh.write("8 8 least_squares\n")
        for row in np.eye(8) * 1e200:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    rc = main(eval_args(world_dir, a_emb, "A", tmp_path / "x.jsonl",
                        "--apply-projection", str(proj_path)))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"big.proj: squared norm of projected {first!r} overflows" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_eval_repeated_hotel_in_embeddings_names_both_lines(world_dir, trained,
                                                           tmp_path, capsys):
    # the header count is raised to match, so only the repeat check rejects it
    a_emb, _ = trained
    lines = open(a_emb).read().splitlines()
    count, dim = map(int, lines[0].split())
    first = lines[1].split()[0]
    lines[0] = f"{count + 1} {dim}"
    lines.append(" ".join([first] + ["9.0"] * dim))
    corrupt = tmp_path / "repeat.emb"
    corrupt.write_text("\n".join(lines) + "\n")
    rc = main(eval_args(world_dir, str(corrupt), "A", tmp_path / "x.jsonl"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {corrupt}:{count + 2}: hotel {first!r} repeated from line 2\n"


@pytest.mark.parametrize("which, name", [("sessions", "sessions_A.jsonl"),
                                         ("catalog", "catalog.jsonl")])
def test_eval_integer_of_too_many_digits_names_the_line(world_dir, trained,
                                                        tmp_path, capsys, which, name):
    # json's int() raises a plain ValueError past 4,300 digits, not a
    # JSONDecodeError
    a_emb, _ = trained
    big = tmp_path / name
    first = (world_dir / name).read_text().splitlines()[0]
    big.write_text(f'{first}\n{{"session_id": {"9" * 5000}}}\n')
    args = eval_args(world_dir, a_emb, "A", tmp_path / "x.jsonl")
    args[args.index(f"--{which}") + 1] = str(big)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {big}:2: malformed record: Exceeds the limit")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("which, text", [
    ("embeddings", "2 x\nh0 0.1 0.2\n"),
    ("projection", "8 8 orthogonal\n"),
])
def test_eval_malformed_input_names_the_file(world_dir, trained, tmp_path, capsys,
                                             which, text):
    a_emb, _ = trained
    bad = tmp_path / f"malformed.{which}"
    bad.write_text(text)
    if which == "embeddings":
        args = eval_args(world_dir, str(bad), "A", tmp_path / "x.jsonl")
    else:
        args = eval_args(world_dir, a_emb, "A", tmp_path / "x.jsonl",
                         "--apply-projection", str(bad))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"malformed.{which}:1:" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("which", ["sessions", "catalog"])
def test_eval_record_nested_past_the_recursion_limit_is_one_line(
        world_dir, trained, tmp_path, capsys, which):
    # json's RecursionError used to escape as a traceback
    a_emb, _ = trained
    deep = tmp_path / f"deep_{which}.jsonl"
    deep.write_text("[" * 200_000 + "\n")
    args = eval_args(world_dir, a_emb, "A", tmp_path / "x.jsonl")
    args[args.index(f"--{which}") + 1] = str(deep)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}:1: malformed record: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("k", ["0", "-3"])
def test_eval_k_below_one_is_usage_error(world_dir, trained, tmp_path, capsys, k):
    # --k 0 used to exit 1 with "error: k must be >= 1", naming no flag
    out = tmp_path / "x.jsonl"
    rc = main(eval_args(world_dir, trained[0], "A", out, "--k", "10", "--k", k))
    assert rc == 2
    assert capsys.readouterr().err == f"usage error: --k must be >= 1, got {k}\n"
    assert not out.exists()


@pytest.mark.parametrize("pool", ["market", "global"])
def test_eval_k_past_int64_reads_every_rank(world_dir, trained, tmp_path, capsys, pool):
    # --k 10**20 used to end in an OverflowError traceback from the rank cap;
    # now it is the row of any k past the pool, such as 1000
    rows = {}
    for k in ("1000", str(10 ** 20)):
        out = tmp_path / f"k{k}.jsonl"
        assert main(eval_args(world_dir, trained[0], "A", out, "--k", "10",
                              "--k", k, "--pool", pool)) == 0
        rows[k] = [json.loads(line) for line in out.read_text().splitlines()]
    assert capsys.readouterr().err == ""
    deep, huge = rows["1000"], rows[str(10 ** 20)]
    assert [r.get("k") for r in huge[:2]] == [10, 10 ** 20]
    assert [{**r, "k": None} for r in huge] == [{**r, "k": None} for r in deep]


def test_eval_missing_embeddings_file(world_dir, tmp_path):
    rc = main(eval_args(world_dir, str(tmp_path / "no.emb"), "A",
                        tmp_path / "x.jsonl"))
    assert rc == 1


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_eval_missing_threshold_out_of_range_is_usage_error(tmp_path, capsys,
                                                            threshold):
    # nan turned the missing-query check off, and a negative value failed
    # every cross-brand run; no file is read before the check
    out = tmp_path / "x.jsonl"
    rc = main(eval_args(tmp_path, str(tmp_path / "no.emb"), "A", out,
                        "--cross-brand", "--mapping", str(tmp_path / "no.tsv"),
                        "--missing-threshold", threshold))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"usage error: --missing-threshold must be in [0, 1], "
        f"got {float(threshold)}\n")
    assert not out.exists()


def test_eval_missing_threshold_bounds_still_run(world_dir, trained, tmp_path,
                                                 capsys):
    _, b_emb = trained
    space = read_embeddings(b_emb)
    some_id = sorted(space.vectors)[0]
    tiny = tmp_path / "tiny-mapping.tsv"
    tiny.write_text(f"{some_id}\t{some_id}\n")
    # 1 accepts any share of skipped queries
    out = tmp_path / "one.jsonl"
    assert main(eval_args(world_dir, b_emb, "A", out, "--cross-brand",
                          "--mapping", str(tiny), "--missing-threshold", "1")) == 0
    assert out.exists()
    # 0 accepts none; the full mapping leaves unmapped source hotels out
    capsys.readouterr()
    assert main(eval_args(world_dir, b_emb, "A", tmp_path / "zero.jsonl",
                          "--cross-brand", "--mapping", str(world_dir / "mapping.tsv"),
                          "--missing-threshold", "0")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(
        "queries lack embeddings (threshold 0.0)\n") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# repro

def test_repro_violations_exit_3_with_one_line_each(tmp_path, monkeypatch, capsys):
    # a tiny world, patched in as the benchmark's self-test does, whose
    # eval_every lies beyond every training stream: no curve checkpoint
    seed_cfg = repro.reference_train_config

    def train_cfg(seed, quick=False):
        return replace(seed_cfg(seed, quick), epochs=1, eval_every=10**9)

    monkeypatch.setattr(repro, "reference_world_config", lambda seed=42, quick=False:
                        synth.WorldConfig(n_markets=2, hotels_per_market=30,
                                          latent_dim=8, d_a_in=8, d_g_in=2,
                                          n_sessions_per_brand=300, seed=seed))
    monkeypatch.setattr(repro, "reference_train_config", train_cfg)
    monkeypatch.setattr(repro, "target_train_config",
                        lambda seed, quick=False: replace(train_cfg(seed), epochs=2))
    out = tmp_path / "repro"
    assert main(["repro", "--out-dir", str(out), "--quick"]) == 3
    captured = capsys.readouterr()
    violations = json.loads((out / "repro-summary.json").read_text())["violations"]
    assert violations[-1] == "curves missing: eval_every larger than the epoch stream"
    assert captured.err.splitlines() == [f"ORDERING VIOLATION: {v}" for v in violations]
    rows = [json.loads(line) for line in captured.out.splitlines()
            if line.startswith("{")]
    cells = [(name, brand, "cosine")
             for name in ("single_source", "single_target", "lp_projected",
                          "da_lambda10", "da_lambda05") for brand in "AB"]
    cells += [("single_target", "B", "model"), ("da_lambda10", "B", "model")]
    assert [(r["embeddings"], r["eval_brand"], r["mode"], r["k"]) for r in rows] == \
        [(*cell, k) for cell in cells for k in (10, 100)]
    assert len(rows) == 24 and all(len(r) == 8 for r in rows)
    assert rows == [json.loads(line)
                    for line in (out / "report.jsonl").read_text().splitlines()]


# ---------------------------------------------------------------------------
# flags and parsing

TRAIN_REQUIRED = ["train", "--catalog", "c.jsonl", "--sessions", "s.jsonl",
                  "--brand", "A", "--out", "x.emb"]


@pytest.mark.parametrize("argv", [
    TRAIN_REQUIRED + ["--bogus", "1"],                    # unknown flag
    TRAIN_REQUIRED + ["--epochs", "x"],                   # malformed value
    TRAIN_REQUIRED[:-2],                                  # missing required flag
    ["eval", "--catalog", "c", "--sessions", "s", "--brand", "A",
     "--embeddings", "e", "--mode", "bogus"],             # invalid choice
    [],                                                   # no subcommand
], ids=["unknown-flag", "epochs-x", "missing-out", "mode-bogus", "no-command"])
def test_malformed_command_line_is_one_usage_line(argv, capsys):
    # argparse used to print its usage block and raise SystemExit out of main
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("flag", ["--reg-variant", "--optimizer"])
def test_train_unknown_variant_is_usage_error(flag, capsys):
    # TrainConfig.validate owns the allowed values
    assert main(TRAIN_REQUIRED + [flag, "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown ") and err.count("\n") == 1


def test_flag_defaults_are_the_config_defaults():
    train = build_parser().parse_args(TRAIN_REQUIRED)
    for flag, name in TRAIN_FLAGS.items():
        assert getattr(train, name) == getattr(model.TrainConfig(), name), flag
    gen = build_parser().parse_args(["gen"])
    world = synth.WorldConfig()
    for flag, name in GEN_FLAGS.items():
        assert getattr(gen, name) == getattr(world, name), flag
    assert (gen.min_len, gen.max_len) == world.session_length
    assert tuple(gen.brands) == world.brands


def _help_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))


def test_flag_sets_are_unchanged(capsys):
    assert _help_flags("gen", capsys) == {
        "--help", "--out-dir", "--markets", "--hotels-per-market", "--latent-dim",
        "--amenity-dim", "--geo-dim", "--sessions", "--min-len", "--max-len",
        "--bias", "--overlap", "--seed", "--brands"}
    assert _help_flags("train", capsys) == {
        "--help", "--catalog", "--sessions", "--brand", "--out", "--ratios",
        "--seed", "--source-embeddings", "--mapping", "--curve-file", "--dim",
        "--sub-dim", "--window", "--n-neg", "--lr", "--epochs", "--l2",
        "--lambda", "--reg-variant", "--optimizer", "--eval-every"}
    assert _help_flags("eval", capsys) == {
        "--help", "--catalog", "--sessions", "--brand", "--embeddings", "--out",
        "--mode", "--k", "--pool", "--cross-brand", "--mapping",
        "--apply-projection", "--split", "--ratios", "--seed",
        "--missing-threshold"}
