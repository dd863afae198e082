import numpy as np
import pytest
import scipy.linalg

from brandalign.align import (ProjectionMatrix, apply_projection, common_rows,
                              fit_linear_projection, fit_procrustes,
                              read_projection, write_projection)
from brandalign.data import BrandMapping, DataError
from brandalign.model import EmbeddingSpace


def random_spaces(seed, n=12, d=4, noise=0.0):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n, d))
    w = rng.normal(size=(d, d))
    t = s @ w + noise * rng.normal(size=(n, d))
    return s, t, w


def random_orthogonal(seed, d=4):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def space_from(matrix, brand, prefix):
    return EmbeddingSpace(brand, [f"{prefix}{i}" for i in range(len(matrix))],
                          matrix)


# ---------------------------------------------------------------------------
# common_rows

def test_common_rows_orders_by_source_id():
    src = space_from(np.arange(8.0).reshape(4, 2), "S", "s")
    tgt = space_from(np.arange(8.0, 16.0).reshape(4, 2), "T", "t")
    mapping = BrandMapping({"s2": "t0", "s0": "t3"})
    s, t, ids, excluded = common_rows(src, tgt, mapping)
    assert ids == [("s0", "t3"), ("s2", "t0")]
    assert np.array_equal(s, np.array([[0.0, 1.0], [4.0, 5.0]]))
    assert np.array_equal(t, np.array([[14.0, 15.0], [8.0, 9.0]]))
    assert excluded == 0


def test_common_rows_counts_missing_pairs():
    src = space_from(np.ones((2, 2)), "S", "s")
    tgt = space_from(np.ones((2, 2)), "T", "t")
    mapping = BrandMapping({"s0": "t0", "s1": "t9", "s9": "t1"})
    _, _, ids, excluded = common_rows(src, tgt, mapping)
    assert ids == [("s0", "t0")]
    assert excluded == 2


def test_common_rows_empty_mapping_raises():
    src = space_from(np.ones((1, 2)), "S", "s")
    with pytest.raises(ValueError, match="empty mapping"):
        common_rows(src, src, BrandMapping({}))


def test_common_rows_no_overlap_raises():
    src = space_from(np.ones((1, 2)), "S", "s")
    tgt = space_from(np.ones((1, 2)), "T", "t")
    with pytest.raises(ValueError, match="zero common rows"):
        common_rows(src, tgt, BrandMapping({"s9": "t9"}))


# ---------------------------------------------------------------------------
# planted-matrix recovery

def test_lstsq_recovers_planted_matrix_50_instances():
    for seed in range(50):
        s, t, w = random_spaces(seed, n=10 + seed % 5, d=3 + seed % 3)
        proj = fit_linear_projection(s, t)
        assert np.max(np.abs(proj.w - w)) < 1e-6, f"seed {seed}"
        assert proj.fit_residual < 1e-6
        assert proj.kind == "least_squares"


def test_lstsq_matches_scipy_gelsd_bit_for_bit():
    # the fit used scipy.linalg.lstsq(..., lapack_driver="gelsd") and must
    # return the same solution
    rng = np.random.default_rng(5)
    for case in range(20):
        s = np.maximum(rng.normal(size=(240, 32)), 0.0)
        if case % 4 == 0:
            s[:, 5:9] = 0.0  # rank deficient: all-zero columns
        if case % 4 == 1:
            s[:, 7] = s[:, 3]  # rank deficient: a repeated column
        t = np.maximum(rng.normal(size=(240, 32)), 0.0)
        want, _, _, _ = scipy.linalg.lstsq(s, t, lapack_driver="gelsd")
        got = fit_linear_projection(s, t).w
        assert np.array_equal(got, want)


def test_procrustes_recovers_planted_orthogonal_50_instances():
    rng = np.random.default_rng(123)
    for seed in range(50):
        d = 3 + seed % 3
        s = rng.normal(size=(10 + seed % 5, d))
        q = random_orthogonal(seed, d)
        proj = fit_procrustes(s, s @ q)
        assert np.max(np.abs(proj.w - q)) < 1e-6, f"seed {seed}"
        assert proj.fit_residual < 1e-6
        assert proj.kind == "orthogonal"


def test_procrustes_residual_never_below_lstsq():
    # the orthogonal constraint can only increase the attainable residual
    for seed in range(50):
        s, t, _ = random_spaces(seed, n=15, d=4, noise=0.5)
        assert fit_procrustes(s, t).fit_residual \
            >= fit_linear_projection(s, t).fit_residual - 1e-12, f"seed {seed}"


def test_lstsq_identity_when_target_equals_source():
    s, _, _ = random_spaces(7, n=10, d=4)
    proj = fit_linear_projection(s, s)
    assert np.max(np.abs(proj.w - np.eye(4))) < 1e-8


def test_procrustes_hand_rotation():
    # 90-degree planar rotation recovered exactly
    s = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
    q = np.array([[0.0, 1.0], [-1.0, 0.0]])
    proj = fit_procrustes(s, s @ q)
    assert np.max(np.abs(proj.w - q)) < 1e-12


def test_procrustes_output_is_orthogonal_even_with_noise():
    for seed in range(10):
        s, t, _ = random_spaces(seed, n=20, d=5, noise=1.0)
        w = fit_procrustes(s, t).w
        assert np.max(np.abs(w.T @ w - np.eye(5))) < 1e-10


def test_duplicated_rows_leave_lstsq_solution_unchanged():
    s, t, w = random_spaces(3, n=8, d=3)
    proj_dup = fit_linear_projection(np.vstack([s, s]), np.vstack([t, t]))
    assert np.max(np.abs(proj_dup.w - w)) < 1e-6


def test_row_permutation_invariance():
    s, t, _ = random_spaces(11, n=12, d=4, noise=0.3)
    perm = np.random.default_rng(0).permutation(12)
    a = fit_linear_projection(s, t)
    b = fit_linear_projection(s[perm], t[perm])
    assert np.allclose(a.w, b.w, atol=1e-10)
    assert np.isclose(a.fit_residual, b.fit_residual)


def test_fit_shape_mismatch_raises():
    with pytest.raises(ValueError):
        fit_linear_projection(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        fit_procrustes(np.ones((3, 2)), np.ones((3, 3)))


# ---------------------------------------------------------------------------
# apply_projection

def test_apply_projection_identity():
    space = space_from(np.arange(6.0).reshape(3, 2), "S", "s")
    proj = ProjectionMatrix(w=np.eye(2), kind="least_squares", fit_residual=0.0)
    out = apply_projection(space, proj)
    assert out.brand == "S-projected"
    assert out.dim == 2
    for hid, v in space.vectors.items():
        assert np.array_equal(out.vectors[hid], v)


def test_apply_projection_orthogonal_preserves_norms_and_cosines():
    space = space_from(np.random.default_rng(5).normal(size=(6, 4)), "S", "s")
    q = random_orthogonal(9, 4)
    proj = ProjectionMatrix(w=q, kind="orthogonal", fit_residual=0.0)
    out = apply_projection(space, proj)
    ids = sorted(space.vectors)
    for a in ids:
        assert np.isclose(np.linalg.norm(out.vectors[a]),
                          np.linalg.norm(space.vectors[a]))
        for b in ids:
            assert np.isclose(out.vectors[a] @ out.vectors[b],
                              space.vectors[a] @ space.vectors[b])


def test_apply_projection_dim_mismatch_raises():
    space = space_from(np.ones((2, 3)), "S", "s")
    proj = ProjectionMatrix(w=np.eye(2), kind="least_squares", fit_residual=0.0)
    with pytest.raises(ValueError, match="dim"):
        apply_projection(space, proj)


def test_apply_projection_can_change_dimension():
    space = space_from(np.ones((2, 3)), "S", "s")
    proj = ProjectionMatrix(w=np.ones((3, 5)), kind="least_squares",
                            fit_residual=0.0)
    out = apply_projection(space, proj)
    assert out.dim == 5
    assert np.array_equal(out.vectors["s0"], np.full(5, 3.0))


@pytest.mark.parametrize("fit", [fit_linear_projection, fit_procrustes])
def test_apply_projection_of_a_fit_equals_that_of_its_file(fit, tmp_path):
    # repro projects with the W it fitted, the CLI with the W it reads back
    # from lp.proj; both must give the same rows, bit for bit
    s, t, _ = random_spaces(17, n=300, d=32, noise=0.1)
    proj = fit(s, t)
    write_projection(proj, tmp_path / "w.proj")
    space = space_from(s, "S", "s")
    fitted = apply_projection(space, proj)
    read = apply_projection(space, read_projection(tmp_path / "w.proj"))
    assert fitted.matrix.tobytes() == read.matrix.tobytes()


# ---------------------------------------------------------------------------
# projection file round trip

def test_projection_file_roundtrip(tmp_path):
    _, _, w = random_spaces(2, d=4)
    proj = ProjectionMatrix(w=w, kind="least_squares", fit_residual=1.25)
    p = tmp_path / "w.proj"
    write_projection(proj, p)
    back = read_projection(p)
    assert back.kind == "least_squares"
    assert np.array_equal(back.w, w)          # repr round-trip is exact
    assert np.isnan(back.fit_residual)


def test_read_projection_rejects_bad_shape(tmp_path):
    p = tmp_path / "w.proj"
    p.write_text("2 2 orthogonal\n1.0 0.0\n")
    with pytest.raises(ValueError, match="expected"):
        read_projection(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_projection_rejects_non_finite_entries(tmp_path, bad):
    p = tmp_path / "w.proj"
    p.write_text(f"2 2 orthogonal\n1.0 0.0\n\n0.0 {bad}\n")
    with pytest.raises(ValueError, match=r"w\.proj:4: non-finite"):
        read_projection(p)


def test_read_projection_rejects_bad_header(tmp_path):
    p = tmp_path / "w.proj"
    p.write_text("2 2\n1.0 0.0\n0.0 1.0\n")
    with pytest.raises(ValueError, match=r"w\.proj:1: bad header"):
        read_projection(p)


@pytest.mark.parametrize("text, message", [
    ("2 x orthogonal\n1.0 0.0\n0.0 1.0\n", r"w\.proj:1: invalid literal for int"),
    ("2 2 orthogonal\n\n", r"w\.proj:1: expected 2x2 matrix, got 0 rows"),
    ("0 -1 orthogonal\n", r"w\.proj:1: dimensions must be positive, got 0x-1"),
    ("2 2 orthogonal\n1.0 0.0\n0.0 1.0 2.0\n", r"w\.proj:3: expected 2 entries, got 3"),
    ("2 2 orthogonal\n1.0 0.0\n0.0 zz\n", r"w\.proj:3: could not convert .*'zz'"),
])
def test_read_projection_names_file_and_line_of_malformed_input(tmp_path, text,
                                                                message):
    p = tmp_path / "w.proj"
    p.write_text(text)
    with pytest.raises(DataError, match=message):
        read_projection(p)
