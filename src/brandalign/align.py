"""Post-hoc alignment of two frozen embedding spaces.

Two fitters: unconstrained least squares (min ||S W - T||_F^2, minimum-norm
solution on rank deficiency) and orthogonal Procrustes (W = U V^T from the
SVD of S^T T). Both consume only exported embeddings plus the brand mapping,
never model parameters.
"""

from dataclasses import dataclass

import numpy as np

from .data import BrandMapping, DataError, check_finite, open_text, parse_numbers
from .model import EmbeddingSpace


@dataclass
class ProjectionMatrix:
    w: np.ndarray            # d_s x d_t
    kind: str                # "least_squares" | "orthogonal"
    fit_residual: float      # ||S W - T||_F over the common rows


def common_rows(source: EmbeddingSpace, target: EmbeddingSpace,
                mapping: BrandMapping):
    """Gather the rows of mapped hotels present in both spaces.

    Returns (S, T, ids, excluded_count); rows follow ascending source id.
    """
    if len(mapping) == 0:
        raise ValueError("empty mapping: no common rows")
    ids = [(s, t) for s, t in sorted(mapping.pairs.items())
           if s in source.index and t in target.index]
    if not ids:
        raise ValueError("zero common rows between the two spaces")
    return (source.matrix[[source.index[s] for s, _ in ids]],
            target.matrix[[target.index[t] for _, t in ids]],
            ids, len(mapping) - len(ids))


def fit_linear_projection(s: np.ndarray, t: np.ndarray) -> ProjectionMatrix:
    """Least-squares W = argmin ||S W - T||_F^2 via a pivoted factorization;
    minimum-Frobenius-norm solution when S is rank deficient."""
    if s.shape[0] < 1 or s.shape[0] != t.shape[0]:
        raise ValueError("S and T must have the same positive row count")
    # LAPACK gelsd with scipy.linalg.lstsq's default cutoff
    w, _, _, _ = np.linalg.lstsq(s, t, rcond=np.finfo(float).eps)
    residual = float(np.linalg.norm(s @ w - t, "fro"))
    return ProjectionMatrix(w=w, kind="least_squares", fit_residual=residual)


def fit_procrustes(s: np.ndarray, t: np.ndarray) -> ProjectionMatrix:
    """Orthogonal W = U V^T from SVD(S^T T); minimizes ||S W - T||_F over
    orthogonal matrices."""
    if s.shape != t.shape:
        raise ValueError("Procrustes needs equal-shape S and T")
    u, _, vt = np.linalg.svd(s.T @ t)
    w = u @ vt
    residual = float(np.linalg.norm(s @ w - t, "fro"))
    return ProjectionMatrix(w=w, kind="orthogonal", fit_residual=residual)


def apply_projection(space: EmbeddingSpace, proj: ProjectionMatrix) -> EmbeddingSpace:
    """Map every row through W as one space.matrix @ W; the result is tagged
    as projected. A projected row whose squared norm overflows is rejected,
    naming the hotel."""
    if space.dim != proj.w.shape[0]:
        raise ValueError(f"space dim {space.dim} != projection rows {proj.w.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = space.matrix @ proj.w
        bad = ~np.isfinite(np.einsum("ij,ij->i", matrix, matrix))
    if bad.any():
        raise ValueError(f"squared norm of projected {space.ids[np.argmax(bad)]!r} "
                         f"overflows")
    return EmbeddingSpace(f"{space.brand}-projected", space.ids, matrix)


# ---------------------------------------------------------------------------
# projection file: "<d_s> <d_t> <kind>" header then d_s rows of d_t floats

def write_projection(proj: ProjectionMatrix, path):
    d_s, d_t = proj.w.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{d_s} {d_t} {proj.kind}\n")
        for row in proj.w:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_projection(path) -> ProjectionMatrix:
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise DataError(f"{path}:1: bad header")
        (d_s, d_t), kind = parse_numbers(header[:2], int, path, 1), header[2]
        if d_s < 1 or d_t < 1:
            raise DataError(f"{path}:1: dimensions must be positive, got {d_s}x{d_t}")
        rows, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != d_t:
                raise DataError(f"{path}:{lineno}: expected {d_t} entries, got {len(fields)}")
            rows.append(parse_numbers(fields, float, path, lineno))
            linenos.append(lineno)
    if len(rows) != d_s:
        raise DataError(f"{path}:1: expected {d_s}x{d_t} matrix, got {len(rows)} rows")
    w = np.array(rows, dtype=float).reshape(d_s, d_t)
    check_finite(w, path, linenos)
    return ProjectionMatrix(w=w, kind=kind, fit_residual=float("nan"))
