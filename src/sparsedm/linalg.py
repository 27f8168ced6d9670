"""Dense symmetric-matrix kernels and the shared text formats: matrices
and CSV reports. The matrix text I/O is one numpy call each way:
``write_matrix`` is ``np.savetxt`` after the header line, and
``read_matrix`` hands the streamed rows to ``np.loadtxt``, falling back to
a per-row ``float()`` parse only for a file numpy rejects.

Matrices are plain float64 numpy arrays of shape (n, n). The kernels
preserve the exact symmetry of symmetric input: entrywise and diagonal
maps do so by construction, and the clamp's result and certificate are Gram
products ``x @ x.T``, which numpy forms as one triangle (BLAS syrk) and its
mirror, so no step runs ``symmetrize``. That holds on the three paths that
``clamp_eig`` picks from: the full ``sym_eig``, the last full eigenbasis
reused by ``held_eig`` while it still diagonalizes the matrix, and the
certified low-rank pairs of ``warm_positive_eig``. Downstream code may rely
on ``A[i, j] == A[j, i]`` exactly for outputs of symmetric input.

The two certified paths pay only for the certainty the spectrum needs:
the held basis costs two matrix products and no eigensolve, the low-rank
path's filter interval comes from the last full spectrum, and its inertia
certificate is a Cholesky factor only when Weyl's inequality against the
last factorized one (the ``Anchor``) does not already prove it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "AsymmetricMatrixError",
    "EigenSolverError",
    "MatrixFormatError",
    "SpectralDecomposition",
    "WarmStart",
    "entrywise_l1",
    "fro_norm",
    "read_matrix",
    "require_symmetric",
    "soft_threshold",
    "spectral_clamp",
    "sym_eig",
    "symmetrize",
    "trace_product",
    "trace_shift_project",
    "write_csv",
    "write_matrix",
]

# Relative asymmetry allowed before an input is rejected outright.
SYMMETRY_RTOL = 1e-12

# warm_positive_eig: degree of its Chebyshev filter, and the Ritz residual
# allowed relative to max(1, ||A||_F); held_eig allows the same off-diagonal
# mass.
FILTER_DEGREE = 12
WARM_RTOL = 1e-10
# clamp_eig: basis columns kept past the positive ones, and the longest wait.
CLAMP_MARGIN = 8
MAX_WAIT = 64


class MatrixFormatError(ValueError):
    """Matrix text file is malformed (bad header, wrong row/column counts)."""


class AsymmetricMatrixError(ValueError):
    """Matrix violates the symmetry tolerance."""


class EigenSolverError(RuntimeError):
    """Eigendecomposition failed to converge."""


class SpectralDecomposition(NamedTuple):
    """Eigenvalues in ascending order with aligned orthonormal eigenvectors.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class Anchor(NamedTuple):
    """A factorized inertia certificate: m, an earlier S less delta I, has a
    Cholesky factor, so lambda_min(m + delta I) >= delta > 0."""

    m: np.ndarray
    delta: float


class WarmStart(NamedTuple):
    """What one ``clamp_eig`` call hands the next; WarmStart() skips the first.

    ``vectors`` is the full eigenvector matrix of the last call, dense or
    held, that ends with the next call due; ``held_eig`` tries it first.
    """

    basis: np.ndarray | None = None  # the block warm_positive_eig starts from
    misses: int = 0  # due calls in a row with no certified warm result
    wait: int = 1  # calls left to skip before one is due
    # From the last full spectrum: its lowest eigenvalue, the filter's lower
    # end, and its largest non-positive eigenvalue; 0 before the first dense call.
    lo: float = 0.0
    hi: float = 0.0
    anchor: Anchor | None = None  # the last factorized certificate
    vectors: np.ndarray | None = None  # n x n, what held_eig starts from


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A.T) / 2, which is exactly symmetric entrywise."""
    return (a + a.T) / 2


def require_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate a dense symmetric matrix and return it exactly symmetric.

    The gate for H, matrix files and starts: rejects complex input, checks
    squareness, finiteness and symmetry up to ``SYMMETRY_RTOL * max(1, max|A|)``.
    An exactly symmetric float64 array is returned as is, with no copy; a
    near-symmetric one as its symmetrized copy. Errors name the input.
    """
    if np.iscomplexobj(a):
        raise ValueError(f"{name} is complex; a real symmetric matrix is required")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.array_equal(a, a.T):
        return a
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise AsymmetricMatrixError(
            f"{name} is asymmetric: max|A - A.T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL * scale:.3e}"
        )
    return symmetrize(a)


def sym_eig(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Backed by LAPACK via ``numpy.linalg.eigh``; a non-converged
    eigeniteration surfaces as EigenSolverError.
    """
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigendecomposition of {a.shape[0]}x{a.shape[0]} matrix "
            f"(fro norm {fro_norm(a):.3e}) did not converge: {exc}"
        ) from exc
    return SpectralDecomposition(w, v)


def soft_threshold(a: np.ndarray, t: float) -> np.ndarray:
    """Entrywise shrinkage sign(a) * max(|a| - t, 0)."""
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)


def trace_shift_project(b: np.ndarray, n_occ: float) -> np.ndarray:
    """Project onto the affine set {tr P = n_occ} in Frobenius geometry.

    Subtracts ``(tr B - n_occ) / n`` from the diagonal only; off-diagonal
    entries pass through unchanged.
    """
    n = b.shape[0]
    out = np.array(b, dtype=float, copy=True)
    shift = (float(np.trace(out)) - n_occ) / n
    out[np.diag_indices(n)] -= shift
    return out


def spectral_clamp(a: np.ndarray, eig: SpectralDecomposition | None = None) -> np.ndarray:
    """Project onto {0 <= R <= I} by clipping eigenvalues into [0, 1].

    eig, when given, replaces ``sym_eig(a)``: either that full decomposition,
    which gives bitwise the same result, or the pairs of ``warm_positive_eig``.
    It is x x^T, x = v sqrt(min(w, 1)) on the positive pairs; the rest clip to 0.
    """
    w, v = sym_eig(a) if eig is None else eig
    pos = w > 0.0
    x = v[:, pos] * np.sqrt(np.minimum(w[pos], 1.0))
    return x @ x.T


def held_eig(a: np.ndarray, v: np.ndarray) -> SpectralDecomposition | None:
    """Eigenpairs of symmetric a in the n x n orthonormal basis v of an
    earlier full decomposition; None when v no longer diagonalizes a.

    With B = v^T a v the pairs (diag B, v) are accepted only if
    ||B - diag B||_F <= WARM_RTOL * max(1, ||a||_F). As
    a - v diag(B) v^T = v (B - diag B) v^T and the clamp is nonexpansive,
    their clamp then lies within ||B - diag B||_F of the exact one. The
    pairs come back with the eigenvalues ascending.
    """
    norm = fro_norm(a)
    if not np.isfinite(norm):
        return None
    b = v.T @ (a @ v)
    w = b.diagonal().copy()
    b.flat[:: b.shape[0] + 1] = 0.0
    if not fro_norm(b) <= WARM_RTOL * max(1.0, norm):  # NaN refuses too
        return None
    order = np.argsort(w, kind="stable")  # tied columns keep their order
    return SpectralDecomposition(w[order], v[:, order])


def warm_positive_eig(
    a: np.ndarray, basis: np.ndarray, lo: float, hi: float, anchor: Anchor | None = None
) -> tuple[SpectralDecomposition, Anchor | None] | None:
    """Ritz pairs of symmetric a that provably hold all its positive
    eigenpairs, computed from a warm basis, and the anchor to pass to the
    next call; None when that cannot be proved.

    The n x k orthonormal basis, typically last step's top eigenvectors,
    goes through a Chebyshev filter of degree FILTER_DEGREE that damps the
    interval [lo, 0] (Zhou, Saad, Tiago & Chelikowsky 2006), then a QR and a
    Rayleigh-Ritz step. lo < 0 should lie at or below the spectrum and
    hi <= 0 at about its largest non-positive eigenvalue; ``clamp_eig``
    takes both from the last dense spectrum. Values that are off cost a
    refusal or a factorization, never a wrong result. With U+, Theta+ the
    Ritz pairs whose value is positive, the result is accepted only if
      - ||A U+ - U+ Theta+||_F <= WARM_RTOL * max(1, ||A||_F), and
      - S = U+ (Theta+ + I) U+^T - A is positive definite: then
        x^T A x < 0 for every x orthogonal to U+, so no positive eigenvalue
        lies outside span U+ (Sylvester's law of inertia).
    S is about I on span U+ and about -A on its complement. Formed as z z^T - A,
    z = U+ sqrt(Theta+ + I), S is exactly symmetric, so Cholesky, Sylvester
    and Weyl apply to the matrix computed. It is proved positive definite:
      - by the anchor, with no factorization, when
        ||S - anchor.delta I - anchor.m||_F < anchor.delta: by Weyl's
        inequality lambda_min(S) >= anchor.delta - ||S - anchor.delta I -
        anchor.m||_2 > 0, as anchor.m is positive definite;
      - else by a Cholesky factor of S - delta I, which proves
        lambda_min(S) >= delta and makes (S - delta I, delta) the returned
        anchor. delta is first half the distance from 0 of the larger of hi
        and the largest non-positive Ritz value, capped at 1/2, then a
        quarter of that. The Ritz value overstates that distance when the
        margin columns have not converged, and hi when the spectrum has
        moved toward 0 since. If both shifts fail, a Cholesky factor of S
        itself proves it, and the old anchor is returned.
    As the clamp is nonexpansive, clipping Theta+ into [0, 1] then gives the
    exact clamp of a to within sqrt(2) times the residual.
    Returns all k Ritz pairs, ascending, so the caller can keep a margin.
    """
    norm = fro_norm(a)  # NaN for a NaN entry, which max(1.0, norm) would hide
    if not (np.isfinite(norm) and lo < 0.0):
        return None
    scale = max(1.0, norm)
    # Scaled three-term recurrence, y = T_m((A - c) / e) basis / T_m((scale - c) / e);
    # scale >= ||A||_2 lies above the spectrum.
    c = lo / 2  # centre of [lo, 0]; -c is its half-width
    e = -c
    sigma1 = sigma = e / (scale - c)
    prev, y = basis, (a @ basis - c * basis) * (sigma1 / e)
    for _ in range(1, FILTER_DEGREE):
        nxt = 1.0 / (2.0 / sigma1 - sigma)
        prev, y = y, (a @ y - c * y) * (2.0 * nxt / e) - (sigma * nxt) * prev
        sigma = nxt
    q = np.linalg.qr(y)[0]
    aq = a @ q
    theta, w = np.linalg.eigh(q.T @ aq)
    u = q @ w
    pos = theta > 0.0
    u_pos, theta_pos = u[:, pos], theta[pos]
    if not fro_norm((aq @ w)[:, pos] - u_pos * theta_pos) <= WARM_RTOL * scale:
        return None
    eig = SpectralDecomposition(theta, u)
    z = u_pos * np.sqrt(theta_pos + 1.0)
    s = z @ z.T
    s -= a
    stride = s.shape[0] + 1  # of the diagonal in s.flat
    if anchor is not None:
        gap = s - anchor.m
        gap.flat[::stride] -= anchor.delta
        if fro_norm(gap) < anchor.delta:
            return eig, anchor
        del gap  # freed before a factor allocates its own n x n
    delta = min(-theta[~pos].max(initial=hi), 1.0) / 2
    # s is shifted in place, so a factorization holds no copy of it.
    applied = 0.0
    for shift in ((delta, delta / 4) if delta > 0.0 else ()) + (0.0,):
        s.flat[::stride] -= shift - applied
        applied = shift
        if _has_cholesky(s):
            return eig, Anchor(s, shift) if shift else anchor
    return None


def _has_cholesky(s: np.ndarray) -> bool:
    """Whether symmetric s has a Cholesky factor."""
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return True


def clamp_eig(a: np.ndarray, warm: WarmStart) -> tuple[SpectralDecomposition, WarmStart]:
    """Eigenpairs of symmetric a for ``spectral_clamp(a, eig)``, and the
    next call's warm start.

    A due call tries ``held_eig`` on the held eigenvectors, which a failed
    check drops, then ``warm_positive_eig`` on the basis. A certified
    result of either resets the misses; a call that gets neither, for want
    of vectors and basis or by failed checks, is the m-th miss, and the
    next min(2^(m-1), MAX_WAIT) calls skip. Other calls run ``sym_eig``.
    Only the misses, the wait and the anchor pass to a skipped call, which
    reads nothing else. Else a full spectrum, dense or held, is held, with
    the lo and hi of the low-rank calls until the next full one: its
    smallest and its largest non-positive eigenvalue. The anchor passes
    from each low-rank call to the next. The next basis is the positive
    eigen- or Ritz vectors plus CLAMP_MARGIN more, or None past n / 3
    columns, where eigh costs about as much.
    """
    basis, misses, wait, lo, hi, anchor, vectors = warm
    eig = None
    if wait:
        wait -= 1
    elif vectors is not None and (eig := held_eig(a, vectors)) is not None:
        misses = 0
    elif basis is not None and (found := warm_positive_eig(a, basis, lo, hi, anchor)) is not None:
        eig, anchor = found
        misses = 0
    else:
        misses += 1
        wait = min(2 ** (misses - 1), MAX_WAIT)
    if eig is None:
        eig = sym_eig(a)
    if wait:
        return eig, WarmStart(misses=misses, wait=wait, anchor=anchor)
    w = eig.eigenvalues
    vectors = None
    if w.size == a.shape[0]:  # a full spectrum; a low-rank one is at most n / 3 wide
        nonpos = w[w <= 0.0]
        lo = float(w[0])
        hi = float(nonpos[-1]) if nonpos.size else 0.0
        vectors = eig.eigenvectors
    # A low-rank result has only the old basis's columns.
    width = min(np.count_nonzero(w > 0) + CLAMP_MARGIN, w.size)
    basis = eig.eigenvectors[:, -width:].copy() if width <= a.shape[0] / 3 else None
    return eig, WarmStart(basis, misses, wait, lo, hi, anchor, vectors)


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm sqrt(sum a_ij^2)."""
    return float(np.linalg.norm(a))


def entrywise_l1(a: np.ndarray) -> float:
    """Entrywise l1 norm sum |a_ij|."""
    return float(np.abs(a).sum())


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(AB) = sum_ij A_ij B_ji, without forming the product."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b.T))


def write_matrix(path, a: np.ndarray) -> None:
    """Write a matrix in the text format: header n, then n rows of ``.17g``
    entries, which round-trip float64."""
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]}\n")
        np.savetxt(fh, a, fmt="%.17g")


def write_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV report: the header line, then one comma-joined line per row.

    Float cells (numpy floats included) are written as ``.16e``, which
    round-trips float64; every other cell is written as ``str``.
    """
    lines = [",".join(header)]
    lines += [
        ",".join(f"{c:.16e}" if isinstance(c, (float, np.floating)) else str(c) for c in row)
        for row in rows
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _matrix_lines(fh) -> Iterator[str]:
    """The lines of a matrix file, blank ones skipped."""
    return (ln for raw in fh for ln in raw.splitlines() if ln.strip())


def read_matrix(path) -> np.ndarray:
    """Parse the matrix text format; raises MatrixFormatError on bad shape.

    Blank lines are skipped. numpy's C reader parses the rows in one pass
    over the streamed lines; when it rejects them or returns another shape,
    ``_parse_rows`` reads the file again row by row. The result is returned
    as-is (not symmetrized); callers that require symmetry should pass it
    through ``require_symmetric``.
    """
    with open(path) as fh:
        lines = _matrix_lines(fh)
        header = next(lines, None)
        if header is None:
            raise MatrixFormatError(f"{path}: empty matrix file")
        try:
            n = int(header)
        except ValueError:
            raise MatrixFormatError(f"{path}: header {header!r} is not an integer") from None
        if n <= 0:
            raise MatrixFormatError(f"{path}: dimension must be positive, got {n}")
        # A body with no rows never reaches numpy, which would warn. There is
        # no max_rows=n either: numpy would allocate n rows up front, and a
        # header far larger than the file must allocate nothing. A wrong row
        # count shows as a wrong shape instead.
        first = next(lines, None)
        a = None
        if first is not None:
            try:
                a = np.loadtxt(chain([first], lines), dtype=float, comments=None, ndmin=2)
            except ValueError:
                pass
    if a is None or a.shape != (n, n):
        a = _parse_rows(path, n)
    if not np.all(np.isfinite(a)):
        raise MatrixFormatError(f"{path}: matrix contains non-finite entries")
    return a


def _parse_rows(path, n: int) -> np.ndarray:
    """Parse the n rows after the header of path one by one with str.split
    and float(), which are the reference for the accepted syntax (float()
    also takes ``1_0`` and non-ASCII digits) and for the messages. A wrong
    row count is reported in preference to a malformed row."""
    with open(path) as fh:
        rows = list(_matrix_lines(fh))[1:]
    if len(rows) != n:
        raise MatrixFormatError(f"{path}: expected {n} rows, found {len(rows)}")
    a = np.empty((n, n))
    for i, line in enumerate(rows, start=1):
        fields = line.split()
        if len(fields) != n:
            raise MatrixFormatError(f"{path}: row {i} has {len(fields)} entries, expected {n}")
        try:
            a[i - 1] = [float(f) for f in fields]
        except ValueError:
            raise MatrixFormatError(f"{path}: row {i} contains a non-numeric entry") from None
    return a
