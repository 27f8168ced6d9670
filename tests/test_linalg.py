import re
import warnings

import numpy as np
import pytest

from sparsedm import linalg
from sparsedm.linalg import (
    CLAMP_MARGIN,
    MAX_WAIT,
    WARM_RTOL,
    AsymmetricMatrixError,
    MatrixFormatError,
    SpectralDecomposition,
    WarmStart,
    clamp_eig,
    entrywise_l1,
    fro_norm,
    held_eig,
    read_matrix,
    require_symmetric,
    soft_threshold,
    spectral_clamp,
    sym_eig,
    symmetrize,
    trace_product,
    trace_shift_project,
    warm_positive_eig,
    write_csv,
    write_matrix,
)

from helpers import random_symmetric


def test_symmetrize_is_bitwise_symmetric():
    rng = np.random.default_rng(1)
    s = symmetrize(rng.standard_normal((17, 17)))
    assert np.array_equal(s, s.T)


def test_require_symmetric_accepts_tiny_asymmetry():
    rng = np.random.default_rng(2)
    a = random_symmetric(rng, 8)
    a[0, 1] += 1e-14
    out = require_symmetric(a)
    assert out is not a
    assert np.array_equal(out, symmetrize(a))
    assert np.array_equal(out, out.T)


def test_require_symmetric_returns_exactly_symmetric_input_itself():
    a = random_symmetric(np.random.default_rng(3), 8)
    assert require_symmetric(a) is a


def test_require_symmetric_rejects_asymmetry():
    a = np.array([[1.0, 2.0], [2.1, 1.0]])
    with pytest.raises(AsymmetricMatrixError, match="lhs"):
        require_symmetric(a, name="lhs")


@pytest.mark.parametrize(
    "bad",
    [np.zeros((2, 3)), np.zeros(4), np.zeros((0, 0)), np.array([[1.0, np.nan], [np.nan, 1.0]]),
     np.diag([np.inf, 1.0, 2.0]), np.eye(2) * (1 + 1e-3j)],
)
def test_require_symmetric_rejects_malformed(bad):
    with pytest.raises(ValueError):
        require_symmetric(bad)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_matrix_file_roundtrip_is_bitwise(tmp_path, n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) * 10.0 ** float(rng.integers(-8, 9))
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_matrix_file_layout(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.array([[1.0, 0.5], [0.5, -2.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "2"
    assert len(lines) == 3
    assert [float(v) for v in lines[1].split()] == [1.0, 0.5]


def test_write_matrix_exact_bytes(tmp_path):
    path = tmp_path / "g.mat"
    write_matrix(path, np.array([[-0.0, 5e-324, 1e300], [0.1, 3.0, -2.0], [1e16, 0.5, -123.0]]))
    assert path.read_bytes() == (
        b"3\n"
        b"-0 4.9406564584124654e-324 1.0000000000000001e+300\n"
        b"0.10000000000000001 3 -2\n"
        b"10000000000000000 0.5 -123\n"
    )


def test_write_matrix_matches_per_entry_format(tmp_path):
    rng = np.random.default_rng(37)
    a = rng.standard_normal((37, 37)) * 10.0 ** rng.integers(-300, 300, (37, 37))
    a[0, :3] = (-0.0, 5e-324, 2.0)
    path = tmp_path / "r.mat"
    write_matrix(path, a)
    expected = "\n".join(["37"] + [" ".join(f"{v:.17g}" for v in row) for row in a]) + "\n"
    assert path.read_text() == expected


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "r.csv"
    rows = [
        (1, 0.1, np.float64(-2.5), "7"),
        (np.int64(2), np.float32(0.5), float("inf"), "x"),
    ]
    write_csv(path, ("index", "a", "b", "s"), rows)
    assert path.read_bytes() == (
        b"index,a,b,s\n"
        b"1,1.0000000000000001e-01,-2.5000000000000000e+00,7\n"
        b"2,5.0000000000000000e-01,inf,x\n"
    )
    write_csv(path, ("mu", "l1"), [])
    assert path.read_bytes() == b"mu,l1\n"


MALFORMED = [
    "",
    "x\n1\n",
    "0\n",
    "-3\n",
    "2\n1 0\n",
    "2\n1 0\n0 1\n2 2\n",
    "2\n1 0 0\n0 1\n",
    "1\nfoo\n",
    "1\nnan\n",
    "1\ninf\n",
]

LOOSE_LAYOUTS = [
    "\n2\n\n1 0\n\n0 1\n\n\n",  # blank lines before, between and after the rows
    " \t2  \n1 0\n0 1\n",  # header with surrounding whitespace
    "2\r\n1 0\r\n0 1",  # CRLF line ends, no final newline
]

ERROR_MESSAGES = [
    ("2\n1 0\n0 1\n2 2\n3 3\n", "expected 2 rows, found 4"),
    ("2\n1 0\n0 1\nfoo\n", "expected 2 rows, found 3"),
    ("3\n1 2 3\n1 2\n4 5 6\n", "row 2 has 2 entries, expected 3"),
    ("3\n1 2 3\n1 2\n", "expected 3 rows, found 2"),
    ("2\n1 0\n0 x\n", "row 2 contains a non-numeric entry"),
    ("1000000000\n1 2\n", "expected 1000000000 rows, found 1"),
    ("3\n", "expected 3 rows, found 0"),
    (" x \n1\n", "header ' x ' is not an integer"),
]


@pytest.mark.parametrize("content", MALFORMED)
def test_read_matrix_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(MatrixFormatError):
        read_matrix(path)


@pytest.mark.parametrize("content", LOOSE_LAYOUTS)
def test_read_matrix_accepts_loose_layout(tmp_path, content):
    path = tmp_path / "ok.mat"
    path.write_text(content)
    assert np.array_equal(read_matrix(path), np.eye(2))


@pytest.mark.parametrize("content, message", ERROR_MESSAGES)
def test_read_matrix_error_messages(tmp_path, content, message):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        read_matrix(path)


def reference_read_matrix(path) -> np.ndarray:
    """read_matrix's contract as a plain per-row parse: str.split and float()."""
    with open(path) as fh:
        lines = [ln for raw in fh for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise MatrixFormatError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise MatrixFormatError(f"{path}: header {lines[0]!r} is not an integer") from None
    if n <= 0:
        raise MatrixFormatError(f"{path}: dimension must be positive, got {n}")
    rows = lines[1:]
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
    if not np.all(np.isfinite(a)):
        raise MatrixFormatError(f"{path}: matrix contains non-finite entries")
    return a


def chunked_file(n: int, bad: int | None = None, entry: str = "x") -> str:
    """An n x n matrix text of 17-digit entries; row `bad` (1-based) gets
    `entry` in place of its last field."""
    rng = np.random.default_rng(n)
    rows = [" ".join("%.17g" % v for v in rng.standard_normal(n)) for _ in range(n)]
    if bad is not None:
        rows[bad - 1] = rows[bad - 1].rsplit(" ", 1)[0] + " " + entry
    return f"{n}\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "content",
    MALFORMED + LOOSE_LAYOUTS + [content for content, _ in ERROR_MESSAGES] + [
        "2\n1_0 0\n0 1\n",  # float() takes digit separators, numpy does not
        "2\n\u0661 0\n0 \u0967\n",  # non-ASCII digits
        "2\n1 0\f0 1\n",  # \f, \v, \x1c and U+2028 end a line for splitlines
        "2\n1 0\v0 1\n",
        "2\n1 0\x1c0 1\n",
        "2\n1 0\u20280 1\n",
        "2\n1\xa00\n0\xa0\xa01\n",  # NBSP between fields
        "2\n1e400 0\n0 1\n",
        "2\n1e-400 -0\n0 1\n",
        "2\n1 0 \x00\n0 1\n",
        "2\n1 0\n\xa0\n0 1\n",  # a row of Unicode whitespace is a blank line
        pytest.param(chunked_file(70), id="n70"),
        # numpy rejects the rows, float() accepts them
        pytest.param(chunked_file(70, 3, "1_0"), id="n70-row3-1_0"),
        pytest.param(chunked_file(70, 70, "1_0"), id="n70-row70-1_0"),
        *(pytest.param(chunked_file(70, bad), id=f"n70-row{bad}-x") for bad in (64, 65, 70)),
        *(pytest.param(chunked_file(70, bad, "1 2"), id=f"n70-row{bad}-71-entries")
          for bad in (64, 65, 70)),
        pytest.param(chunked_file(70, 64) + "1 2\n", id="n70-71-rows"),
        pytest.param(chunked_file(70).rsplit("\n", 2)[0] + "\n", id="n70-69-rows"),
    ],
)
def test_read_matrix_matches_per_row_reference(tmp_path, content):
    path = tmp_path / "m.mat"
    path.write_text(content, encoding="utf-8")
    outcomes = []
    for parse in (read_matrix, reference_read_matrix):
        try:
            outcomes.append(parse(path))
        except MatrixFormatError as exc:
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


def test_read_matrix_header_only_raises_no_warning(tmp_path):
    path = tmp_path / "header.mat"
    path.write_text("3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match="expected 3 rows, found 0$"):
            read_matrix(path)


def test_read_matrix_does_not_symmetrize(tmp_path):
    path = tmp_path / "asym.mat"
    path.write_text("2\n1 2\n3 4\n")
    assert np.array_equal(read_matrix(path), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_soft_threshold_values():
    a = np.array([[2.0, -3.0], [-3.0, 0.5]])
    out = soft_threshold(a, 1.0)
    assert np.array_equal(out, np.array([[1.0, -2.0], [-2.0, 0.0]]))


def test_soft_threshold_zero_is_identity():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 6)
    assert np.allclose(soft_threshold(a, 0.0), a)


def test_soft_threshold_rejects_negative():
    with pytest.raises(ValueError):
        soft_threshold(np.eye(2), -0.1)


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        a = random_symmetric(rng, n)
        b = random_symmetric(rng, n)
        t = float(rng.random())
        lhs = fro_norm(soft_threshold(a, t) - soft_threshold(b, t))
        assert lhs <= fro_norm(a - b) + 1e-12


def test_trace_shift_project_hits_target_trace():
    rng = np.random.default_rng(5)
    b = random_symmetric(rng, 9, scale=4.0)
    p = trace_shift_project(b, 3.0)
    assert abs(np.trace(p) - 3.0) <= 1e-12


def test_trace_shift_project_touches_diagonal_only():
    rng = np.random.default_rng(6)
    b = random_symmetric(rng, 7)
    p = trace_shift_project(b, 2.0)
    off = ~np.eye(7, dtype=bool)
    assert np.array_equal(p[off], b[off])


def test_trace_shift_project_is_closest_point():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        b = random_symmetric(rng, n)
        target = float(rng.uniform(-1.0, n))
        p = trace_shift_project(b, target)
        y = random_symmetric(rng, n)
        y = y + (target - np.trace(y)) / n * np.eye(n)
        assert fro_norm(p - b) <= fro_norm(y - b) + 1e-12


def test_spectral_clamp_feasible_and_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = random_symmetric(rng, int(rng.integers(2, 12)), scale=3.0)
        r = spectral_clamp(a)
        w = np.linalg.eigvalsh(r)
        assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12
        assert fro_norm(spectral_clamp(r) - r) <= 1e-10


def test_spectral_clamp_fixes_feasible_input():
    assert np.allclose(spectral_clamp(0.5 * np.eye(4)), 0.5 * np.eye(4))


def few_positive(rng, n, p):
    """Symmetric n x n matrix with p eigenvalues in [0.2, 1.5] and the rest
    in [-2, -0.05], with its eigenvectors in ascending order."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.sort(np.concatenate([rng.uniform(-2.0, -0.05, n - p), rng.uniform(0.2, 1.5, p)]))
    return symmetrize((q * w) @ q.T), q


def dense_bounds(w):
    """The filter's lower end and the largest non-positive eigenvalue that
    clamp_eig keeps from the ascending spectrum w of a dense step."""
    return w[0], w[w <= 0][-1]


def test_spectral_clamp_given_full_decomposition_is_bitwise_dense():
    a = random_symmetric(np.random.default_rng(12), 30, scale=2.0)
    assert np.array_equal(spectral_clamp(a, sym_eig(a)), spectral_clamp(a))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 100, 257])
@pytest.mark.parametrize("positive", ["none", "one", "some", "all"])
def test_spectral_clamp_is_bitwise_symmetric(n, positive):
    # R is the Gram product x x^T, which numpy forms from one triangle; no
    # symmetrization repairs it.
    rng = np.random.default_rng(n)
    p = {"none": 0, "one": 1, "some": max(1, n // 3), "all": n}[positive]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    # p positive eigenvalues from 1.5 down to 0.2, the rest negative.
    a = symmetrize((q * np.concatenate([np.linspace(1.5, 0.2, p), -rng.uniform(0.05, 2.0, n - p)])) @ q.T)
    w, v = eig = sym_eig(a)
    assert np.count_nonzero(w > 0) == p and (p == 0 or w[-1] > 1)
    r = spectral_clamp(a, eig)
    assert np.array_equal(r, r.T)
    # The same pairs in another column order, a strided copy as held_eig
    # hands them.
    order = rng.permutation(n)
    permuted = SpectralDecomposition(w[order], v[:, order])
    assert n == 1 or not permuted.eigenvectors.flags.c_contiguous
    r = spectral_clamp(a, permuted)
    assert np.array_equal(r, r.T)


@pytest.mark.parametrize("n, p", [(30, 0), (60, 1), (96, 8), (150, 20)])
def test_low_rank_clamp_and_its_certificate_are_bitwise_symmetric(monkeypatch, n, p):
    a, q = few_positive(np.random.default_rng(n), n, p)
    factored = []
    has_cholesky = linalg._has_cholesky
    monkeypatch.setattr(linalg, "_has_cholesky",
                        lambda s: factored.append(np.array_equal(s, s.T)) or has_cholesky(s))
    found = warm_positive_eig(a, q[:, -(p + CLAMP_MARGIN):], *dense_bounds(sym_eig(a).eigenvalues))
    assert found is not None and factored and all(factored)
    r = spectral_clamp(a, found[0])
    assert np.array_equal(r, r.T)


@pytest.mark.parametrize("n, p", [(60, 3), (96, 8), (120, 12)])
@pytest.mark.parametrize("eps", [1e-8, 1e-4])
def test_warm_clamp_within_residual_bound_of_dense(n, p, eps):
    rng = np.random.default_rng(n)
    a, _ = few_positive(rng, n, p)
    # The warm basis and the filter's lower end: the top eigenvectors and the
    # lowest eigenvalue of a perturbed copy of a, as after a dense solver
    # step. One filter pass gains about T_12 at the smallest positive
    # eigenvalue over [lo, 0], a few hundred here, so a 1e-8 perturbation
    # (about a late solver step) is certified and 1e-4 need not be.
    w, v = sym_eig(a + eps * random_symmetric(rng, n))
    found = warm_positive_eig(a, v[:, -(p + 8):], *dense_bounds(w))
    if eps > 1e-8 and found is None:
        return
    assert found is not None
    eig, _ = found
    theta, u = eig
    pos = theta > 0
    assert pos.sum() == p
    residual = fro_norm(a @ u[:, pos] - u[:, pos] * theta[pos])
    assert residual <= WARM_RTOL * max(1.0, fro_norm(a))
    r = spectral_clamp(a, eig)
    assert fro_norm(r - spectral_clamp(a)) <= np.sqrt(2) * residual + 1e-12
    assert np.array_equal(r, r.T)
    w = np.linalg.eigvalsh(r)
    assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12


def test_warm_basis_missing_a_positive_eigenvector_fails_certificate():
    n, p = 90, 6
    a, q = few_positive(np.random.default_rng(13), n, p)
    # Exact eigenvectors, so the Ritz residual is tiny: the smallest positive
    # one (column n - p) is swapped for the next negative one.
    basis = np.delete(q, n - p, axis=1)[:, -(p + 8):]
    bounds = dense_bounds(sym_eig(a).eigenvalues)
    assert warm_positive_eig(a, basis, *bounds) is None
    assert warm_positive_eig(a, q[:, -(p + 8):], *bounds) is not None
    assert np.array_equal(spectral_clamp(a, sym_eig(a)), spectral_clamp(a))


@pytest.mark.parametrize("lifted", ["margin", "outside"])
def test_anchor_does_not_certify_a_lifted_eigenvalue(monkeypatch, lifted):
    n, p = 90, 6
    a, q = few_positive(np.random.default_rng(18), n, p)
    basis, bounds = q[:, -(p + CLAMP_MARGIN):], dense_bounds(sym_eig(a).eigenvalues)
    _, anchor = warm_positive_eig(a, basis, *bounds)
    assert anchor is not None
    factors = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(linalg.np.linalg, "cholesky", lambda s: factors.append(s) or cholesky(s))
    # The same matrix is certified by the anchor alone.
    again = warm_positive_eig(a, basis, *bounds, anchor)
    assert again is not None and again[1] is anchor and not factors

    # Lift one eigenvalue of the complement of U+ to 0.05: the largest
    # non-positive one, which the basis holds as a margin column, or the
    # lowest, which lies outside the basis.
    j = n - p - 1 if lifted == "margin" else 0
    v = q[:, j]
    lifted_a = a + (0.05 - v @ a @ v) * np.outer(v, v)
    found = warm_positive_eig(lifted_a, basis, *bounds, anchor)
    assert found is None or np.count_nonzero(found[0].eigenvalues > 0) == p + 1
    if found is not None:
        assert fro_norm(spectral_clamp(lifted_a, found[0]) - spectral_clamp(lifted_a)) <= 1e-8


def test_warm_basis_wider_than_a_third_goes_dense(monkeypatch):
    # At n = 60, p positive eigenvalues keep p + CLAMP_MARGIN columns, up to n / 3.
    n = 60
    rng = np.random.default_rng(14)
    narrow, _ = few_positive(rng, n, n // 3 - CLAMP_MARGIN)
    wide, _ = few_positive(rng, n, n // 3 - CLAMP_MARGIN + 1)
    _, warm = clamp_eig(narrow, WarmStart())
    assert warm.basis.shape == (n, n // 3)
    # Without its held eigenvectors the due call takes the low-rank path.
    eig, warm = clamp_eig(narrow, warm._replace(vectors=None))
    assert eig.eigenvalues.size == n // 3 and warm.basis.shape == (n, n // 3)
    assert (warm.misses, warm.wait) == (0, 0)

    _, warm = clamp_eig(wide, WarmStart())
    assert warm.basis is None and warm.vectors.shape == (n, n)
    assert (warm.misses, warm.wait) == (0, 0)
    calls = []
    monkeypatch.setattr(linalg, "sym_eig", lambda a: calls.append(a) or sym_eig(a))
    # The next call is due and has no basis, but the held eigenvectors
    # still diagonalize the same matrix: no eigh and no miss.
    eig, warm = clamp_eig(wide, warm)
    assert not calls and eig.eigenvalues.size == n
    assert warm.basis is None and warm.vectors.shape == (n, n)
    assert (warm.misses, warm.wait) == (0, 0)
    # Other eigenvectors fail that check, and with no basis the call runs
    # eigh and counts a miss.
    other, _ = few_positive(rng, n, n // 3 - CLAMP_MARGIN + 1)
    eig, warm = clamp_eig(other, warm)
    assert len(calls) == 1 and eig.eigenvalues.size == n
    assert warm.basis is None and warm.vectors is None and (warm.misses, warm.wait) == (1, 1)


def test_clamp_eig_backs_off_while_the_warm_path_fails(monkeypatch):
    # Two matrices with different eigenvectors, stepped in turn, so a due
    # call's held eigenvectors, from the call before, never diagonalize it.
    rng = np.random.default_rng(15)
    mats = [few_positive(rng, 60, 3)[0] for _ in range(2)]
    attempts, checks = [], []
    held = linalg.held_eig
    monkeypatch.setattr(linalg, "held_eig", lambda a, v: checks.append(held(a, v)))
    monkeypatch.setattr(linalg, "warm_positive_eig", lambda a, basis, *_: attempts.append(basis))
    warm, due, waits = WarmStart(), [], []
    for call in range(400):
        tried = len(attempts)
        eig, warm = clamp_eig(mats[call % 2], warm)
        assert eig.eigenvalues.size == 60
        # A basis is handed on exactly when the next call is due.
        if warm.wait:
            assert warm.basis is None and warm.vectors is None
        else:
            assert warm.basis.shape == (60, 3 + CLAMP_MARGIN)
        if len(attempts) > tried:
            due.append(call)
            waits.append(warm.wait)
            assert warm.misses == len(due)
    # Each due call first tried its held eigenvectors, which failed.
    assert len(checks) == len(due) and all(c is None for c in checks)
    # Due calls wait 1, 2, 4, ... calls, up to MAX_WAIT; the first call skips.
    assert waits == [1, 2, 4, 8, 16, 32] + [MAX_WAIT] * 6
    assert due[0] == 1
    assert np.diff(due).tolist() == [w + 1 for w in waits[:-1]]


def symmetric_circulant(rng, n):
    """A random symmetric circulant, whose eigenvalues come in degenerate
    pairs, about a third of them positive."""
    row = rng.standard_normal(n // 2 + 1)
    first = np.concatenate([row, row[1:(n + 1) // 2][::-1]])
    c = np.array([np.roll(first, k) for k in range(n)])
    return c - np.quantile(np.linalg.eigvalsh(c), 2 / 3) * np.eye(n)


@pytest.mark.parametrize("shared", ["circulant", "random"])
def test_held_eig_accepts_a_shared_eigenbasis(shared):
    rng = np.random.default_rng(40)
    n = 48
    if shared == "circulant":
        first, a = symmetric_circulant(rng, n), symmetric_circulant(rng, n)
        # Every eigenvalue but those of the constant and alternating vectors
        # is a degenerate pair, within which eigh picks any basis.
        assert np.count_nonzero(np.diff(sym_eig(first).eigenvalues) < 1e-12) == n // 2 - 1
    else:
        first, q = few_positive(rng, n, 10)
        a = symmetrize((q * rng.uniform(-2.0, 1.5, n)) @ q.T)
    v = sym_eig(first).eigenvectors
    eig = held_eig(a, v)
    assert eig is not None
    w, u = eig
    assert np.all(np.diff(w) >= 0)
    b = v.T @ a @ v
    assert np.array_equal(np.sort(np.diag(b)), w)
    assert np.array_equal(u, v[:, np.argsort(np.diag(b), kind="stable")])
    off = fro_norm(b - np.diag(np.diag(b)))
    assert off <= WARM_RTOL * max(1.0, fro_norm(a))
    r = spectral_clamp(a, eig)
    assert np.array_equal(r, r.T)
    assert fro_norm(r - spectral_clamp(a)) <= off + 1e-12


def test_held_eig_refuses_a_rotated_basis():
    a, q = few_positive(np.random.default_rng(41), 40, 5)
    assert held_eig(a, q) is not None
    # A Givens rotation by 1e-6 mixes a positive and a negative eigenvector.
    i, j, t = 39, 0, 1e-6
    rotated = q.copy()
    rotated[:, [i, j]] = q[:, [i, j]] @ np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    assert held_eig(a, rotated) is None


@pytest.mark.parametrize("fault", ["nan", "inf"])
def test_held_eig_refuses_non_finite_entries(fault):
    a, q = few_positive(np.random.default_rng(42), 40, 5)
    a[3, 7] = a[7, 3] = float(fault)
    assert held_eig(a, q) is None


def test_failed_held_check_falls_through_to_the_low_rank_path(monkeypatch):
    a, q = few_positive(np.random.default_rng(43), 60, 3)
    other = few_positive(np.random.default_rng(44), 60, 3)[1]
    basis = q[:, -(3 + CLAMP_MARGIN):]
    lo, hi = dense_bounds(sym_eig(a).eigenvalues)
    calls = []
    monkeypatch.setattr(linalg, "sym_eig", lambda m: calls.append(m) or sym_eig(m))
    due = WarmStart(basis, misses=2, wait=0, lo=lo, hi=hi, vectors=other)
    # The held check fails; the low-rank path certifies in the same call.
    eig, warm = clamp_eig(a, due)
    assert not calls and eig.eigenvalues.size == basis.shape[1]
    assert (warm.misses, warm.wait) == (0, 0) and warm.vectors is None
    # Only when both fail is the call a miss, which runs eigh.
    eig, warm = clamp_eig(a, due._replace(basis=None))
    assert len(calls) == 1 and eig.eigenvalues.size == 60
    assert (warm.misses, warm.wait) == (3, 4) and warm.vectors is None
    # A held result alone is no miss either.
    monkeypatch.setattr(linalg, "warm_positive_eig", lambda *_: pytest.fail("low-rank path tried"))
    eig, warm = clamp_eig(a, due._replace(vectors=q))
    assert len(calls) == 1 and eig.eigenvalues.size == 60
    assert (warm.misses, warm.wait) == (0, 0) and warm.vectors.shape == (60, 60)


def test_clamp_eig_success_resets_misses():
    a, q = few_positive(np.random.default_rng(16), 60, 3)
    basis = q[:, -(3 + CLAMP_MARGIN):]
    lo, hi = dense_bounds(sym_eig(a).eigenvalues)
    eig, warm = clamp_eig(a, WarmStart(basis, misses=5, wait=0, lo=lo, hi=hi))
    assert eig.eigenvalues.size == basis.shape[1]
    assert warm.basis.shape == basis.shape and (warm.misses, warm.wait) == (0, 0)


def test_fresh_warm_start_skips_its_first_call(monkeypatch):
    a, q = few_positive(np.random.default_rng(17), 60, 3)
    monkeypatch.setattr(linalg, "warm_positive_eig", lambda *_: pytest.fail("warm path tried"))
    # Even given a basis, the first call runs eigh and counts no miss.
    for first in (WarmStart(), WarmStart(basis=q[:, -(3 + CLAMP_MARGIN):])):
        eig, warm = clamp_eig(a, first)
        assert np.array_equal(spectral_clamp(a, eig), spectral_clamp(a))
        assert (warm.misses, warm.wait) == (0, 0)


def test_sym_eig_failure_names_the_matrix_size(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg.np.linalg, "eigh", no_convergence)
    with pytest.raises(linalg.EigenSolverError,
                       match=r"^eigendecomposition of 5x5 matrix .* did not converge") as info:
        sym_eig(np.eye(5))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("fault", ["nan", "inf", "lo = 0", "lo > 0"])
def test_warm_positive_eig_refuses_bad_input(fault):
    a, q = few_positive(np.random.default_rng(19), 40, 3)
    basis = q[:, -(3 + CLAMP_MARGIN):]
    lo, hi = dense_bounds(sym_eig(a).eigenvalues)
    assert warm_positive_eig(a, basis, lo, hi) is not None
    if fault in ("nan", "inf"):
        a[0, 0] = float(fault)
    else:
        lo = 0.0 if fault == "lo = 0" else 0.5
    assert warm_positive_eig(a, basis, lo, hi) is None


def test_sym_eig_reconstructs():
    rng = np.random.default_rng(9)
    a = random_symmetric(rng, 14, scale=2.0)
    dec = sym_eig(a)
    assert isinstance(dec, SpectralDecomposition)
    w, v = dec
    assert np.all(np.diff(w) >= 0)
    assert fro_norm((v * w) @ v.T - a) <= 1e-10
    assert fro_norm(v.T @ v - np.eye(14)) <= 1e-12


def test_trace_product_matches_dense():
    rng = np.random.default_rng(10)
    a = random_symmetric(rng, 8)
    b = random_symmetric(rng, 8)
    assert trace_product(a, b) == pytest.approx(np.trace(a @ b), rel=1e-12)


def test_trace_product_rejects_mismatch():
    with pytest.raises(ValueError):
        trace_product(np.eye(2), np.eye(3))


def test_norms_match_numpy():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    assert fro_norm(a) == pytest.approx(np.linalg.norm(a))
    assert entrywise_l1(a) == pytest.approx(np.abs(a).sum())
