"""LIBSVM IO, sharding, the logistic objective and its constants."""

import hashlib
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, strategies as st

import markosparse
from markosparse.errors import InvalidArgumentError, ParseError
from markosparse.objectives import (
    Dataset,
    ShardedProblem,
    _sum_rows,
    load_libsvm,
    parse_libsvm,
    partition,
    separable_binary_dataset,
    serialize_libsvm,
)
from problems import (
    QuadraticProblem,
    global_smoothness,
    heterogeneous_problem,
    loss_and_gradient,
    synthetic_binary_dataset,
)


def test_parse_basic_shape(tiny_dataset):
    assert tiny_dataset.n_rows == 4
    assert tiny_dataset.d == 4
    np.testing.assert_array_equal(tiny_dataset.y, [1.0, -1.0, 1.0, -1.0])
    assert tiny_dataset.X[0, 0] == 0.5
    assert tiny_dataset.X[0, 2] == -1.25


def test_parse_returns_a_scipy_csr_matrix(tiny_dataset):
    # scipy loads on first use, and the rows are still a real csr_matrix
    assert isinstance(tiny_dataset.X, sp.csr_matrix)
    assert isinstance(synthetic_binary_dataset(5, 4, 2, seed=1).X, sp.csr_matrix)


def test_parse_label_conventions():
    assert parse_libsvm("0 1:1\n1 1:2\n").y.tolist() == [-1.0, 1.0]
    assert parse_libsvm("1 1:1\n2 1:2\n").y.tolist() == [-1.0, 1.0]
    assert parse_libsvm("-1 1:1\n+1 1:2\n").y.tolist() == [-1.0, 1.0]
    # {-1, 1} wins over {1, 2} when only label 1 appears
    assert parse_libsvm("1 1:5\n").y.tolist() == [1.0]


def test_parse_rejects_unmappable_labels():
    with pytest.raises(ParseError) as err:
        parse_libsvm("0 1:1\n1 1:1\n5 1:1\n")
    assert err.value.line_no == 3
    with pytest.raises(ParseError) as err:
        parse_libsvm("0 1:1\n2 1:1\n")  # no encoding holds both 0 and 2
    assert err.value.line_no == 2


def test_parse_rejects_disordered_indices():
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 3:1 2:1\n")
    assert err.value.line_no == 1
    with pytest.raises(ParseError):
        parse_libsvm("+1 2:1 2:1\n")  # repeated index


def test_parse_dim_handling():
    ds = parse_libsvm("+1 2:1\n", dim=6)
    assert ds.d == 6
    with pytest.raises(InvalidArgumentError):
        parse_libsvm("+1 7:1\n", dim=3)


def test_serialize_round_trip(tiny_dataset):
    text = serialize_libsvm(tiny_dataset)
    again = parse_libsvm(text, dim=tiny_dataset.d)
    np.testing.assert_array_equal(again.y, tiny_dataset.y)
    assert (again.X != tiny_dataset.X).nnz == 0


def dataset_digest(ds):
    """SHA-256 over every array's dtype and bytes, then d."""
    h = hashlib.sha256()
    for a in (ds.X.data, ds.X.indices, ds.X.indptr, ds.y):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    h.update(str(ds.d).encode())
    return h.hexdigest()


def parse_outcome(parse, source):
    """The Dataset digest, or the ParseError's (line, message)."""
    try:
        return dataset_digest(parse(source))
    except ParseError as err:
        return err.line_no, str(err)


def load_text(tmp_path, text):
    # the text's exact characters on disk, line ends untranslated
    path = tmp_path / "data.libsvm"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return load_libsvm(str(path))


def test_mushrooms_dataset_is_pinned(mushrooms_path):
    # recorded from the line-by-line parser
    expected = "0d00ecb78fbdd01bd54e2a2ee6d56332d280a76a3ee12289d3e3d3ee35c9ecaa"
    assert dataset_digest(load_libsvm(mushrooms_path)) == expected
    assert dataset_digest(load_libsvm(mushrooms_path, dim=112)) == expected


def test_generate_data_reproduces_the_shipped_dataset(tmp_path, mushrooms_path):
    # the script writes ../data/ beside its own directory, so a copy of it
    # writes under tmp_path and the shipped file is only read
    shutil.copytree(os.path.join(os.path.dirname(mushrooms_path), "..", "scripts"),
                    tmp_path / "scripts")
    (tmp_path / "data").mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(markosparse.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(tmp_path / "scripts" / "generate_data.py")], env=env,
                   capture_output=True, timeout=120, check=True)
    with open(mushrooms_path, "rb") as fh:
        assert (tmp_path / "data" / "mushrooms_synth.libsvm").read_bytes() == fh.read()


def _lines(n, bad, good="+1 1:1 5:2"):
    """n lines of `good`, with line k (1-based) replaced by bad[k]."""
    return "".join(bad.get(k, good) + "\n" for k in range(1, n + 1))


# (text, line, message), recorded from the line-by-line parser
PARSE_ERRORS = [
    ("abc 1:1\n", 1, "bad label token 'abc'"),
    ("0 1:1\n1 1:1\n5 1:1\n", 3, "label '5' does not fit any accepted encoding"),
    ("0 1:1\n2 1:1\n", 2, "label '2' does not fit any accepted encoding"),
    ("1 1:1\n2 1:1\n-1 1:1\n", 3, "label '-1' does not fit any accepted encoding"),
    ("-0 1:1\n+1.0 1:2\n1e0 2:1\n2 1:1\n", 4, "label '2' does not fit any accepted encoding"),
    ("nan 1:1\n", 1, "label 'nan' does not fit any accepted encoding"),
    ("1_0 1:1\n", 1, "label '1_0' does not fit any accepted encoding"),
    ("+1 bad\n", 1, "expected idx:val, got 'bad'"),
    ("+1 1:1 4\n", 1, "expected idx:val, got '4'"),
    ("+1 1:x\n", 1, "bad feature token '1:x'"),
    ("+1 a:1\n", 1, "bad feature token 'a:1'"),
    ("+1 1:2:3 4\n", 1, "bad feature token '1:2:3'"),
    ("+1 1:\n", 1, "bad feature token '1:'"),
    ("+1 :1\n", 1, "bad feature token ':1'"),
    ("+1 1::2\n", 1, "bad feature token '1::2'"),
    ("-1 1:1 2:-inf 3:nan 4:1e400 5:0x1\n", 1, "bad feature token '5:0x1'"),
    ("+1 1:1 é:2\n", 1, "bad feature token 'é:2'"),
    ("+1 0:1\n", 1, "index 0 must be >= 1"),
    ("+1 -2:1\n", 1, "index -2 must be >= 1"),
    ("+1 3:1 2:1\n", 1, "indices not strictly increasing at '2:1'"),
    ("+1 2:1 2:1\n", 1, "indices not strictly increasing at '2:1'"),
    ("+1 +3:1 1_0:inf 5:1\n", 1, "indices not strictly increasing at '5:1'"),
    ("+1 ٣:1 2:1\n", 1, "indices not strictly increasing at '2:1'"),
    ("+1\t1:1\t\t3:1 2:1\n", 1, "indices not strictly increasing at '2:1'"),
    # the first bad line wins, and a line's label before its features
    ("+1 1:1\n+1 3:1 2:1\n+1 bad\nxx 1:1\n", 2, "indices not strictly increasing at '2:1'"),
    ("1 1:1\n-1 2:1 1:1\n0 1:1\n", 2, "indices not strictly increasing at '1:1'"),
    ("+1 1:1\n\n\n7 bad\n", 4, "label '7' does not fit any accepted encoding"),
    ("x 1:y\n", 1, "bad label token 'x'"),
    # across blocks of lines
    (_lines(300, {10: "-1 3:1 2:1", 290: "+1 bad"}), 10, "indices not strictly increasing at '2:1'"),
    (_lines(300, {10: "+1 bad", 290: "-1 3:1 2:1"}), 10, "expected idx:val, got 'bad'"),
    (_lines(600, {280: "5 1:1", 513: "+1 1:1 1:2"}), 280, "label '5' does not fit any accepted encoding"),
    (_lines(600, {513: "+1 1:1 1:2", 514: "+1 :"}), 513, "indices not strictly increasing at '1:2'"),
]


@pytest.mark.parametrize("text, line, message", PARSE_ERRORS,
                         ids=[f"case{k}" for k in range(len(PARSE_ERRORS))])
def test_parse_errors_are_pinned(tmp_path, text, line, message):
    expected = (line, f"line {line}: {message}")
    assert parse_outcome(parse_libsvm, text) == expected
    assert parse_outcome(lambda t: load_text(tmp_path, t), text) == expected


# characters str.splitlines() ends a line at but a file read does not
@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
@pytest.mark.parametrize("tail", ["", "+1 bad\n"])
def test_string_and_file_split_lines_alike(tmp_path, char, tail):
    text = f"+1 1:1{char}2:1\r-1 1:1\r\n{char}{tail}"
    from_file = parse_outcome(lambda t: load_text(tmp_path, t), text)
    assert parse_outcome(parse_libsvm, text) == from_file
    if tail:
        assert from_file == (3, "line 3: expected idx:val, got 'bad'")
    else:
        assert from_file == dataset_digest(parse_libsvm(["+1 1:1 2:1", "-1 1:1"]))


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    path = tmp_path / "data.libsvm"
    path.write_bytes(b"+1 1:1\r-1 2:1\r\n\n+1 1:\xe9\n")
    with pytest.raises(ParseError, match=r"^line 4: invalid UTF-8 byte 0xe9$"):
        load_libsvm(str(path))
    # an earlier malformed line still wins
    path.write_bytes(b"+1 1:1\n+1 bad\n+1 1:\xff\n")
    with pytest.raises(ParseError, match="^line 2: expected idx:val"):
        load_libsvm(str(path))


def test_index_past_int32_columns_is_a_parse_error():
    assert parse_libsvm(f"+1 {2**31}:1\n").d == 2**31
    for text in (f"+1 1:1\n-1 {2**31 + 1}:1\n", f"+1 1:1\n-1 2:1 {10**30}:1\n"):
        with pytest.raises(ParseError, match=r"^line 2: index \d+ must be <= 2147483648$"):
            parse_libsvm(text)


_ENCODINGS = {"-1/+1": ("-1", "+1"), "0/1": ("0", "1"), "1/2": ("1", "2")}
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308]


@st.composite
def sparse_datasets(draw):
    d = draw(st.integers(1, 7))
    values = st.one_of(st.sampled_from(_EDGE_VALUES),
                       st.floats(allow_nan=False, allow_infinity=False))
    indices, data, indptr = [], [], [0]
    rows = draw(st.lists(st.lists(st.integers(0, d - 1), unique=True), min_size=1, max_size=12))
    for cols in rows:
        indices += sorted(cols)
        data += [draw(values) for _ in cols]
        indptr.append(len(indices))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                               min_size=len(rows), max_size=len(rows))))
    X = sp.csr_matrix((np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32)), shape=(len(rows), d))
    return Dataset(X, y, d)


@given(ds=sparse_datasets(), encoding=st.sampled_from(sorted(_ENCODINGS)))
def test_serialize_parse_round_trip_is_bit_exact(ds, encoding):
    negative, positive = _ENCODINGS[encoding]
    # a lone raw label 1 reads as +1 under the -1/+1 precedence
    assume(encoding != "1/2" or (ds.y > 0).any())
    lines = []
    for line in serialize_libsvm(ds).splitlines():
        label, sep, rest = line.partition(" ")
        lines.append((positive if label == "1" else negative) + sep + rest)
    again = parse_libsvm("\n".join(lines) + "\n", dim=ds.d)
    assert dataset_digest(again) == dataset_digest(ds)


def test_round_trip_across_token_table_clears_is_bit_exact(tmp_path):
    # 600 rows of distinct values span three of the parser's 256-line token
    # tables; the token "2:0.5" on lines 250 and 260 lies in the first two
    rng = np.random.default_rng(7)
    X = rng.standard_normal((600, 4))
    X[[249, 259], 1] = 0.5
    ds = Dataset(sp.csr_matrix(X), np.where(rng.random(600) < 0.5, 1.0, -1.0), 4)
    text = serialize_libsvm(ds)
    lines = text.splitlines()
    assert lines[249].split()[2] == lines[259].split()[2] == "2:0.5"
    assert dataset_digest(parse_libsvm(text)) == dataset_digest(ds)
    assert dataset_digest(load_text(tmp_path, text)) == dataset_digest(ds)


def test_partition_covers_rows_once():
    ds = synthetic_binary_dataset(23, 6, 2, seed=0)
    prob = partition(ds, 4, np.random.default_rng(5), lam=0.1)
    sizes = [s.n_rows for s in prob.shards]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1
    rows = sorted(tuple(s.row_pairs(i)) for s in prob.shards for i in range(s.n_rows))
    original = sorted(tuple(ds.row_pairs(i)) for i in range(ds.n_rows))
    assert rows == original


def test_partition_is_deterministic_in_the_generator_seed():
    ds = synthetic_binary_dataset(20, 5, 2, seed=1)
    a = partition(ds, 3, np.random.default_rng(7), lam=0.0)
    b = partition(ds, 3, np.random.default_rng(7), lam=0.0)
    for sa, sb in zip(a.shards, b.shards):
        assert (sa.X != sb.X).nnz == 0
        np.testing.assert_array_equal(sa.y, sb.y)


def test_partition_rejects_more_shards_than_rows():
    ds = synthetic_binary_dataset(3, 4, 1, seed=2)
    with pytest.raises(InvalidArgumentError):
        partition(ds, 5, np.random.default_rng(0))


def test_gradient_matches_finite_differences():
    ds = synthetic_binary_dataset(30, 7, 3, seed=4)
    rng = np.random.default_rng(8)
    lam = 0.05
    for _ in range(100):
        w = rng.standard_normal(7)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        _, g = loss_and_gradient(w, ds, lam)
        h = 1e-6
        fp, _ = loss_and_gradient(w + h * v, ds, lam)
        fm, _ = loss_and_gradient(w - h * v, ds, lam)
        directional = (fp - fm) / (2 * h)
        assert directional == pytest.approx(float(g @ v), rel=1e-6, abs=1e-10)


def test_loss_is_stable_at_huge_margins():
    ds = parse_libsvm("+1 1:1\n-1 1:1\n")
    f, g = loss_and_gradient(np.array([800.0]), ds, 0.0)
    assert np.isfinite(f) and np.all(np.isfinite(g))
    assert f == pytest.approx(400.0)  # the misclassified row dominates


def test_estimate_smoothness_matches_dense_eigenvalue():
    ds = synthetic_binary_dataset(25, 6, 3, seed=5)
    lam = 0.07
    L = global_smoothness(ShardedProblem((ds,), lam))
    dense = ds.X.toarray()
    expect = np.linalg.eigvalsh(dense.T @ dense).max() / (4 * ds.n_rows) + 2 * lam
    assert L == pytest.approx(expect, rel=1e-6)


def test_estimate_smoothness_zero_matrix():
    ds = parse_libsvm("+1 1:0\n", dim=3)
    assert global_smoothness(ShardedProblem((ds,), 0.5)) == pytest.approx(1.0)


def assert_stacked_matches_shards(prob, w):
    losses, grads = prob.shard_loss_grads(w)
    assert prob.shard_grads(w).tobytes() == grads.tobytes()
    if isinstance(prob, QuadraticProblem):
        per = [prob.shard_loss_grad(w, i) for i in range(prob.n)]
    else:
        per = [loss_and_gradient(w, s, prob.lam) for s in prob.shards]
    assert losses.shape == (prob.n,) and grads.shape == (prob.n, prob.d)
    for i, (loss, grad) in enumerate(per):
        assert losses[i].tobytes() == np.float64(loss).tobytes()
        assert grads[i].tobytes() == np.asarray(grad).tobytes()


def test_stacked_evaluation_matches_each_shard_bit_for_bit(mushrooms_path):
    rng = np.random.default_rng(9)
    # 41 rows over 4 shards: sizes 11, 10, 10, 10
    uneven = partition(synthetic_binary_dataset(41, 9, 4, seed=2), 4, rng, lam=0.03)
    assert [s.n_rows for s in uneven.shards] == [11, 10, 10, 10]
    dense = heterogeneous_problem(n=3, d=5, rows_per_shard=17, shift=1.5, lam=0.1, seed=4)
    quadratic = QuadraticProblem(rng.standard_normal((5, 6)))
    # shards past numpy's 128-element pairwise block, in runs of equal sizes:
    # mushrooms over 7 clients (286 x 5, then 285 x 2), and hand-built
    # shards of 300, 130, 130, 300 and 7 rows
    mushrooms = load_libsvm(mushrooms_path)
    seven = partition(mushrooms, 7, rng, lam=0.01)
    assert [s.n_rows for s in seven.shards] == [286] * 5 + [285] * 2
    bounds = np.cumsum([0, 300, 130, 130, 300, 7])
    runs = ShardedProblem(tuple(Dataset(mushrooms.X[a:b], mushrooms.y[a:b], mushrooms.d)
                                for a, b in zip(bounds[:-1], bounds[1:])), 0.02)
    for prob in (uneven, dense, quadratic, seven, runs):
        # w = 0 gives signed-zero margins; 1e3 saturates every margin
        for scale in (0.0, 0.1, 1.0, 30.0, 1e3):
            assert_stacked_matches_shards(prob, scale * rng.standard_normal(prob.d))
    # an inf entry, and a -inf one whose rows sharing both get NaN margins:
    # the same non-finite entries as each shard's own evaluation
    for prob in (uneven, seven, runs):
        w = rng.standard_normal(prob.d)
        w[[1, 5]] = math.inf, -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = prob.shard_loss_grads(w)
            assert prob.shard_grads(w).tobytes() == grads.tobytes()
            per = [loss_and_gradient(w, s, prob.lam) for s in prob.shards]
        assert not np.isfinite(grads).all() and np.isfinite(grads).any()
        np.testing.assert_array_equal(np.isfinite(losses), [math.isfinite(l) for l, _ in per])
        np.testing.assert_array_equal(np.isfinite(grads), np.isfinite([g for _, g in per]))


def test_row_sums_equal_the_last_running_sum_bit_for_bit():
    # the rows added one after another: np.add.reduce down a C-ordered
    # (n, d > 1) array, the running sum for every other input
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
              for shape in [(n, d) for n in (1, 2, 3, 10, 17, 130) for d in (1, 2, 9, 112, 300)]]
    signed = np.array([[-0.0, 0.0, -0.0, 1e308, np.inf], [-0.0, -0.0, 0.0, 1e308, -np.inf]])
    wide = rng.standard_normal((10, 112))
    arrays += [signed, signed[:1], np.asfortranarray(wide), wide[:, ::3], wide[::2],
               wide[0], rng.standard_normal(300)]
    assert not arrays[-4].flags.c_contiguous and not arrays[-5].flags.c_contiguous
    for a in arrays:
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _sum_rows(a), np.add.accumulate(a)[-1]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), a.shape


def test_full_loss_is_mean_of_shards(small_problem):
    w = np.linspace(-1, 1, small_problem.d)
    f, g = small_problem.full_loss_grad(w)
    per = [loss_and_gradient(w, s, small_problem.lam) for s in small_problem.shards]
    assert f == pytest.approx(np.mean([p[0] for p in per]))
    np.testing.assert_allclose(g, np.mean([p[1] for p in per], axis=0), atol=1e-12)
    # exactly: the shards summed one after another in shard order
    loss, grad = 0.0, np.zeros(small_problem.d)
    for l_i, g_i in per:
        loss += l_i
        grad += g_i
    assert f == loss / small_problem.n
    assert g.tobytes() == (grad / small_problem.n).tobytes()


def test_quadratic_problem_protocol():
    centers = np.array([[1.0, 2.0], [3.0, 4.0]])
    prob = QuadraticProblem(centers)
    x = np.array([0.0, 0.0])
    f, g = prob.shard_loss_grad(x, 1)
    assert f == pytest.approx(0.5 * 25.0)
    np.testing.assert_array_equal(g, x - centers[1])
    _, g_full = prob.full_loss_grad(x)
    np.testing.assert_allclose(g_full, x - centers.mean(axis=0))


def test_synthetic_generator_shapes_and_determinism():
    a = synthetic_binary_dataset(15, 9, 4, seed=3)
    b = synthetic_binary_dataset(15, 9, 4, seed=3)
    assert a.n_rows == 15 and a.d == 9
    assert (a.X != b.X).nnz == 0
    np.testing.assert_array_equal(a.y, b.y)
    assert (a.X.getnnz(axis=1) == 4).all()
    with pytest.raises(InvalidArgumentError):
        synthetic_binary_dataset(5, 4, 9, seed=0)


def test_separable_generator_uses_class_exclusive_columns():
    ds = separable_binary_dataset(50, 12, 3, seed=9)
    half = 6
    for i in range(ds.n_rows):
        cols = ds.X[i].indices
        if ds.y[i] > 0:
            assert cols.max() < half
        else:
            assert cols.min() >= half
    assert (ds.X.getnnz(axis=1) == 3).all()
    with pytest.raises(InvalidArgumentError):
        separable_binary_dataset(10, 12, 7, seed=0)


def test_heterogeneous_problem_shards_disagree_at_optimum():
    prob = heterogeneous_problem(n=4, d=6, rows_per_shard=30, shift=1.5, lam=0.1, seed=2)
    assert len(prob.shards) == 4
    w = np.zeros(6)
    grads = [loss_and_gradient(w, s, prob.lam)[1] for s in prob.shards]
    spread = max(float(np.linalg.norm(g - grads[0])) for g in grads)
    assert spread > 0.1


@given(st.integers(0, 2**31 - 1))
def test_separable_generator_is_deterministic(seed):
    a = separable_binary_dataset(6, 8, 2, seed=seed)
    b = separable_binary_dataset(6, 8, 2, seed=seed)
    assert (a.X != b.X).nnz == 0
    np.testing.assert_array_equal(a.y, b.y)
