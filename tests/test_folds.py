"""Per-point reductions: ``plucker._fold`` gives numpy's reductions bit for bit,
and no other code in the package reduces the short rows of a batch itself."""

import ast
import pathlib

import numpy as np
import pytest

from grassmoment.plucker import _fold

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "grassmoment"

#: Signed zeros, NaN, infinities, subnormals and the smallest normal, next to plain values.
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
                     2.2250738585072014e-308, 1.0, -2.5])

NUMPY = {"max": np.max, "min": np.min, "sum": np.sum, "norm": np.linalg.norm}


def _rows(rng, shape):
    """Random values with about half of the entries drawn from SPECIALS."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    return np.where(rng.uniform(size=shape) < 0.5, rng.choice(SPECIALS, size=shape), x)


def _same_bits(a, b):
    """Same shape, dtype and bits; any NaN matches any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype.kind in "fc":
        a, b = a.view(np.float64), b.view(np.float64)
        return bool(np.all((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("op,length", [(op, k) for op in ("max", "min") for k in range(2, 9)]
                         + [("sum", k) for k in range(2, 8)])
@pytest.mark.parametrize("count", [0, 1, 2000])
def test_fold_equals_numpy_bit_for_bit(op, length, count):
    rng = np.random.default_rng(1000 * length + count)
    x = _rows(rng, (count, length))
    with np.errstate(invalid="ignore", over="ignore"):
        assert _same_bits(_fold(op, x), NUMPY[op](x, axis=-1))
        assert _same_bits(_fold(op, x, keepdims=True), NUMPY[op](x, axis=-1, keepdims=True))
        point = x[0] if count else _rows(rng, length)
        assert isinstance(_fold(op, point), np.float64)
        assert _same_bits(_fold(op, point), NUMPY[op](point, axis=-1))


@pytest.mark.parametrize("op", ["max", "min"])
def test_fold_past_8_entries_differs_from_numpy_only_in_the_sign_of_a_zero_tie(op):
    # numpy's vector loop takes 9 or more entries in another order, and 0.0 and -0.0
    # compare equal, so a row holding both may reduce to either.
    x = _rows(np.random.default_rng(9), (2000, 9))
    with np.errstate(invalid="ignore"):
        folded, reduced = _fold(op, x), NUMPY[op](x, axis=-1)
    ties = np.any(x == 0.0, axis=-1) & (folded == 0.0)
    assert _same_bits(folded[~ties], reduced[~ties])
    assert np.array_equal(folded[ties], reduced[ties])


@pytest.mark.parametrize("count", [0, 1, 2000])
def test_complex_sums_norms_and_pair_axis_sums_equal_numpy(count):
    rng = np.random.default_rng(count)
    z = np.empty((count, 6), dtype=complex)
    z.real, z.imag = _rows(rng, (count, 6)), _rows(rng, (count, 6))
    pairs, pair_point = _rows(rng, (count, 6, 4)), _rows(rng, (6, 4))
    with np.errstate(invalid="ignore", over="ignore"):
        for length in range(2, 7):  # 4 complex entries are 8 real numbers: numpy sums pairwise
            assert _same_bits(_fold("sum", z[:, :length]), np.sum(z[:, :length], axis=-1))
        assert _same_bits(_fold("norm", z), np.linalg.norm(z, axis=-1))
        assert _same_bits(_fold("norm", z, keepdims=True), np.linalg.norm(z, axis=-1, keepdims=True))
        assert _same_bits(_fold("sum", pairs, axis=-2), np.sum(pairs, axis=-2))
        assert _same_bits(_fold("sum", pair_point, axis=-2), np.sum(pair_point, axis=-2))


def test_norm_folds_the_conjugate_product_not_the_squared_parts():
    # |z|^2 as z.real**2 + z.imag**2 rounds otherwise in some rows: the fold must
    # square as np.linalg.norm does, through (z.conj() * z).real.
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2000, 6)) + 1j * rng.normal(size=(2000, 6))
    assert _same_bits(_fold("norm", z), np.sqrt(_fold("sum", (z.conj() * z).real)))
    assert _same_bits(_fold("norm", z), np.linalg.norm(z, axis=-1))
    assert not _same_bits(_fold("norm", z), np.sqrt(_fold("sum", z.real ** 2 + z.imag ** 2)))


def test_long_sums_and_bool_counts_are_numpy_sums():
    rng = np.random.default_rng(8)
    for length in (8, 10, 15):  # pairwise summation from 8 entries: numpy's own reduction
        x = rng.normal(size=(2000, length))
        assert _same_bits(_fold("sum", x), np.sum(x, axis=-1))
        assert _same_bits(_fold("norm", x), np.linalg.norm(x, axis=-1))
    flags = rng.uniform(size=(2000, 7)) < 0.5
    assert _same_bits(_fold("sum", flags), np.sum(flags, axis=-1))
    assert _same_bits(_fold("sum", flags[0]), np.sum(flags[0], axis=-1))


# -- no per-row numpy reduction outside the fold --------------------------------

#: Reductions a batch must not run along its short last axes, besides np.linalg.norm.
REDUCTIONS = {"max", "min", "sum"}


def _axis(call: ast.Call, position: int):
    """The axis the call passes, as a literal, or None."""
    node = next((k.value for k in call.keywords if k.arg == "axis"),
                call.args[position] if len(call.args) > position else None)
    try:
        return ast.literal_eval(node) if node is not None else None
    except ValueError:
        return None


def per_row_reductions(source: str) -> list[int]:
    """Lines of the calls of np.max, np.min, np.sum, np.linalg.norm or a .max,
    .min or .sum method with axis -1 or -2, outside a function named _fold."""
    lines = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "_fold":
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            position = None  # of the axis: np.linalg.norm(x, ord, axis), np.max(x, axis), x.max(axis)
            if func.attr == "norm" and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg":
                position = 2
            elif func.attr in REDUCTIONS:
                position = 1 if isinstance(func.value, ast.Name) and func.value.id == "np" else 0
            if position is not None and _axis(node, position) in (-1, -2):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return lines


def test_the_scan_finds_per_row_reductions():
    source = ("np.max(a, axis=-1)\nnp.min(a, -2)\nnp.sum(a, axis=0)\nnp.linalg.norm(z, None, -1)\n"
              "np.linalg.norm(z, axis=-2, keepdims=True)\nz.sum(-1)\nz.max(axis=-1)\nz.min()\n"
              "def _fold(x):\n    return np.max(x, axis=-1)\n")
    assert per_row_reductions(source) == [1, 2, 4, 5, 6, 7]


def test_batches_reduce_their_rows_only_through_the_fold():
    found = {path.name: per_row_reductions(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) >= 8
    assert {name: lines for name, lines in found.items() if lines} == {}
