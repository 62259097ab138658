"""Per-point reductions are numpy's along the last axis: each row of a batch
gives the bits it gives as a batch of one, at every batch size and in either
memory order, so a fiber point's certificate does not depend on how many points
were certified with it, nor on how their array is laid out.

A batch of one, not a single point: numpy multiplies complex scalars by
another routine than complex arrays, which rounds some products differently.
Either memory order: numpy adds a contiguous run of 8 or more reals pairwise
and a strided one left to right, so only reductions over fewer entries, as all
of fibers4's are, may take either order (test_moment covers the longer ones)."""

import numpy as np
import pytest

from grassmoment import fibers4 as fb
from grassmoment.plucker import chart_array, plucker_relation_residual
from grassmoment.regularity import CHAMBER_POINT_PLUS


def _triple(v):
    """The three head coordinates along the last axis, as fibers4's sphere-triple functions take them."""
    return tuple(np.moveaxis(v, -1, 0))


def _coverage(z):
    c = fb.chart_coverage(z)
    return c.in_chart_m0, c.in_chart_m1, c.margin, c.ok


def _certified(kind):
    """certify's columns, pass masks and JSON rows."""
    def run(z):
        batch = fb.certify(kind, z)
        columns = [batch.points, batch.f_values, batch.ranks, batch.passed]
        columns += [a for value, _, ok in batch.checks.values() for a in (value, ok)]
        return [c for c in columns if c is not None] + [batch.json_rows()]
    return run


#: name -> (input kind, function of a batch).  The kinds are
#: sample_for_kind's, "head" is random_sphere_triple's and "s3" random_three_sphere's.
ROW_FUNCTIONS = {
    "tail_magnitudes": ("head", lambda v: fb.tail_magnitudes(*_triple(v))),
    "lift_to_fiber": ("head", lambda v: fb.lift_to_fiber(*_triple(v))),
    "fiber7_roundtrip_error": ("mq7", fb.fiber7_roundtrip_error),
    "surface_roundtrip_error": ("m2", fb.surface_roundtrip_error),
    "sphere_roundtrip_error": ("m3", fb.sphere_roundtrip_error),
    "base_projection": ("mq5", fb.base_projection),
    "to_three_sphere": ("m3", fb.to_three_sphere),
    "from_three_sphere": ("s3", fb.from_three_sphere),
    "affine_representative": ("mq5", fb.affine_representative),
    "complete_intersection_f": ("mq5", lambda z: fb.complete_intersection_f(chart_array(z))),
    "jacobian_rank": ("mq5", lambda z: fb.jacobian_rank(chart_array(z))),
    "_chart_gram": ("mq5", lambda z: fb._chart_gram(*fb._chart_invariants(chart_array(z))[1:]).T),
    "chart_coverage": ("mq5", _coverage),
    "tangent_fiber_dimension": ("mq7", fb.tangent_fiber_dimension),
    "tangent_fiber_dimension_quadric": ("mq5", lambda z: fb.tangent_fiber_dimension(z, include_quadric=True)),
    "constraint_values": ("mq5", lambda z: fb.constraint_values(np.concatenate([z.real, z.imag], axis=-1))),
    "moment_residual": ("mq5", lambda z: fb.moment_residual(z, CHAMBER_POINT_PLUS)),
    "fiber7_residuals": ("mq7", lambda z: list(fb.fiber7_residuals(z).values())),
    "fiber5_residuals": ("mq5", lambda z: list(fb.fiber5_residuals(z).values())),
    "plucker_relation_residual": ("mq5", lambda z: plucker_relation_residual(fb.affine_representative(z))),
    **{f"certify_{kind}": (kind, _certified(kind)) for kind in ("mq7", "mq5", "m2", "m3")},
}


def _inputs(kind, rng, count):
    if kind == "head":
        return np.stack(fb.random_sphere_triple(rng, count), axis=-1)
    if kind == "s3":
        return fb.random_three_sphere(rng, count)
    return fb.sample_for_kind(kind, rng, count)


def _parts(out):
    """The arrays (or lists of JSON rows) a function returns, as a list."""
    return list(out) if isinstance(out, (tuple, list)) else [out]


def _same_bits(a, b):
    """Equal dtype, shape and bytes for arrays; equality for lists of JSON rows."""
    if isinstance(a, list):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("count", [2, 17, 300])
@pytest.mark.parametrize("name", list(ROW_FUNCTIONS))
def test_batch_rows_equal_batches_of_one_bit_for_bit(name, count):
    kind, function = ROW_FUNCTIONS[name]
    x = _inputs(kind, np.random.default_rng(count), count)
    batch = _parts(function(x))
    for k in range(count):
        one = _parts(function(x[k:k + 1]))
        assert len(one) == len(batch)
        assert all(_same_bits(single, column[k:k + 1]) for single, column in zip(one, batch))


@pytest.mark.parametrize("name", list(ROW_FUNCTIONS))
def test_batch_bits_do_not_depend_on_memory_order(name):
    kind, function = ROW_FUNCTIONS[name]
    x = _inputs(kind, np.random.default_rng(7), 300)
    c_order = _parts(function(np.ascontiguousarray(x)))
    f_order = _parts(function(np.asfortranarray(x)))
    assert len(c_order) == len(f_order)
    assert all(_same_bits(c, f) for c, f in zip(c_order, f_order))


@pytest.mark.parametrize("kind", ["mq7", "mq5", "m2", "m3"])
def test_samples_are_column_major(kind):
    points = fb.sample_for_kind(kind, np.random.default_rng(3), 40)
    assert points.shape == (40, 6) and points.flags.f_contiguous
