import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromap.partition import (
    M_MAX_DEFAULT,
    CoreAssignment,
    LayerSplit,
    Mapping,
    PartitionError,
    PartitionSpec,
    axis_shape,
    axis_unit,
    build_mapping,
    load_mapping,
    memory_per_core,
    partition_layer,
    save_mapping,
    split_homogeneous,
)
from neuromap.workload import Bitwidths, Layer, NetworkModel
from helpers import colocate, layers_per_core, of_layer, pilotnet_like, uniform_spec


def dense(n, lid=0, weights=0, biases=0, snn=True, rate=0.1):
    return Layer(id=lid, kind="dense", channels=1, height=1, width=n,
                 weights=weights, biases=biases, is_snn=snn, avg_event_rate=rate)


def conv(c, h, w, lid=0, weights=0, biases=0, snn=True, rate=0.1):
    return Layer(id=lid, kind="conv", channels=c, height=h, width=w,
                 weights=weights, biases=biases, is_snn=snn, avg_event_rate=rate)


def chain_model(neuron_counts, **kw):
    layers = tuple(dense(n, lid=i) for i, n in enumerate(neuron_counts))
    edges = tuple((i, i + 1) for i in range(len(neuron_counts) - 1))
    return NetworkModel(name="chain", layers=layers, edges=edges, **kw)


# --- memory_per_core ---

def test_memory_all_zero_counts():
    assert memory_per_core(0, 0, 0, 0, True, 16, 16, 8) == 0


def test_memory_reference_value_snn():
    got = memory_per_core(1000, 10000, 100, 1000, True, 16, 16, 8)
    assert got == 2 * 2000 * 32 + 10100 * 8 == 208_800


def test_memory_reference_value_ann():
    got = memory_per_core(1000, 10000, 100, 0, False, 16, 16, 8)
    assert got == 2 * 1000 * 32 + 10100 * 8 == 144_800


def test_memory_rejects_negative_and_zero_widths():
    with pytest.raises(PartitionError):
        memory_per_core(-1, 0, 0, 0, True, 16, 16, 8)
    with pytest.raises(PartitionError):
        memory_per_core(1, 0, 0, 0, True, 0, 16, 8)


@settings(max_examples=120, deadline=None)
@given(
    counts=st.tuples(*[st.integers(min_value=0, max_value=10**6)] * 4),
    widths=st.tuples(*[st.sampled_from([4, 8, 16])] * 3),
    bump=st.integers(min_value=0, max_value=5),
    which=st.integers(min_value=0, max_value=6),
)
def test_memory_monotone_in_every_argument(counts, widths, bump, which):
    args = list(counts) + list(widths)
    base = memory_per_core(*args[:4], True, *args[4:])
    args[which] += bump
    bumped = memory_per_core(*args[:4], True, *args[4:])
    assert bumped >= base


# --- partition_layer ---

def test_homogeneous_even_split():
    assert partition_layer(dense(100), LayerSplit(4, "layer")) == [
        (0, 25), (25, 50), (50, 75), (75, 100)]


def test_channelwise_split_24_by_3():
    ranges = partition_layer(conv(24, 31, 98), LayerSplit(3, "channel"))
    assert [(b - a) for (a, b) in ranges] == [8, 8, 8]


def min_max_contiguous_split(extent, k):
    # oracle: all contiguous k-splits; minimize max size, then maximize min
    # size, then front-loaded (lexicographically largest size sequence)
    best = None
    for cuts in itertools.combinations(range(1, extent), k - 1):
        bounds = (0,) + cuts + (extent,)
        sizes = tuple(bounds[i + 1] - bounds[i] for i in range(k))
        key = (max(sizes), -min(sizes), tuple(-s for s in sizes))
        if best is None or key < best[0]:
            best = (key, sizes)
    return list(best[1])


def test_homogeneous_10_by_3_front_loaded():
    assert min_max_contiguous_split(10, 3) == [4, 3, 3]
    assert [(b - a) for (a, b) in partition_layer(dense(10), LayerSplit(3, "layer"))] == [4, 3, 3]


@settings(max_examples=60, deadline=None)
@given(extent=st.integers(min_value=1, max_value=18),
       k=st.integers(min_value=1, max_value=5))
def test_homogeneous_matches_minmax_oracle(extent, k):
    if k > extent:
        return
    sizes = split_homogeneous(extent, k)
    assert sizes == min_max_contiguous_split(extent, k)
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == extent


def test_parts_exceeding_extent_rejected():
    with pytest.raises(PartitionError):
        partition_layer(dense(10), LayerSplit(11, "layer"))


def test_degenerate_axis_collapses_to_one_group():
    assert partition_layer(dense(10), LayerSplit(5, "channel")) == [(0, 1)]
    assert partition_layer(dense(10), LayerSplit(5, "height")) == [(0, 1)]


def test_greedy_fills_to_cap():
    # 10 ANN neurons, 64 bits each (2*1*(16+16)), cap 200 -> 3 per group
    layer = dense(10, snn=False)
    ranges = partition_layer(layer, LayerSplit(1, "layer", "greedy"), m_max=200)
    assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]


def test_greedy_unsplittable_unit_rejected():
    layer = dense(10, snn=False)
    with pytest.raises(PartitionError):
        partition_layer(layer, LayerSplit(1, "layer", "greedy"), m_max=50)


@settings(max_examples=100, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=8),
    h=st.integers(min_value=1, max_value=8),
    w=st.integers(min_value=1, max_value=8),
    weights=st.integers(min_value=0, max_value=5000),
    biases=st.integers(min_value=0, max_value=64),
    k=st.integers(min_value=1, max_value=6),
    axis=st.sampled_from(["layer", "channel", "height", "width"]),
)
def test_coverage_and_conservation(c, h, w, weights, biases, k, axis):
    layer = conv(c, h, w, weights=weights, biases=biases)
    extent = axis_shape(layer, axis)[0]
    if extent > 1 and k > extent:
        k = extent
    ranges = partition_layer(layer, LayerSplit(k, axis))
    # contiguous cover of the axis, no overlap, no gap
    assert ranges[0][0] == 0
    assert ranges[-1][1] == (extent if extent > 1 else 1)
    for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
        assert b0 == a1
    model = NetworkModel(name="m", layers=(dense(4, lid=0), layer_with_id(layer, 1)),
                         edges=((0, 1),))
    spec = PartitionSpec((LayerSplit(1, "layer"), LayerSplit(k, axis)))
    mapping = build_mapping(model, spec, m_max=10**12)
    parts = of_layer(mapping, 1)
    assert sum(a.n_npc for a in parts) == layer.neurons
    assert sum(a.n_wpc for a in parts) == weights
    assert sum(a.n_bpc for a in parts) == biases
    assert sum(a.n_tpc for a in parts) == layer.neurons  # snn


def layer_with_id(layer, lid):
    return Layer(id=lid, kind=layer.kind, channels=layer.channels,
                 height=layer.height, width=layer.width, weights=layer.weights,
                 biases=layer.biases, is_snn=layer.is_snn,
                 avg_event_rate=layer.avg_event_rate)


# --- build_mapping ---

def test_two_layer_one_core_each():
    model = chain_model([50, 20])
    mapping = build_mapping(model, uniform_spec(model))
    assert mapping.n_cores_total == 2
    assert layers_per_core(mapping) == {0: (0,), 1: (1,)}


def test_cores_numbered_in_layer_then_part_order():
    model = chain_model([10, 10, 10])
    spec = PartitionSpec((LayerSplit(2, "layer"), LayerSplit(1, "layer"),
                          LayerSplit(3, "layer")))
    mapping = build_mapping(model, spec)
    order = [(a.core_id, a.layer_id, a.range_start) for a in mapping.assignments]
    assert order == [(0, 0, 0), (1, 0, 5), (2, 1, 0),
                     (3, 2, 0), (4, 2, 4), (5, 2, 7)]


def test_mpc_matches_recomputation():
    model = pilotnet_like()
    spec = PartitionSpec(tuple(
        LayerSplit(min(4, l.channels), "channel") for l in model.layers))
    mapping = build_mapping(model, spec, m_max=10**12)
    for a in mapping.assignments:
        layer = model.layers[a.layer_id]
        again = memory_per_core(a.n_npc, a.n_wpc, a.n_bpc, a.n_tpc, layer.is_snn,
                                model.bitwidths.states, model.bitwidths.outputs,
                                model.bitwidths.weights)
        assert a.m_pc == again


def test_infeasible_single_neuron_partition():
    # one neuron needs 2*2*32 = 128 bits as SNN; cap below that is infeasible
    model = chain_model([4, 4])
    spec = PartitionSpec((LayerSplit(4, "layer"), LayerSplit(4, "layer")))
    with pytest.raises(PartitionError):
        build_mapping(model, spec, m_max=100)


def test_enforce_cap_off_reports_violation():
    model = chain_model([4, 4])
    spec = uniform_spec(model)
    mapping = build_mapping(model, spec, m_max=10, enforce_cap=False)
    assert any(a.m_pc > 10 for a in mapping.assignments)


def test_pilotnet_channelwise_fits_1mb_cap():
    model = pilotnet_like()
    # minimal channel-wise split that fits the default cap
    splits = []
    for l in model.layers:
        for k in range(1, l.channels + 1):
            try:
                parts = build_mapping(
                    NetworkModel(name="one", layers=(dense(1, 0), layer_with_id(l, 1)),
                                 edges=((0, 1),)),
                    PartitionSpec((LayerSplit(1), LayerSplit(k, "channel"))),
                    m_max=M_MAX_DEFAULT)
                splits.append(LayerSplit(k, "channel"))
                break
            except PartitionError:
                continue
        else:
            pytest.fail(f"layer {l.id} unsplittable channel-wise under default cap")
    mapping = build_mapping(model, PartitionSpec(tuple(splits)), m_max=M_MAX_DEFAULT)
    for a in mapping.assignments:
        assert a.m_pc <= M_MAX_DEFAULT


# --- co-located layers (tests/helpers.colocate) ---

def test_cluster_merges_layers_3_and_4():
    model = chain_model([8] * 10)
    mapping = build_mapping(model, uniform_spec(model))
    merged = colocate(mapping, [{3, 4}])
    per_core = layers_per_core(merged)
    assert (3, 4) in per_core.values()
    assert merged.n_cores_total == 9
    core_ids = sorted(per_core)
    assert core_ids == list(range(9))


def test_cluster_multi_part_groups_pair_by_part():
    model = chain_model([10, 10])
    spec = PartitionSpec((LayerSplit(2, "layer"), LayerSplit(2, "layer")))
    mapping = build_mapping(model, spec)
    merged = colocate(mapping, [{0, 1}])
    assert merged.n_cores_total == 2
    assert all(ls == (0, 1) for ls in layers_per_core(merged).values())


# --- csv io ---

def test_mapping_roundtrip(tmp_path):
    model = pilotnet_like()
    spec = PartitionSpec(tuple(
        LayerSplit(min(2, l.channels), "channel") for l in model.layers))
    mapping = build_mapping(model, spec, m_max=10**12)
    p = tmp_path / "map.csv"
    save_mapping(mapping, p)
    assert load_mapping(p) == mapping


def test_mapping_roundtrip_clustered(tmp_path):
    model = chain_model([8, 8])
    mapping = colocate(build_mapping(model, uniform_spec(model)), [{0, 1}])
    p = tmp_path / "mapc.csv"
    save_mapping(mapping, p)
    back = load_mapping(p)
    assert back == mapping


# --- flat layout: axis_unit against flat slices ---

def flat_slices(layer, axis, start, end):
    """Reference: flat neuron index ranges covered by axis units [start,
    end), in channel-major order flat = (channel*height + row)*width + col.
    layer/channel axes give one contiguous slice; height gives one per
    channel; width gives one per (channel, row)."""
    c, h, w = layer.channels, layer.height, layer.width
    if axis == "layer":
        return [(start, end)]
    if axis == "channel":
        return [(start * h * w, end * h * w)]
    if axis == "height":
        return [(ci * h * w + start * w, ci * h * w + end * w) for ci in range(c)]
    return [((ci * h + y) * w + start, (ci * h + y) * w + end)
            for ci in range(c) for y in range(h)]


def assert_units_match_slices(layer, axis, a, b):
    """A flat index's unit lies in [a, b) exactly when the index lies in
    flat_slices(a, b)."""
    inside = {n for (s, e) in flat_slices(layer, axis, a, b) for n in range(s, e)}
    units = axis_unit(layer, axis, np.arange(layer.neurons))
    assert {int(n) for n in np.flatnonzero((a <= units) & (units < b))} == inside
    for n in range(layer.neurons):
        assert (a <= axis_unit(layer, axis, n) < b) == (n in inside)


def test_flat_slices_shapes():
    layer = conv(3, 4, 5)
    assert flat_slices(layer, "layer", 2, 9) == [(2, 9)]
    assert flat_slices(layer, "channel", 1, 3) == [(20, 60)]
    assert flat_slices(layer, "height", 1, 3) == [
        (5, 15), (25, 35), (45, 55)]
    by_width = flat_slices(layer, "width", 0, 2)
    assert len(by_width) == 12
    assert by_width[0] == (0, 2) and by_width[1] == (5, 7)
    for axis, a, b in [("layer", 2, 9), ("channel", 1, 3), ("height", 1, 3),
                       ("width", 0, 2), ("width", 4, 5)]:
        assert_units_match_slices(layer, axis, a, b)
    assert axis_unit(layer, "channel", 59) == 2
    assert axis_unit(layer, "height", 59) == 3
    assert axis_unit(layer, "width", 59) == 4
    with pytest.raises(PartitionError):
        axis_unit(layer, "diagonal", 0)


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=5),
    h=st.integers(min_value=1, max_value=5),
    w=st.integers(min_value=1, max_value=5),
    axis=st.sampled_from(["layer", "channel", "height", "width"]),
    k=st.integers(min_value=1, max_value=4),
)
def test_flat_slices_partition_the_layer(c, h, w, axis, k):
    layer = conv(c, h, w)
    extent = axis_shape(layer, axis)[0]
    if extent > 1 and k > extent:
        k = extent
    covered = set()
    for (a, b) in partition_layer(layer, LayerSplit(k, axis)):
        assert_units_match_slices(layer, axis, a, b)
        for (s, e) in flat_slices(layer, axis, a, b):
            span = set(range(s, e))
            assert not (covered & span)
            covered |= span
    assert covered == set(range(layer.neurons))
