import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromap.configio import ConfigFormatError
from neuromap.mesh import compress, place
from neuromap.partition import (
    LayerSplit,
    PartitionSpec,
    build_mapping,
    cluster_layers,
    uniform_spec,
)
from neuromap.simcost import (
    CongestionError,
    HardwareConfig,
    SimError,
    _Port,
    _route_xy,
    build_plan,
    link_label,
    load_hw_config,
    save_hw_config,
    simulate,
    snapshot,
    write_run_files,
)
from neuromap.workload import (
    EventTrace,
    Layer,
    NetworkModel,
    firing_mask,
    pilotnet_like,
    synth_trace,
)
from test_partition import flat_slices

HW = HardwareConfig(npes_per_core=4, e_npe_op=3.0, e_ctrl_event=7.0,
                    e_hop_per_flit=11.0, e_inject=13.0,
                    t_npe_op=5.0, t_hop=3.0, t_inject=2.0)


def dense(n, lid, rate=1.0, snn=True):
    return Layer(id=lid, kind="dense", channels=1, height=1, width=n,
                 weights=0, biases=0, is_snn=snn, avg_event_rate=rate)


def conv(c, h, w, lid, rate=1.0):
    return Layer(id=lid, kind="conv", channels=c, height=h, width=w,
                 weights=0, biases=0, is_snn=True, avg_event_rate=rate)


def chain_model(neuron_counts, rate=1.0, fps=0):
    layers = tuple(dense(n, i, rate) for i, n in enumerate(neuron_counts))
    edges = tuple((i, i + 1) for i in range(len(neuron_counts) - 1))
    return NetworkModel(name="chain", layers=layers, edges=edges,
                        frame_rate_fps=fps)


def full_trace(model, n_frames, fps):
    """Every input neuron fires every frame."""
    n = model.input_layer.neurons
    events = []
    for f in range(n_frames):
        t = f / fps if fps > 0 else float(f)
        for nid in range(n):
            events.append((t, nid, model.bitwidths.outputs))
    return EventTrace(events=tuple(events), fps=fps, n_frames=n_frames)


def run(model, spec, trace, hw=HW, cluster=None, scheme="strict-area"):
    mapping = build_mapping(model, spec, m_max=hw.mem_per_core)
    if cluster:
        mapping = cluster_layers(mapping, cluster, m_max=hw.mem_per_core)
    n = mapping.n_cores_total
    placement = place(n, compress(n, scheme))
    return simulate(model, mapping, placement, hw, trace)


# --- single-core exact accumulation ---

def test_single_core_energy_exactly_linear():
    model = chain_model([6, 9])
    trace = full_trace(model, 3, fps=0)  # N = 18 input events
    report = run(model, uniform_spec(model), trace, cluster=[{0, 1}])
    n_events = 18
    w = 9  # receiving partition neuron count
    ops = math.ceil(w / HW.npes_per_core)
    expected = n_events * (HW.e_ctrl_event + ops * HW.e_npe_op)
    assert report.total_energy == expected
    assert report.energy_interconnect == {}
    assert report.events_processed == n_events
    assert len(report.end_signal) == 3
    assert [v for (_, v) in report.end_signal] == [1.0, 1.0, 1.0]


def test_two_adjacent_cores_single_event():
    model = chain_model([1, 4])
    trace = EventTrace(events=((0.0, 0, 16),), fps=30, n_frames=1)
    report = run(model, uniform_spec(model), trace)
    # 16-bit payload in 32-bit flits -> 1 flit
    assert sum(report.energy_interconnect.values()) == HW.e_inject + HW.e_hop_per_flit
    ops = math.ceil(4 / HW.npes_per_core)
    assert report.latency_end_to_end == (
        HW.t_inject + HW.t_hop + 1 * ops * HW.t_npe_op)


# --- XY routing ---

@settings(max_examples=200, deadline=None)
@given(r0=st.integers(0, 15), c0=st.integers(0, 15),
       r1=st.integers(0, 15), c1=st.integers(0, 15))
def test_route_length_is_manhattan(r0, c0, r1, c1):
    path = _route_xy((r0, c0), (r1, c1))
    assert len(path) - 1 == abs(r0 - r1) + abs(c0 - c1)
    assert path[0] == (r0, c0) and path[-1] == (r1, c1)
    for (u, v) in zip(path, path[1:]):
        assert abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1
    # column dimension routes first
    if c0 != c1 and r0 != r1:
        assert path[1][0] == r0


# --- port queue ---

@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)),
                      max_size=40),
       depth=st.integers(1, 6))
def test_port_matches_brute_force_queue(steps, depth):
    # small integer gaps and services make a pending done == t_in common
    port = _Port()
    bounded = _Port("link (0, 0)->(0, 1)", depth)
    t_in = 0.0
    busy = 0.0
    dones = []
    max_depth = 0
    for gap, service in steps:
        t_in += gap
        max_depth = max(max_depth, 1 + sum(d > t_in for d in dones))
        start = max(t_in, busy)
        busy = start + service
        dones.append(busy)
        assert port.acquire(t_in, float(service)) == (start, busy)
        assert port.max_depth == max_depth
        if bounded is None:
            continue
        if max_depth > depth:
            # the first admission past the depth raises, naming the port
            with pytest.raises(CongestionError) as exc:
                bounded.acquire(t_in, float(service))
            assert str(exc.value) == f"link (0, 0)->(0, 1) exceeded depth {depth}"
            bounded = None
        else:
            assert bounded.acquire(t_in, float(service)) == (start, busy)
            assert bounded.max_depth == max_depth


# --- dynamic energy against its closed form over the plan ---

def expected_dynamic_energy(plan, hw):
    """Energy that does not depend on timing: every firing of m > 0 events
    and f flits pays each destination j m * (e_ctrl_event + work_j *
    e_npe_op), plus, through a multicast tree, m * e_inject and f *
    e_hop_per_flit per tree edge. Markers (m == 0) and output firings pay
    nothing."""
    total = 0.0
    for i, loads in enumerate(plan.loads):
        if plan.output[i]:
            continue
        _, edges, _, remote = plan.trees[i] or (None, [], 0, [])
        dests = plan.local[i] + [j for (_, j) in remote]
        for m, f in loads:
            if m == 0:
                continue
            total += sum(m * (hw.e_ctrl_event + plan.work[j] * hw.e_npe_op)
                         for j in dests)
            if plan.trees[i]:
                total += m * hw.e_inject + len(edges) * f * hw.e_hop_per_flit
    return total


def assert_energy_matches_plan(model, mapping, placement, hw, trace):
    plan = build_plan(model, mapping, placement, hw, trace)
    report = simulate(model, mapping, placement, hw, trace)
    # subtracting the static share can cancel up to one ulp of the total
    assert report.total_energy - report.static_energy == pytest.approx(
        expected_dynamic_energy(plan, hw), rel=1e-9,
        abs=1e-12 * report.total_energy)
    # the loads against an independent count of each frame's events
    frames = trace.frames()
    for layer in model.layers:
        parts = [i for i, a in enumerate(mapping.assignments)
                 if a.layer_id == layer.id]
        for f in range(trace.n_frames):
            events = sum(plan.loads[i][f][0] for i in parts)
            if layer.id == 0:
                assert events == len(frames[f])
                assert sum(plan.loads[i][f][1] for i in parts) == sum(
                    -(-bits // hw.flit_bits) for (_, _, bits) in frames[f])
            else:
                assert events == firing_mask(layer, f).sum()


@st.composite
def designs(draw):
    """A small conv chain (plus an optional skip edge), split along random
    axes, optionally clustered, on random hardware and a random trace."""
    n_layers = draw(st.integers(1, 4))
    layers = tuple(conv(draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                        draw(st.integers(1, 4)), lid,
                        rate=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])))
                   for lid in range(n_layers))
    edges = [(i, i + 1) for i in range(n_layers - 1)]
    if n_layers >= 3 and draw(st.booleans()):
        edges.append(draw(st.sampled_from(
            [(s, d) for s in range(n_layers) for d in range(s + 2, n_layers)])))
    model = NetworkModel(name="rand", layers=layers, edges=tuple(sorted(edges)))
    splits = []
    for layer in layers:
        axis = draw(st.sampled_from(["layer", "channel", "height", "width"]))
        splits.append(LayerSplit(draw(st.integers(1, layer.axis_extent(axis))), axis))
    hw = HardwareConfig(
        npes_per_core=draw(st.integers(1, 8)),
        flit_bits=draw(st.sampled_from([8, 16, 32, 64])),
        e_npe_op=draw(st.floats(0, 5)), e_ctrl_event=draw(st.floats(0, 5)),
        e_hop_per_flit=draw(st.floats(0, 5)), e_inject=draw(st.floats(0, 5)),
        p_static_core=draw(st.floats(0, 2)),
        t_npe_op=draw(st.floats(0.1, 5)), t_hop=draw(st.floats(0.1, 5)),
        t_inject=draw(st.floats(0.1, 5)), queue_depth=10**9)
    mapping = build_mapping(model, PartitionSpec(tuple(splits)))
    counts = [len(mapping.of_layer(l.id)) for l in layers]
    pairs = [{a, b} for a in range(n_layers) for b in range(a + 1, n_layers)
             if counts[a] == counts[b]]
    if pairs and draw(st.booleans()):
        mapping = cluster_layers(mapping, [draw(st.sampled_from(pairs))])
    n = mapping.n_cores_total
    scheme = draw(st.sampled_from(["strict-area", "strict-square"]))
    fps = draw(st.sampled_from([0.0, 0.05, 1.0, 30.0]))
    trace = synth_trace(model, draw(st.integers(1, 4)), fps,
                        seed=draw(st.integers(0, 2**16)))
    return model, mapping, place(n, compress(n, scheme)), hw, trace


@settings(max_examples=300, deadline=None)
@given(design=designs())
def test_dynamic_energy_matches_closed_form(design):
    assert_energy_matches_plan(*design)


@settings(max_examples=150, deadline=None)
@given(design=designs())
def test_plan_loads_match_flat_slices(design):
    """Each partition's load per frame is the firings in its own flat
    slices: the trace events and their flits on layer 0, the firing mask
    elsewhere."""
    model, mapping, _, hw, trace = design
    plan = build_plan(*design)
    per_event = math.ceil(model.bitwidths.outputs / hw.flit_bits)
    frames = trace.frames()
    for i, a in enumerate(mapping.assignments):
        layer = model.layers[a.layer_id]
        slices = flat_slices(layer, a.axis, a.range_start, a.range_end)
        for f in range(trace.n_frames):
            if layer.id == 0:
                bits = [b for (_, n, b) in frames[f]
                        if any(s <= n < e for (s, e) in slices)]
                expected = (len(bits), sum(-(-b // hw.flit_bits) for b in bits))
            else:
                mask = firing_mask(layer, f)
                m = sum(int(mask[s:e].sum()) for (s, e) in slices)
                expected = (m, m * per_event)
            assert plan.loads[i][f] == expected


def test_plan_holds_no_dense_firing_tables():
    # a rate no other test uses, so no firings of these layers are cached;
    # a frames x neurons table per layer would hold about 26 MB
    model = pilotnet_like(0.0021)
    mapping = build_mapping(model, uniform_spec(model, 4, axis="width"))
    n = mapping.n_cores_total
    placement = place(n, compress(n, "strict-area"))
    trace = synth_trace(model, 30, 30.0, seed=7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = build_plan(model, mapping, placement, HardwareConfig(), trace)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(plan.loads) == n
    assert held < 4_000_000


def test_dynamic_energy_matches_closed_form_on_pinned_cases():
    from test_simcost_pinned import CASES
    for case in CASES.values():
        assert_energy_matches_plan(*case())


# --- pipelined chain latency against a hand-built schedule ---

def pipeline_oracle(a, b, c, n_frames, period, hw):
    """Busy-time recurrence for chain [a,b,c], rate 1, one core per layer."""
    inj0 = l01 = c1 = inj1 = l12 = c2 = 0.0
    outs = []
    for f in range(n_frames):
        t = f * period
        s = max(t, inj0); inj0 = s + a * hw.t_inject
        s = max(inj0, l01); l01 = s + a * hw.t_hop
        s = max(l01, c1); c1 = s + a * math.ceil(b / hw.npes_per_core) * hw.t_npe_op
        s = max(c1, inj1); inj1 = s + b * hw.t_inject
        s = max(inj1, l12); l12 = s + b * hw.t_hop
        s = max(l12, c2); c2 = s + b * math.ceil(c / hw.npes_per_core) * hw.t_npe_op
        outs.append(c2)
    return outs


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pipeline_latency_matches_oracle(k):
    period = 40.0
    model = chain_model([3, 5, 2], fps=0)
    trace = full_trace(model, k, fps=1.0 / period)
    report = run(model, uniform_spec(model), trace)
    outs = pipeline_oracle(3, 5, 2, k, period, HW)
    assert report.latency_end_to_end == pytest.approx(outs[-1], rel=1e-12)
    assert [t for (t, _) in report.end_signal] == pytest.approx(outs, rel=1e-12)


# --- determinism and conservation ---

def test_determinism_bit_identical():
    model = chain_model([8, 6, 4], rate=0.5)
    trace = synth_trace(model, 4, 30, seed=5)
    spec = PartitionSpec((LayerSplit(2, "layer"), LayerSplit(3, "layer"),
                          LayerSplit(1, "layer")))
    r1 = run(model, spec, trace)
    r2 = run(model, spec, trace)
    assert r1 == r2


def test_energy_totals_cross_check():
    model = chain_model([8, 6, 4], rate=0.5)
    trace = synth_trace(model, 4, 30, seed=5)
    spec = PartitionSpec((LayerSplit(2, "layer"), LayerSplit(3, "layer"),
                          LayerSplit(1, "layer")))
    report = run(model, spec, trace)
    assert report.total_energy == pytest.approx(
        sum(report.energy_per_core.values())
        + sum(report.energy_interconnect.values()), rel=1e-12)
    logged = sum(e for (_, _, _, e) in report.cost_log)
    assert report.total_energy == pytest.approx(
        logged + report.static_energy, rel=1e-12)


def test_event_conservation_single_partitions():
    model = chain_model([5, 4, 3], rate=0.5, fps=0)
    trace = synth_trace(model, 3, 0, seed=9)
    report = run(model, uniform_spec(model), trace)
    n0 = len(trace.events)
    k1 = sum(int(firing_mask(model.layers[1], f).sum()) for f in range(3))
    assert report.events_processed == n0 + k1


def test_event_conservation_split_middle_layer():
    model = NetworkModel(
        name="m",
        layers=(dense(5, 0, 0.6), conv(3, 1, 4, 1, 0.6), dense(2, 2, 0.6)),
        edges=((0, 1), (1, 2)))
    trace = synth_trace(model, 3, 0, seed=2)
    spec = PartitionSpec((LayerSplit(1), LayerSplit(2, "channel"), LayerSplit(1)))
    report = run(model, spec, trace)
    n0 = len(trace.events)
    k1 = sum(int(firing_mask(model.layers[1], f).sum()) for f in range(3))
    # both middle partitions consume every input event; output consumes k1
    assert report.events_processed == 2 * n0 + k1


def test_split_layer_preserves_end_signal_values():
    model = NetworkModel(
        name="m",
        layers=(dense(5, 0, 0.6), conv(3, 1, 4, 1, 0.6), dense(2, 2, 0.6)),
        edges=((0, 1), (1, 2)))
    trace = synth_trace(model, 4, 0, seed=3)
    base = run(model, uniform_spec(model), trace)
    split = run(model, PartitionSpec((LayerSplit(1), LayerSplit(3, "channel"),
                                      LayerSplit(1))), trace)
    # partition sums re-associate float adds, so exact equality is out of
    # reach across different mappings; fp-level agreement is the contract
    assert [v for (_, v) in split.end_signal] == pytest.approx(
        [v for (_, v) in base.end_signal], rel=1e-12)


def test_doubling_npe_energy_doubles_compute_share():
    model = chain_model([6, 5, 4], rate=0.7)
    trace = synth_trace(model, 3, 30, seed=1)
    r1 = run(model, uniform_spec(model), trace, hw=HW)
    hw2 = HardwareConfig(**{**HW.__dict__, "e_npe_op": 2 * HW.e_npe_op})
    r2 = run(model, uniform_spec(model), trace, hw=hw2)
    ctrl = HW.e_ctrl_event * r1.events_processed
    assert r2.events_processed == r1.events_processed
    compute1 = sum(r1.energy_per_core.values()) - ctrl
    compute2 = sum(r2.energy_per_core.values()) - ctrl
    assert compute2 == pytest.approx(2 * compute1, rel=1e-12)
    assert r2.end_signal == r1.end_signal


def test_fps0_end_signal_invariant_to_time_scaling():
    model = chain_model([8, 6, 4], rate=0.5, fps=0)
    trace = synth_trace(model, 5, 0, seed=11)
    spec = PartitionSpec((LayerSplit(2, "layer"), LayerSplit(2, "layer"),
                          LayerSplit(1, "layer")))
    r1 = run(model, spec, trace, hw=HW)
    r2 = run(model, spec, trace, hw=HW.scaled_times(7.25))
    assert [v for (_, v) in r1.end_signal] == [v for (_, v) in r2.end_signal]
    assert r2.latency_end_to_end != r1.latency_end_to_end


def test_fast_frames_interleave_and_distort():
    # middle layer split unevenly -> skewed marker paths; a short frame
    # period lets the next frame blend into accumulators
    model = NetworkModel(
        name="m",
        layers=(dense(6, 0, 1.0), conv(3, 1, 5, 1, 1.0), dense(2, 2, 1.0)),
        edges=((0, 1), (1, 2)))
    spec = PartitionSpec((LayerSplit(1), LayerSplit(2, "channel"), LayerSplit(1)))
    slow = full_trace(model, 4, fps=1e-6)
    fast = full_trace(model, 4, fps=0.5)
    r_slow = run(model, spec, slow)
    r_fast = run(model, spec, fast)
    v_slow = [v for (_, v) in r_slow.end_signal]
    v_fast = [v for (_, v) in r_fast.end_signal]
    drained = run(model, spec, full_trace(model, 4, fps=0))
    assert v_slow == pytest.approx([v for (_, v) in drained.end_signal], abs=0)
    assert v_fast != pytest.approx(v_slow, abs=1e-12)


def test_silent_frame_keeps_its_place_in_both_modes():
    """Frame 1 has no input events: paced and drain admission both keep
    it between frames 0 and 2 instead of moving it to the end."""
    model = NetworkModel(name="two", layers=(conv(2, 2, 2, 0, rate=0.5),
                                            conv(2, 2, 2, 1, rate=0.5)),
                         edges=((0, 1),))
    for fps, t2 in ((10.0, 0.2), (0.0, 2.0)):
        trace = EventTrace(events=tuple([(0.0, n, 16) for n in range(2)]
                                        + [(t2, n, 16) for n in range(5)]),
                           fps=fps, n_frames=3)
        report = run(model, uniform_spec(model), trace,
                     hw=HardwareConfig())
        assert [v for (_, v) in report.end_signal] == [0.25, 0.0, 0.625]


# --- errors ---

def test_unmapped_neuron_rejected():
    model = chain_model([3, 2])
    trace = EventTrace(events=((0.0, 7, 16),), fps=30, n_frames=1)
    mapping = build_mapping(model, uniform_spec(model))
    placement = place(2, (1, 2))
    with pytest.raises(SimError):
        simulate(model, mapping, placement, HW, trace)


@pytest.mark.parametrize("nid", [-1, 2**70])
def test_neuron_id_out_of_range_is_named(nid):
    model = chain_model([3, 2])
    trace = EventTrace(events=((0.0, 0, 16), (0.0, nid, 16)), fps=30, n_frames=1)
    with pytest.raises(SimError, match=f"input neuron {nid}, layer 0 has 3"):
        run(model, uniform_spec(model), trace)


def test_memory_overflow_rejected():
    model = chain_model([100, 100])
    hw = HardwareConfig(mem_per_core=1000)
    mapping = build_mapping(model, uniform_spec(model), m_max=10**9)
    placement = place(2, (1, 2))
    with pytest.raises(SimError):
        simulate(model, mapping, placement, hw, trace=full_trace(model, 1, 0))


def test_placement_too_small_rejected():
    model = chain_model([3, 2])
    mapping = build_mapping(model, uniform_spec(model))
    placement = place(1, (1, 1))
    with pytest.raises(SimError):
        simulate(model, mapping, placement, HW, full_trace(model, 1, 0))


@pytest.mark.parametrize("changes, message", [
    ({}, None),
    ({1: {"range_start": 1}},
     "layer 0: channel ranges [(0, 2), (1, 4)] do not tile"),
    ({1: {"range_start": 3}},
     "layer 0: channel ranges [(0, 2), (3, 4)] do not tile"),
    ({1: {"range_end": 3}},
     "layer 0: channel ranges [(0, 2), (2, 3)] do not tile"),
    ({1: {"axis": "width", "range_start": 1, "range_end": 3}},
     "layer 0: partitions mix axes ['channel', 'width']"),
    ({0: {"axis": "diagonal"}, 1: {"axis": "diagonal"}},
     "layer 0: unknown axis 'diagonal'"),
], ids=["tiled", "overlap", "gap", "short", "mixed-axes", "unknown-axis"])
def test_layer_partitions_must_tile_their_axis(changes, message):
    model = NetworkModel(name="toy2", layers=(conv(4, 2, 3, 0, 0.6),
                                              conv(4, 2, 3, 1, 0.6)),
                         edges=((0, 1),))
    mapping = build_mapping(model, uniform_spec(model, 2, axis="channel"))
    assigns = list(mapping.assignments)
    for pos, change in changes.items():
        assigns[pos] = dataclasses.replace(assigns[pos], **change)
    mapping = dataclasses.replace(mapping, assignments=tuple(assigns))
    trace = synth_trace(model, 2, fps=0, seed=3)
    placement = place(4, compress(4, "strict-area"))
    if message is None:
        report = simulate(model, mapping, placement, HardwareConfig(), trace)
        assert report.events_processed == 54
        return
    with pytest.raises(SimError) as exc:
        simulate(model, mapping, placement, HardwareConfig(), trace)
    assert str(exc.value).startswith(message)


def test_congestion_overflow_reported():
    model = chain_model([4, 3], rate=1.0)
    hw = HardwareConfig(**{**HW.__dict__, "queue_depth": 1})
    spec = PartitionSpec((LayerSplit(2, "layer"), LayerSplit(1, "layer")))
    # both input partitions inject toward the same consumer core; the
    # second bundle arrives while the first is still in service
    with pytest.raises(CongestionError):
        run(model, spec, full_trace(model, 3, fps=1000.0), hw=hw)


# --- static power and snapshots ---

def test_zero_events_static_only():
    model = chain_model([4, 3], rate=0.0, fps=0)
    hw = HardwareConfig(**{**HW.__dict__, "p_static_core": 2.5})
    trace = EventTrace(events=(), fps=0, n_frames=2)
    report = run(model, uniform_spec(model), trace, hw=hw)
    assert report.events_processed == 0
    assert report.duration > 0  # markers still walk the pipeline
    for e in report.energy_per_core.values():
        assert e == pytest.approx(2.5 * report.duration, rel=1e-12)
    assert report.static_energy == pytest.approx(
        2 * 2.5 * report.duration, rel=1e-12)
    assert [v for (_, v) in report.end_signal] == [0.0, 0.0]


def test_snapshot_final_row_matches_totals():
    model = chain_model([8, 6, 4], rate=0.5)
    trace = synth_trace(model, 4, 30, seed=5)
    hw = HardwareConfig(**{**HW.__dict__, "p_static_core": 0.5})
    report = run(model, uniform_spec(model), trace, hw=hw)
    times, core_rows, link_rows = snapshot(report, every=report.duration / 7)
    assert times[-1] == report.duration
    for k, rows in core_rows.items():
        assert rows[-1] == pytest.approx(report.energy_per_core[k], rel=1e-9)
    for k, rows in link_rows.items():
        assert rows[-1] == pytest.approx(report.energy_interconnect[k], rel=1e-9)
    for rows in list(core_rows.values()) + list(link_rows.values()):
        assert all(b >= a - 1e-12 for a, b in zip(rows, rows[1:]))


def test_snapshot_affine_for_constant_rate_single_core():
    model = chain_model([5, 5])
    trace = full_trace(model, 4, fps=1.0 / 100.0)
    report = run(model, uniform_spec(model), trace, cluster=[{0, 1}])
    # frames land every 100 time units; sampling on that grid gives equal
    # increments (linear accumulation)
    times, core_rows, _ = snapshot(report, every=100.0)
    rows = core_rows[0]
    deltas = [b - a for a, b in zip(rows, rows[1:])]
    deltas = [d for d in deltas if d > 0]
    assert len(set(round(d, 9) for d in deltas)) == 1


def test_write_run_files(tmp_path):
    model = chain_model([8, 6, 4], rate=0.5)
    trace = synth_trace(model, 3, 30, seed=5)
    report = run(model, uniform_spec(model), trace)
    out = tmp_path / "run"
    write_run_files(report, out, settings={"algo": "none", "seed": 0})
    for name in ("summary.txt", "snapshots_cores.csv",
                 "snapshots_interconnects.csv", "output_snapshot.csv",
                 "gui_setting.csv"):
        assert (out / name).exists()
    rows = (out / "output_snapshot.csv").read_text().strip().splitlines()
    assert rows[0] == "timestamp,value"
    assert len(rows) == 1 + len(report.end_signal)
    header = (out / "snapshots_cores.csv").read_text().splitlines()[0]
    assert header.startswith("time,core_0")


def test_hw_config_roundtrip(tmp_path):
    p = tmp_path / "hw.prm"
    save_hw_config(HW, p)
    assert load_hw_config(p) == HW


def test_hw_key_that_names_nothing_is_rejected(tmp_path):
    p = tmp_path / "hw.prm"
    p.write_text("[hardware]\nnpes_per_cor = 64\n")
    with pytest.raises(ConfigFormatError,
                       match="hw.prm: unknown key 'npes_per_cor'"):
        load_hw_config(p)


def test_link_label():
    assert link_label(((0, 1), (0, 2))) == "0.1-0.2"
