import bisect
import builtins
import csv
import dataclasses
import functools
import heapq
import math
import operator
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromap import simcost
from neuromap.configio import ConfigFormatError
from neuromap.mesh import compress, place
from neuromap.partition import (
    LayerSplit,
    PartitionSpec,
    axis_shape,
    build_mapping,
)
from neuromap.simcost import (
    ChargeLog,
    CongestionError,
    CostReport,
    HardwareConfig,
    Link,
    SimError,
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
    firing_masks,
    synth_trace,
)
from helpers import (
    colocate,
    cost_log,
    of_layer,
    pilotnet_like,
    reference_snapshot,
    uniform_spec,
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
        mapping = colocate(mapping, cluster)
    n = mapping.n_cores_total
    placement = place(n, compress(n, scheme))
    if cluster:
        # co-located layers hand their events over on the shared core, at
        # the extra node past the tree
        assert any(v == extra for (_, extra, dests, _) in
                   build_plan(model, mapping, placement, hw, trace).fanout
                   for (v, _) in dests)
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
        hops, _, dests, _ = plan.fanout[i]
        for m, f in loads:
            if m == 0:
                continue
            total += sum(m * (hw.e_ctrl_event + plan.work[j] * hw.e_npe_op)
                         for (_, j) in dests)
            if hops:
                total += m * hw.e_inject + len(hops[1:]) * f * hw.e_hop_per_flit
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
        masks = firing_masks(layer, range(trace.n_frames))
        for f, mask in enumerate(masks):
            events = sum(plan.loads[i][f][0] for i in parts)
            if layer.id == 0:
                assert events == len(frames[f])
                assert sum(plan.loads[i][f][1] for i in parts) == sum(
                    -(-bits // hw.flit_bits) for (_, _, bits) in frames[f])
            else:
                assert events == mask.sum()


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
        splits.append(LayerSplit(draw(st.integers(1, axis_shape(layer, axis)[0])), axis))
    hw = HardwareConfig(
        npes_per_core=draw(st.integers(1, 8)),
        flit_bits=draw(st.sampled_from([8, 16, 32, 64])),
        e_npe_op=draw(st.floats(0, 5)), e_ctrl_event=draw(st.floats(0, 5)),
        e_hop_per_flit=draw(st.floats(0, 5)), e_inject=draw(st.floats(0, 5)),
        p_static_core=draw(st.floats(0, 2)),
        t_npe_op=draw(st.floats(0.1, 5)), t_hop=draw(st.floats(0.1, 5)),
        t_inject=draw(st.floats(0.1, 5)),
        clock_period=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])), queue_depth=10**9)
    mapping = build_mapping(model, PartitionSpec(tuple(splits)))
    counts = [len(of_layer(mapping, l.id)) for l in layers]
    pairs = [{a, b} for a in range(n_layers) for b in range(a + 1, n_layers)
             if counts[a] == counts[b]]
    if pairs and draw(st.booleans()):
        mapping = colocate(mapping, [draw(st.sampled_from(pairs))])
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


# --- the flat kernel against the replay it replaced ---

class _Port:
    """Serializing resource (link or core inbox) with queue-depth tracking;
    admitting a bundle past depth raises CongestionError naming the port."""

    __slots__ = ("busy_until", "pending_done", "max_depth", "name", "depth")

    def __init__(self, name: str = "", depth: float = math.inf):
        self.busy_until = 0.0
        # completion times still pending, non-decreasing: each done is at
        # least the previous one because busy_until only grows
        self.pending_done: list[float] = []
        self.max_depth = 0
        self.name = name
        self.depth = depth

    def acquire(self, t_in: float, service: float) -> tuple[float, float]:
        """Returns (start, done); records queue depth at admission."""
        pending = self.pending_done
        gone = bisect.bisect_right(pending, t_in)
        if gone:
            del pending[:gone]
        depth = len(pending) + 1
        if depth > self.max_depth:
            if depth > self.depth:
                raise CongestionError(f"{self.name} exceeded depth {self.depth}")
            self.max_depth = depth
        busy = self.busy_until
        start = busy if busy > t_in else t_in
        done = start + service
        self.busy_until = done
        pending.append(done)
        return start, done


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


def _queue_rule(t_in: float, dones) -> int:
    """The depth an arrival sees: itself plus every earlier service that
    ends after it."""
    return 1 + sum(d > t_in for d in dones)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=40))
def test_port_depth_never_exceeds_the_queue_rule_in_any_arrival_order(steps):
    """Hops are reserved when their source fires, so a shared link sees
    arrivals out of time order. The port drops the done times at or before
    each arrival it processes, so a late-processed early arrival can only
    see fewer of them than the rule counts."""
    port = _Port()
    dones, rule = [], 0
    for t_in, service in steps:
        rule = max(rule, _queue_rule(t_in, dones))
        dones.append(port.acquire(float(t_in), float(service))[1])
        assert port.max_depth <= rule


def test_port_depth_depends_on_the_arrival_order():
    # pinned as the kernel behaves; CHANGES.md's FOUND: line on port queue
    # depths says why a smaller .prm queue_depth could admit such a design
    port = _Port()
    dones = []
    for t_in in (10.0, 20.0, 5.0):
        dones.append(port.acquire(t_in, 1.0)[1])
    # the arrival at 5 comes after the one at 20 has dropped done 11
    assert port.max_depth == 2
    assert _queue_rule(5.0, dones[:2]) == 3


def reference_simulate(plan, hw):
    """The replay of a plan as simulate ran it before its kernel was
    flattened: ports as _Port objects, and push, emit, fire and deliver as
    closures. The kernel must match it bit for bit, down to dict orders and
    the cost log."""
    (core, upstream, loads, fanout, work, fan_in, output, inputs,
     frame_times, fps, port_of) = plan
    depth = hw.queue_depth
    t_npe_op, t_hop, t_inject = (hw.t_npe_op * hw.clock_period,
                                 hw.t_hop * hw.clock_period,
                                 hw.t_inject * hw.clock_period)
    links: dict[Link, _Port] = {}
    # core order as in simulate: first appearance in mapping.assignments
    cores = {c: _Port(f"core {c} inbox", depth) for c in dict.fromkeys(core)}
    inbox = [cores[c] for c in core]
    # per source partition, its (injection port, [(u, v, link, port)]),
    # created at its first bundle in the order that bundle meets them, so
    # links keeps first-use order
    tree_ports: list[tuple | None] = [None] * len(core)
    acc = [0.0] * len(core)
    firings = [iter(l) for l in loads]
    # banked bundles per upstream partition, and how many upstreams have
    # none banked: a partition fires when that count is 0
    banked: list[dict[int, int]] = [{} for _ in core]
    missing = [len(up) for up in upstream]

    energy_core: dict[int, float] = {c: 0.0 for c in cores}
    energy_link: dict[Link, float] = {}
    cost_log: list[tuple[float, str, object, float]] = []
    end_signal: list[tuple[float, float]] = []
    events_processed = 0
    sim_now = 0.0

    heap: list = []
    seq = 0

    def push(t: float, src_core: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, src_core, seq, kind, payload))
        seq += 1

    def charge_link(t: float, link: Link, e: float) -> None:
        energy_link[link] = energy_link.get(link, 0.0) + e
        cost_log.append((t, "link", link, e))

    def emit(src: int, t_emit: float, mult: int, value: float, flits: int) -> None:
        """Send one bundle from partition src to every destination."""
        nonlocal sim_now
        hops, n_nodes, dests, _ = fanout[src]
        # destinations on the source's own core sit at the extra node,
        # n_nodes, which holds the firing time
        arrival = [t_emit] * (n_nodes + 1)
        if hops:
            inj, edges = hops[0][2], [(u, v, lk) for (u, v, lk, _, _) in hops[1:]]
            ports = tree_ports[src]
            if ports is None:
                ports = tree_ports[src] = (
                    links.setdefault(inj, _Port(f"injection port {inj[0]}", depth)),
                    [(u, v, lk, links.setdefault(lk, _Port(f"link {lk[0]}->{lk[1]}", depth)))
                     for (u, v, lk) in edges])
            inj_port, edge_ports = ports
            # one injection serializes the whole multicast bundle
            _, done = inj_port.acquire(t_emit, max(1, mult) * t_inject)
            if mult > 0:
                charge_link(done, inj, mult * hw.e_inject)
            arrival[:n_nodes] = [done] * n_nodes
            service = max(1, mult) * t_hop
            e_hop = flits * hw.e_hop_per_flit
            for (u, v, link, p) in edge_ports:
                _, done_edge = p.acquire(arrival[u], service)
                if mult > 0:
                    charge_link(done_edge, link, e_hop)
                arrival[v] = done_edge
                if done_edge > sim_now:
                    sim_now = done_edge
        for (v, j) in dests:
            push(arrival[v], core[src], "deliver", (src, j, mult, value))

    def fire(idx: int, t: float) -> None:
        mult, flits = next(firings[idx])
        denom = fan_in[idx]
        value = acc[idx] / denom if denom else 1.0
        acc[idx] = 0.0
        if output[idx]:
            # an input layer that is also the output reports its event share
            end_signal.append((t, value if denom else mult / output[idx]))
            return
        emit(idx, t, mult, value, flits)

    def deliver(t: float, payload) -> None:
        nonlocal sim_now, events_processed
        src, idx, mult, value = payload
        _, done = inbox[idx].acquire(t, mult * work[idx] * t_npe_op)
        if mult > 0:
            e = mult * (hw.e_ctrl_event + work[idx] * hw.e_npe_op)
            energy_core[core[idx]] += e
            cost_log.append((done, "core", core[idx], e))
            acc[idx] += value * mult
            events_processed += mult
        if done > sim_now:
            sim_now = done
        bank = banked[idx]
        n = bank.get(src, 0) + 1
        bank[src] = n
        if n == 1:
            missing[idx] -= 1
        # fire once per complete marker set: one bundle from every upstream
        # partition; skewed fast senders bank extra markers without firing
        while missing[idx] == 0:
            for u in upstream[idx]:
                bank[u] -= 1
                if bank[u] == 0:
                    missing[idx] += 1
            fire(idx, done)

    n_frames = len(frame_times)
    if fps > 0:
        for f in range(n_frames):
            push(frame_times[f], -1, "frame", f)
        next_frame = n_frames
    else:
        # frame 0 enters at 0.0 even when its burst's timestamp only rounds
        # to slot 0
        push(0.0, -1, "frame", 0)
        next_frame = 1

    while heap or next_frame < n_frames:
        if not heap:
            push(sim_now, -1, "frame", next_frame)
            next_frame += 1
            continue
        t, _, _, kind, payload = heapq.heappop(heap)
        sim_now = max(sim_now, t)
        if kind == "frame":
            for i in inputs:
                fire(i, t)
        else:
            deliver(t, payload)

    duration = sim_now
    static = hw.p_static_core * duration
    static_total = static * len(cores)
    for c in energy_core:
        energy_core[c] += static
    total = (functools.reduce(operator.add, energy_core.values(), 0.0)
             + functools.reduce(operator.add, energy_link.values(), 0.0))
    first_t = frame_times[0] if fps > 0 else 0.0
    last_output = max([0.0] + [t for (t, _) in end_signal])
    latency = max(0.0, last_output - first_t)
    throughput = n_frames / latency if latency > 0 else 0.0
    congestion = {lk: p.max_depth for lk, p in links.items()}
    return CostReport(
        energy_per_core=energy_core,
        energy_interconnect=energy_link,
        total_energy=total,
        latency_end_to_end=latency,
        throughput=throughput,
        congestion=congestion,
        end_signal=tuple(end_signal),
        events_processed=events_processed,
        duration=duration,
        static_energy=static_total,
        charges=ChargeLog(
            array("d", [t for (t, _, _, _) in cost_log]),
            array("i", [key if kind == "core" else port_of[key]
                        for (_, kind, key, _) in cost_log]),
            array("d", [e for (_, _, _, e) in cost_log]),
            tuple([("core", c) for c in range(len(cores))]
                  + [("link", lk) for lk in port_of])),
    )


def assert_kernel_matches_reference(design):
    """Same report, compared by the repr of every field, or the same
    CongestionError message."""
    hw = design[3]
    try:
        expected = reference_simulate(build_plan(*design), hw)
    except CongestionError as exc:
        with pytest.raises(CongestionError) as got:
            simulate(*design)
        assert str(got.value) == str(exc)
        return
    report = simulate(*design)
    for f in dataclasses.fields(CostReport):
        assert repr(getattr(report, f.name)) == repr(getattr(expected, f.name)), f.name


@settings(max_examples=300, deadline=None)
@given(design=designs())
def test_kernel_matches_reference_replay(design):
    assert_kernel_matches_reference(design)


@settings(max_examples=300, deadline=None)
@given(design=designs(), depth=st.integers(1, 8))
def test_kernel_matches_reference_replay_at_shallow_queues(design, depth):
    model, mapping, placement, hw, trace = design
    assert_kernel_matches_reference(
        (model, mapping, placement, dataclasses.replace(hw, queue_depth=depth), trace))


def test_congestion_and_interconnect_energy_keep_their_own_orders():
    """congestion lists links by first use and energy_interconnect by first
    charge. Frame 0 is silent, so the input layer's markers use its links
    before any of them is charged, while layer 1 charges its own."""
    model = chain_model([8, 6, 4], rate=0.5, fps=0)
    trace = synth_trace(model, 4, 0, seed=5)
    trace = dataclasses.replace(trace, events=tuple(
        e for burst in trace.frames()[1:] for e in burst))
    mapping = build_mapping(model, PartitionSpec(
        (LayerSplit(2), LayerSplit(2), LayerSplit(1))), m_max=HW.mem_per_core)
    design = (model, mapping, place(5, compress(5, "strict-area")), HW, trace)
    report = simulate(*design)
    inj = [((0, c), (0, c)) for c in range(4)]
    east = [((0, c), (0, c + 1)) for c in range(4)]
    assert list(report.congestion) == [inj[0], east[0], east[1], east[2],
                                       inj[1], inj[2], east[3], inj[3]]
    assert list(report.energy_interconnect) == [inj[2], east[2], east[3], inj[3],
                                                inj[0], east[0], east[1], inj[1]]
    assert_kernel_matches_reference(design)


def assert_port_table(plan):
    """Every tree link has one port, the ports run on from the core
    inboxes with no gap, and every hop names its link's port."""
    n_cores = len(set(plan.core))
    assert sorted(plan.links.values()) == list(
        range(n_cores, n_cores + len(plan.links)))
    in_trees = set()
    for hops, _, _, links in plan.fanout:
        assert links == [(lk, p) for (_, _, lk, p, _) in hops]
        for (_, _, lk, p, _) in hops:
            assert p == plan.links[lk]
            in_trees.add(lk)
    assert in_trees == plan.links.keys()


@settings(max_examples=150, deadline=None)
@given(design=designs())
def test_plan_numbers_each_link_port_once(design):
    assert_port_table(build_plan(*design))


def test_plan_numbers_each_link_port_once_on_pinned_cases():
    from test_simcost_pinned import CASES
    for case in CASES.values():
        assert_port_table(build_plan(*case()))


# --- the unlogged replay against the logged one ---

def assert_unlogged_matches_logged(design):
    """simulate(log=False) gives the logged report, compared by the repr of
    every field, except that it has no charges; or it raises the same
    CongestionError or SimError message."""
    try:
        logged = simulate(*design)
    except SimError as exc:
        with pytest.raises(type(exc)) as got:
            simulate(*design, log=False)
        assert str(got.value) == str(exc)
        return
    unlogged = simulate(*design, log=False)
    assert len(unlogged.cost_log) == 0 and tuple(unlogged.cost_log) == ()
    for f in dataclasses.fields(CostReport):
        if f.name != "charges":
            assert repr(getattr(unlogged, f.name)) == repr(getattr(logged, f.name)), f.name


@settings(max_examples=150, deadline=None)
@given(design=designs(), depth=st.integers(1, 8) | st.just(10**9))
def test_unlogged_report_matches_logged(design, depth):
    model, mapping, placement, hw, trace = design
    assert_unlogged_matches_logged(
        (model, mapping, placement, dataclasses.replace(hw, queue_depth=depth), trace))


def test_unlogged_report_matches_logged_on_pinned_cases():
    from test_simcost_pinned import CASES, PINNED_CONGESTION
    for case in CASES.values():
        assert_unlogged_matches_logged(case())
    for case, depth in PINNED_CONGESTION:
        model, mapping, placement, hw, trace = CASES[case]()
        with pytest.raises(CongestionError) as exc:
            simulate(model, mapping, placement,
                     dataclasses.replace(hw, queue_depth=depth), trace, log=False)
        assert str(exc.value) == PINNED_CONGESTION[case, depth]


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
        masks = firing_masks(layer, range(trace.n_frames))
        for f, mask in enumerate(masks):
            if layer.id == 0:
                bits = [b for (_, n, b) in frames[f]
                        if any(s <= n < e for (s, e) in slices)]
                expected = (len(bits), sum(-(-b // hw.flit_bits) for b in bits))
            else:
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


builtin_sum = builtins.sum


def compensated_sum(items, start=0):
    """sum() as Python 3.12 adds floats: with Neumaier compensation when
    every item is a float, else the builtin."""
    items = list(items)
    if not items or not all(type(x) is float for x in items):
        return builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def test_total_energy_does_not_depend_on_how_sum_adds(monkeypatch):
    """The totals are folded in one fixed order, so the pinned values hold
    whether or not sum() compensates, that is on every Python version."""
    from test_simcost_pinned import CASES, PINNED
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) != builtin_sum([0.1] * 10)
    for case in sorted(c for c in CASES if c.startswith("desk-")):
        report = simulate(*CASES[case](), log=False)
        assert repr(report.total_energy) == PINNED[case]["total_energy"], case


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
    logged = sum(e for (_, _, _, e) in cost_log(report))
    assert report.total_energy == pytest.approx(
        logged + report.static_energy, rel=1e-12)


def test_event_conservation_single_partitions():
    model = chain_model([5, 4, 3], rate=0.5, fps=0)
    trace = synth_trace(model, 3, 0, seed=9)
    report = run(model, uniform_spec(model), trace)
    n0 = len(trace.events)
    k1 = sum(int(m.sum()) for m in firing_masks(model.layers[1], range(3)))
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
    k1 = sum(int(m.sum()) for m in firing_masks(model.layers[1], range(3)))
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
    r2 = run(model, spec, trace,
             hw=dataclasses.replace(HW, clock_period=HW.clock_period * 7.25))
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


def _toy_report():
    model = chain_model([8, 6, 4], rate=0.5)
    return run(model, uniform_spec(model), synth_trace(model, 3, 30, seed=5))


@pytest.mark.parametrize("every", [0.0, -1.0, math.nan, math.inf])
def test_snapshot_interval_must_be_finite_and_positive(every):
    report = _toy_report()
    with pytest.raises(SimError) as exc:
        snapshot(report, every)
    assert str(exc.value) == (f"snapshot interval must be finite and > 0, got "
                              f"{every!r} (duration {report.duration!r})")


def test_snapshot_grid_is_bounded(monkeypatch):
    report = _toy_report()
    # a count past any float: the check must not convert it to an int
    with pytest.raises(SimError, match=r"^snapshot interval 1e-310 over duration "
                       r"\S+ needs inf samples, more than 1000000$"):
        snapshot(report, 1e-310)
    # a finite count too large to print in full reads in exponent form
    with pytest.raises(SimError, match=r"^snapshot interval 1e-300 over duration "
                       r"\S+ needs \d(\.\d+)?e\+3\d\d samples, more than 1000000$"):
        snapshot(report, 1e-300)
    # the bound itself, on a grid small enough to build if it failed
    monkeypatch.setattr(simcost, "MAX_SNAPSHOT_SAMPLES", 10)
    every = report.duration / 20
    with pytest.raises(SimError) as exc:
        snapshot(report, every)
    assert str(exc.value) == (f"snapshot interval {every!r} over duration "
                              f"{report.duration!r} needs 21 samples, more than 10")
    times, _, _ = snapshot(report, report.duration / 9)
    assert len(times) <= 11


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
    settings = {"algo": "none", "seed": 0, "workload": "/tmp/a,b/net.net",
                "note": 'say "hi"\nthen stop'}
    write_run_files(report, out, settings=settings)
    for name in ("summary.txt", "snapshots_cores.csv",
                 "snapshots_interconnects.csv", "output_snapshot.csv",
                 "gui_setting.csv"):
        assert (out / name).exists()
    # a value with a comma, a quote or a newline is quoted; the rest keep
    # their plain bytes
    with open(out / "gui_setting.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["key", "value"]] + [
            [k, str(settings[k])] for k in sorted(settings)]
    assert (out / "gui_setting.csv").read_text().startswith(
        "key,value\nalgo,none\nnote,")
    rows = (out / "output_snapshot.csv").read_text().strip().splitlines()
    assert rows[0] == "timestamp,value"
    assert len(rows) == 1 + len(report.end_signal)
    header = (out / "snapshots_cores.csv").read_text().splitlines()[0]
    assert header.startswith("time,core_0")


def assert_snapshot_matches_reference(report, everies):
    for every in everies:
        got = snapshot(report, every)
        assert repr(got) == repr(reference_snapshot(report, every)), every
        if report.duration == 0:
            assert got[0] == [0.0]


def intervals(report, picks):
    """Grids on which sample instants fall exactly on charge times: a
    charge time t as the interval puts the second instant on t, t / 2 the
    third; d / k puts the last on the final charges. Grids past 2000
    samples are left out."""
    d = report.duration
    everies = [d / k for k in (1, 3, 7, 50)] + [2 * d] if d > 0 else [1.0, 1e-9]
    charged = [t for (t, _, _, _) in cost_log(report) if t > 0]
    for i in picks if charged else ():
        t = charged[i % len(charged)]
        everies += [t, t / 2]
    return [e for e in everies if d // e < 2000]


@settings(max_examples=150, deadline=None)
@given(design=designs(), variant=st.sampled_from(["drawn", "no time", "-0.0 energy"]),
       picks=st.lists(st.integers(0, 10**6), max_size=3))
def test_snapshot_matches_the_sorted_log_reference(design, variant, picks):
    model, mapping, placement, hw, trace = design
    if variant == "no time":
        # a drain trace then runs in zero duration: a one-sample grid
        hw = dataclasses.replace(hw, clock_period=hw.clock_period * 0.0)
    elif variant == "-0.0 energy":
        # validation passes -0.0, so every charge is -0.0 and the running
        # sums must start from 0.0 to stay 0.0
        hw = dataclasses.replace(hw, e_npe_op=-0.0, e_ctrl_event=-0.0,
                                 e_hop_per_flit=-0.0, e_inject=-0.0)
    report = simulate(model, mapping, placement, hw, trace)
    assert_snapshot_matches_reference(report, intervals(report, picks))


def test_snapshot_matches_the_sorted_log_reference_on_pinned_cases():
    from test_simcost_pinned import CASES
    for case in CASES.values():
        model, mapping, placement, hw, trace = case()
        report = simulate(model, mapping, placement, hw, trace)
        assert_snapshot_matches_reference(report, intervals(report, [0, 7, 10**6]))
        for hw in (dataclasses.replace(hw, clock_period=hw.clock_period * 0.0),
                   dataclasses.replace(hw, e_inject=-0.0)):
            report = simulate(model, mapping, placement, hw, trace)
            assert_snapshot_matches_reference(report, intervals(report, [3]))


def test_snapshot_of_a_logged_report_without_charges():
    model = chain_model([4, 3], rate=0.0, fps=0)
    hw = HardwareConfig(**{**HW.__dict__, "p_static_core": 2.5})
    report = run(model, uniform_spec(model), EventTrace(events=(), fps=0, n_frames=2),
                 hw=hw)
    assert len(report.charges.times) == 0
    times, core_rows, link_rows = snapshot(report, report.duration / 4)
    assert times[-1] == report.duration and link_rows == {}
    assert [rows[-1] for rows in core_rows.values()] == list(
        report.energy_per_core.values())
    assert_snapshot_matches_reference(report, [report.duration / 4])


def test_snapshot_of_an_unlogged_report_is_an_error(tmp_path):
    """Without the log the rows would hold static energy only: 2520.0 in
    the last row against a total of 3019.5 on this case."""
    from test_simcost_pinned import CASES
    report = simulate(*CASES["toy2-channel-drain"](), log=False)
    assert report.charges is None and tuple(report.cost_log) == ()
    message = r"^snapshot needs the charge log of a report simulated with log=True$"
    with pytest.raises(SimError, match=message):
        snapshot(report, 1.0)
    with pytest.raises(SimError, match=message):
        write_run_files(report, tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_cost_log_length_builds_no_tuples():
    """len() reads the column length: a tuple per charge would allocate
    about 3 MiB on this report. It is the count perfbench reads, 0 when
    unlogged."""
    from test_simcost_pinned import CASES
    design = CASES["desk-wide-fps30"]()
    report = simulate(*design)
    assert len(report.charges.times) > 20_000
    tracemalloc.start()
    try:
        n = len(report.cost_log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == len(report.charges.times) == len(cost_log(report))
    assert peak < 4096
    assert len(simulate(*design, log=False).cost_log) == 0


def test_charge_log_stays_within_24_bytes_a_charge():
    times, ports, energies, owners = _toy_report().charges
    assert len(times) == len(ports) == len(energies) > 0
    assert all(type(col) is array for col in (times, ports, energies))
    assert times.itemsize + ports.itemsize + energies.itemsize <= 24
    assert owners[0] == ("core", 0)


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


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(HardwareConfig)
                                  if isinstance(f.default, int)])
def test_integer_hardware_field_must_fit_int64(name):
    HardwareConfig(**{name: 2**63 - 1})
    with pytest.raises(SimError, match=rf"^{name} must be < 2\*\*63, got {2**63}$"):
        HardwareConfig(**{name: 2**63})
