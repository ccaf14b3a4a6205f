"""Event-driven cost simulator for a mapped network on a mesh.

Semantics, in brief: each layer partition fires once per frame, after one
bundle (data or bare completion marker) has arrived from every upstream
partition. Bundles carry a multiplicity (number of neuron events) and every
cost scales linearly with it. Work per consumed event is the receiving
partition's neuron count (dense fan-in estimate), spread over the core's
NPEs. Routing is deterministic XY (column first); multicast pays each tree
link once, duplicating only at branch routers. Links and cores serialize:
a link is busy multiplicity x t_hop per bundle, a core multiplicity x
ceil(work/npes) x t_npe_op. Markers ride for free energy-wise but take one
bundle slot of time on the wire.

Frame admission: fps > 0 injects frames at their trace timestamps, so a
frame can overtake the previous one inside the pipeline and blend into the
accumulators (signal interleaving). fps == 0 injects the next frame only
when the event queue has drained, which makes the output value sequence
independent of hardware timing.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .configio import check_keys, format_blocks, get_numbers, parse_blocks_file
from .mesh import MeshPlacement
from .partition import AXES, Mapping, _range_counts, axis_unit, memory_per_core
from .workload import Bitwidths, EventTrace, Layer, NetworkModel, firing_mask, frame_time


class SimError(ValueError):
    """Raised for malformed simulation inputs."""


class CongestionError(SimError):
    """A link or core inbox exceeded the configured queue depth."""


@dataclass(frozen=True)
class HardwareConfig:
    npes_per_core: int = 8
    mem_per_core: int = 8 * 2**20
    clock_period: float = 1.0
    flit_bits: int = 32
    e_npe_op: float = 1.0
    e_ctrl_event: float = 1.0
    e_hop_per_flit: float = 1.0
    e_inject: float = 1.0
    p_static_core: float = 0.0
    t_npe_op: float = 1.0
    t_hop: float = 1.0
    t_inject: float = 1.0
    queue_depth: int = 1024

    def validate(self) -> None:
        if self.npes_per_core < 1:
            raise SimError("npes_per_core must be >= 1")
        if self.flit_bits < 1:
            raise SimError("flit_bits must be >= 1")
        if self.queue_depth < 1:
            raise SimError("queue_depth must be >= 1")
        for f in fields(self):
            v = getattr(self, f.name)
            # NaN fails both comparisons
            if not 0 <= v < math.inf:
                raise SimError(f"{f.name} must be finite and >= 0, got {v!r}")

    def scaled_times(self, factor: float) -> "HardwareConfig":
        """Copy with every time constant multiplied by factor."""
        return replace(self, t_npe_op=self.t_npe_op * factor,
                       t_hop=self.t_hop * factor,
                       t_inject=self.t_inject * factor)


def load_hw_config(path) -> HardwareConfig:
    blocks = parse_blocks_file(path)
    hw_fields = None
    for section, f in blocks:
        if section == "hardware":
            hw_fields = f
            break
    if hw_fields is None:
        raise SimError(f"{path}: missing [hardware] section")
    check_keys(hw_fields, {f.name for f in fields(HardwareConfig)}, str(path))
    hw = HardwareConfig(**get_numbers(hw_fields, HardwareConfig(), str(path)))
    hw.validate()
    return hw


def hw_block(hw: HardwareConfig) -> dict[str, object]:
    """Body of a [hardware] section: every field, floats written by repr."""
    return {f.name: (repr(getattr(hw, f.name)) if isinstance(getattr(hw, f.name), float)
                     else getattr(hw, f.name))
            for f in fields(HardwareConfig)}


def save_hw_config(hw: HardwareConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_blocks([("hardware", hw_block(hw))]))


Link = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class CostReport:
    energy_per_core: dict[int, float]
    energy_interconnect: dict[Link, float]
    total_energy: float
    latency_end_to_end: float
    throughput: float
    congestion: dict[Link, int]
    end_signal: tuple[tuple[float, float], ...]
    events_processed: int
    duration: float
    static_energy: float
    # (time, "core"|"link", key, energy) for time-resolved snapshots;
    # static power is not logged, snapshot() accrues it analytically
    cost_log: tuple[tuple[float, str, object, float], ...]


# (frame, flat neuron) of every firing of the layer, shared across
# simulations of the same model; worker processes each build their own copy.
# int32 keeps it no larger than a dense table even at rate 1
@functools.lru_cache(maxsize=256)
def _firings(layer: Layer, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    per_frame = [np.flatnonzero(firing_mask(layer, f)) for f in range(n_frames)]
    frame = np.repeat(np.arange(n_frames, dtype=np.int32), list(map(len, per_frame)))
    flat = np.concatenate(per_frame).astype(np.int32)
    frame.flags.writeable = flat.flags.writeable = False
    return frame, flat


def _route_xy(src: tuple[int, int], dst: tuple[int, int]) -> list[tuple[int, int]]:
    """Router coordinates visited from src to dst, column dimension first."""
    r, c = src
    path = [(r, c)]
    step = 1 if dst[1] > c else -1
    while c != dst[1]:
        c += step
        path.append((r, c))
    step = 1 if dst[0] > r else -1
    while r != dst[0]:
        r += step
        path.append((r, c))
    return path


def _multicast_tree(src: tuple[int, int], dsts) -> tuple[list, dict]:
    """XY routes from src to every dst, edges deduplicated in first-visit
    order, so a branch router feeds all its child edges from one arrival.

    Returns ([(u node, v node, link), ...], router -> node), node 0 being
    src; each edge's u node is reached by an earlier edge.
    """
    node = {src: 0}
    edges = []
    seen: set[Link] = set()
    for dst in dsts:
        path = _route_xy(src, dst)
        for u, v in zip(path, path[1:]):
            if (u, v) not in seen:
                seen.add((u, v))
                node.setdefault(v, len(node))
                edges.append((node[u], node[v], (u, v)))
    return edges, node


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


def _check_tiling(layer: Layer, parts, bw: Bitwidths) -> None:
    """SimError unless parts (sorted by range start) share one axis, tile
    [0, extent) along it exactly (no overlap, no gap, none empty) and
    carry the resource counts and memory bits of their ranges."""
    axes = sorted({a.axis for a in parts})
    if len(axes) != 1:
        raise SimError(f"layer {layer.id}: partitions mix axes {axes}")
    axis = axes[0]
    if axis not in AXES:
        raise SimError(f"layer {layer.id}: unknown axis {axis!r}")
    extent = layer.axis_extent(axis)
    ranges = [(a.range_start, a.range_end) for a in parts]
    bounds = [0] + [e for (_, e) in ranges]
    if ([s for (s, _) in ranges] != bounds[:-1] or bounds[-1] != extent
            or any(s >= e for (s, e) in ranges)):
        raise SimError(f"layer {layer.id}: {axis} ranges {ranges} do not "
                       f"tile [0, {extent}) exactly")
    for a in parts:
        counts = _range_counts(layer, axis, a.range_start, a.range_end)
        if (a.n_npc, a.n_wpc, a.n_bpc, a.n_tpc) != counts:
            raise SimError(f"layer {layer.id} core {a.core_id}: counts "
                           f"{(a.n_npc, a.n_wpc, a.n_bpc, a.n_tpc)} differ from "
                           f"{counts} for {axis} range [{a.range_start}, "
                           f"{a.range_end})")
        m_pc = memory_per_core(*counts, layer.is_snn, bw.states, bw.outputs, bw.weights)
        if a.m_pc != m_pc:
            raise SimError(f"layer {layer.id} core {a.core_id}: M_pc_bits "
                           f"{a.m_pc} differs from {m_pc} for its counts")


class SimPlan(NamedTuple):
    """Everything in a simulation that timing cannot change. Per-partition
    lists are indexed like mapping.assignments."""

    core: list[int]                     # core of each partition
    upstream: list[list[int]]           # partitions whose bundles a firing waits on
    loads: list[list[tuple[int, int]]]  # (events, flits) of each firing, one per frame
    local: list[list[int]]              # destinations on the partition's own core
    # XY multicast to the other destinations, or None: (injection link,
    # [(u node, v node, link)], node count, [(node, destination)])
    trees: list[tuple | None]
    work: list[int]                     # core ops per consumed event
    fan_in: list[int]                   # neurons a firing value averages over, 0 on layer 0
    # on the output layer its neuron count, which an input layer that is
    # also the output divides its event share by; elsewhere 0
    output: list[int]
    inputs: list[int]                   # layer-0 partitions, fired by every frame
    frame_times: list[float]            # a burst's own timestamp, a silent frame's grid time
    fps: float


def build_plan(model: NetworkModel, mapping: Mapping, placement: MeshPlacement,
               hw: HardwareConfig, trace: EventTrace) -> SimPlan:
    """Check the simulation inputs and fix everything timing cannot change."""
    hw.validate()
    if placement.n_cores < mapping.n_cores_total:
        raise SimError("placement has fewer slots than mapped cores")

    assigns = mapping.assignments
    by_layer: dict[int, list[int]] = {}
    for i, a in enumerate(assigns):
        by_layer.setdefault(a.layer_id, []).append(i)
    for lst in by_layer.values():
        lst.sort(key=lambda i: (assigns[i].range_start, assigns[i].core_id))
    layer_ids = {l.id for l in model.layers}
    if by_layer.keys() != layer_ids:
        raise SimError(f"mapping does not match the model: layers "
                       f"{sorted(layer_ids - by_layer.keys())} have no core, "
                       f"assignments name unknown layers "
                       f"{sorted(by_layer.keys() - layer_ids)}")
    for lid, idxs in by_layer.items():
        _check_tiling(model.layers[lid], [assigns[i] for i in idxs], model.bitwidths)
    for core_id, bits in mapping.memory_by_core().items():
        if bits > hw.mem_per_core:
            raise SimError(f"core {core_id} needs {bits} bits, cap is {hw.mem_per_core}")
    core_ids = sorted(mapping.layers_per_core)
    for k, c in enumerate(core_ids):
        if c != k:
            raise SimError(f"mapping core ids must run 0..{len(core_ids) - 1}, "
                           f"found {c} in place of {k}")

    n_frames = trace.n_frames
    frames = trace.frames()
    n_inputs = model.input_layer.neurons
    n_events = len(trace.events)
    # ids are range-checked as floats, which an id past int64 cannot overflow
    ids = np.fromiter(map(itemgetter(1), trace.events), np.float64, n_events)
    bad = (ids < 0) | (ids >= n_inputs)
    if bad.any():
        raise SimError(f"trace event references input neuron "
                       f"{trace.events[bad.argmax()][1]}, layer 0 has {n_inputs}")
    bits = np.fromiter(map(itemgetter(2), trace.events), np.int64, n_events)
    # layer 0 fires the trace events, each its own flits
    input_firings = (np.repeat(np.arange(n_frames), [len(b) for b in frames]),
                     ids.astype(np.int64), -(-bits // hw.flit_bits))
    coords = placement.coords
    upstream: list[list[int]] = [[] for _ in assigns]
    local: list[list[int]] = [[] for _ in assigns]
    trees: list[tuple | None] = [None] * len(assigns)
    loads: list = [None] * len(assigns)
    per_event = math.ceil(model.bitwidths.outputs / hw.flit_bits)
    for lid, idxs in by_layer.items():
        succ_parts = [j for s in model.successors(lid) for j in by_layer[s]]
        pred_parts = [j for p in model.predecessors(lid) for j in by_layer[p]]
        # bin each firing by the partition that owns its neuron; the
        # partitions tile the axis in order, so the owner is the number of
        # range ends at or below the neuron's unit
        layer = model.layers[lid]
        frame, flat, flits = input_firings if lid == 0 else (
            *_firings(layer, n_frames), per_event)
        unit = axis_unit(layer, assigns[idxs[0]].axis, flat)
        cell = np.searchsorted([assigns[i].range_end for i in idxs], unit,
                               side="right") * n_frames + frame
        events = np.bincount(cell, minlength=len(idxs) * n_frames)
        flit_sum = np.zeros(len(idxs) * n_frames, dtype=np.int64)
        np.add.at(flit_sum, cell, flits)
        for i, m, fl in zip(idxs, events.reshape(-1, n_frames).tolist(),
                            flit_sum.reshape(-1, n_frames).tolist()):
            loads[i] = list(zip(m, fl))
            upstream[i] = pred_parts
            src_core = assigns[i].core_id
            local[i] = [j for j in succ_parts if assigns[j].core_id == src_core]
            remote = [j for j in succ_parts if assigns[j].core_id != src_core]
            if remote:
                src_xy = coords[src_core]
                by_position = sorted(remote, key=lambda j: (assigns[j].layer_id,
                                                           assigns[j].range_start,
                                                           assigns[j].core_id))
                edges, node = _multicast_tree(src_xy, [coords[assigns[j].core_id]
                                                       for j in by_position])
                trees[i] = ((src_xy, src_xy), edges, len(node),
                            [(node[coords[assigns[j].core_id]], j) for j in remote])

    pred_neurons = [sum(model.layers[p].neurons for p in model.predecessors(l.id))
                    for l in model.layers]
    out = model.output_layer
    return SimPlan(
        core=[a.core_id for a in assigns],
        upstream=upstream, loads=loads, local=local, trees=trees,
        work=[math.ceil(a.n_npc / hw.npes_per_core) for a in assigns],
        fan_in=[pred_neurons[a.layer_id] for a in assigns],
        output=[out.neurons if a.layer_id == out.id else 0 for a in assigns],
        inputs=by_layer[0],
        frame_times=[b[0][0] if b else frame_time(f, trace.fps)
                     for f, b in enumerate(frames)],
        fps=trace.fps,
    )


def simulate(model: NetworkModel, mapping: Mapping, placement: MeshPlacement,
             hw: HardwareConfig, trace: EventTrace) -> CostReport:
    plan = build_plan(model, mapping, placement, hw, trace)

    # --- replay: only the ports, the partition states and the heap change ---
    (core, upstream, loads, local, trees, work, fan_in, output, inputs,
     frame_times, fps) = plan
    depth = hw.queue_depth
    links: dict[Link, _Port] = {}
    # core order as in mapping.layers_per_core: first appearance
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
        src_core = core[src]
        for j in local[src]:
            push(t_emit, src_core, "deliver", (src, j, mult, value))
        tree = trees[src]
        if tree is None:
            return
        inj, edges, n_nodes, dests = tree
        ports = tree_ports[src]
        if ports is None:
            ports = tree_ports[src] = (
                links.setdefault(inj, _Port(f"injection port {inj[0]}", depth)),
                [(u, v, lk, links.setdefault(lk, _Port(f"link {lk[0]}->{lk[1]}", depth)))
                 for (u, v, lk) in edges])
        inj_port, hops = ports
        # one injection serializes the whole multicast bundle
        _, done = inj_port.acquire(t_emit, max(1, mult) * hw.t_inject)
        if mult > 0:
            charge_link(done, inj, mult * hw.e_inject)
        arrival = [done] * n_nodes
        service = max(1, mult) * hw.t_hop
        e_hop = flits * hw.e_hop_per_flit
        for (u, v, link, p) in hops:
            _, done_edge = p.acquire(arrival[u], service)
            if mult > 0:
                charge_link(done_edge, link, e_hop)
            arrival[v] = done_edge
            if done_edge > sim_now:
                sim_now = done_edge
        for (v, j) in dests:
            push(arrival[v], src_core, "deliver", (src, j, mult, value))

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
        _, done = inbox[idx].acquire(t, mult * work[idx] * hw.t_npe_op)
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
    total = sum(energy_core.values()) + sum(energy_link.values())
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
        cost_log=tuple(cost_log),
    )


def snapshot(report: CostReport, every: float):
    """Cumulative per-core and per-link energy at sample instants.

    Returns (times, core_rows, link_rows) where rows map key -> list of
    cumulative energies aligned with times. The final sample sits at the
    report duration and matches the report totals (static power accrues
    linearly between samples).
    """
    if every <= 0:
        raise SimError("snapshot interval must be > 0")
    duration = report.duration
    times = [i * every for i in range(int(duration // every) + 1)]
    if not times or times[-1] < duration:
        times.append(duration)
    core_keys = sorted(report.energy_per_core)
    link_keys = sorted(report.energy_interconnect)
    static_rate = ((report.static_energy / len(core_keys) / duration)
                   if (core_keys and duration > 0) else 0.0)
    core_rows = {k: [] for k in core_keys}
    link_rows = {k: [] for k in link_keys}
    log = sorted(report.cost_log, key=lambda e: e[0])
    pos = 0
    acc = {"core": dict.fromkeys(core_keys, 0.0),
           "link": dict.fromkeys(link_keys, 0.0)}
    for t in times:
        while pos < len(log) and log[pos][0] <= t:
            _, kind, key, e = log[pos]
            acc[kind][key] += e
            pos += 1
        for k in core_keys:
            core_rows[k].append(acc["core"][k] + static_rate * t)
        for k in link_keys:
            link_rows[k].append(acc["link"][k])
    return times, core_rows, link_rows


def link_label(link: Link) -> str:
    (r0, c0), (r1, c1) = link
    return f"{r0}.{c0}-{r1}.{c1}"


def write_run_files(report: CostReport, outdir, settings: dict | None = None,
                    snapshot_every: float | None = None) -> None:
    """Write the per-run file set: summary, snapshots, end signal, settings."""
    import os
    os.makedirs(outdir, exist_ok=True)
    every = snapshot_every
    if every is None:
        every = report.duration / 50 if report.duration > 0 else 1.0
        every = max(every, 1e-12)
    times, core_rows, link_rows = snapshot(report, every)

    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"total_energy = {report.total_energy!r}\n")
        fh.write(f"static_energy = {report.static_energy!r}\n")
        fh.write(f"latency_end_to_end = {report.latency_end_to_end!r}\n")
        fh.write(f"throughput = {report.throughput!r}\n")
        fh.write(f"duration = {report.duration!r}\n")
        fh.write(f"events_processed = {report.events_processed}\n")
        fh.write(f"n_cores = {len(report.energy_per_core)}\n")
        fh.write(f"n_links = {len(report.energy_interconnect)}\n")
        fh.write(f"max_congestion = "
                 f"{max(report.congestion.values(), default=0)}\n")

    # snapshot() keys both row tables in sorted order
    for name, rows, label in (("snapshots_cores.csv", core_rows, "core_{}".format),
                              ("snapshots_interconnects.csv", link_rows, link_label)):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write("time," + ",".join(label(k) for k in rows) + "\n")
            for i, t in enumerate(times):
                row = ",".join(repr(rows[k][i]) for k in rows)
                fh.write(f"{t!r},{row}\n")

    with open(os.path.join(outdir, "output_snapshot.csv"), "w", encoding="utf-8") as fh:
        fh.write("timestamp,value\n")
        for (t, v) in report.end_signal:
            fh.write(f"{t!r},{v!r}\n")

    with open(os.path.join(outdir, "gui_setting.csv"), "w", encoding="utf-8") as fh:
        fh.write("key,value\n")
        for k in sorted((settings or {})):
            fh.write(f"{k},{settings[k]}\n")
