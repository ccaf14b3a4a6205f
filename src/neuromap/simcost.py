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

import csv
import functools
import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields
from heapq import heapify, heappop, heappush
from operator import add, itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .configio import (
    MAX_SNAPSHOT_SAMPLES,
    check_numbers,
    dataclass_block,
    format_blocks,
    get_numbers,
    read_section,
    write_rows,
)
from .fidelity import SIGNAL_COLUMNS
from .mesh import MeshPlacement
from .partition import Mapping, PartitionError, axis_shape, axis_unit, range_counts
from .workload import EventTrace, Layer, NetworkModel, firing_masks, frame_time


class SimError(ValueError):
    """Raised for malformed simulation inputs."""


class CongestionError(SimError):
    """A link or core inbox exceeded the configured queue depth."""


@dataclass(frozen=True)
class HardwareConfig:
    """Per-core resources and unit costs. Construction, dataclasses.replace
    included, raises SimError for a value no simulation can use."""

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

    def __post_init__(self):
        if self.npes_per_core < 1:
            raise SimError("npes_per_core must be >= 1")
        if self.flit_bits < 1:
            raise SimError("flit_bits must be >= 1")
        if self.queue_depth < 1:
            raise SimError("queue_depth must be >= 1")
        check_numbers(self, SimError)
        for name in ("t_npe_op", "t_hop", "t_inject"):
            t = getattr(self, name)
            if not math.isfinite(t * self.clock_period):
                raise SimError(f"{name} * clock_period must be finite, got "
                               f"{t!r} * {self.clock_period!r}")


def load_hw_config(path) -> HardwareConfig:
    hw_fields = read_section(path, "hardware",
                             {f.name for f in fields(HardwareConfig)}, SimError)
    return HardwareConfig(**get_numbers(hw_fields, HardwareConfig(), str(path)))


def save_hw_config(hw: HardwareConfig, path) -> None:
    Path(path).write_text(format_blocks([("hardware", dataclass_block(hw))]), encoding="utf-8")


Link = tuple[tuple[int, int], tuple[int, int]]


class ChargeLog(NamedTuple):
    """Every energy charge of a simulation, in charge order, as three flat
    columns (20 B a charge, no Python object per charge) and the table that
    names each port. Static power is not logged; snapshot() accrues it
    analytically."""

    times: array     # 'd': when the charged core or link finished its service
    ports: array     # 'i': core c is port c, a link is plan.links[link]
    energies: array  # 'd'
    owners: tuple[tuple[str, object], ...]  # port -> ("core", c) or ("link", link)


_NO_CHARGES = ChargeLog(array("d"), array("i"), array("d"), ())


class CostLog(Sequence):
    """Read-only view of a charge log as (time, "core"|"link", key, energy)
    tuples in charge order. len() is the column length; iteration and
    indexing build one tuple at a time, and a slice gives a tuple of them."""

    __slots__ = ("_charges",)

    def __init__(self, charges: ChargeLog):
        self._charges = charges

    def __len__(self) -> int:
        return len(self._charges.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        times, ports, energies, owners = self._charges
        return (times[i], *owners[ports[i]], energies[i])

    def __iter__(self):
        times, ports, energies, owners = self._charges
        return ((t, *owners[p], e) for t, p, e in zip(times, ports, energies))


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
    # for time-resolved snapshots; None when simulated with log=False
    charges: ChargeLog | None

    @property
    def cost_log(self) -> CostLog:
        """(time, "core"|"link", key, energy) of every charge, in charge
        order: a view over charges, empty when simulated with log=False."""
        return CostLog(_NO_CHARGES if self.charges is None else self.charges)


# (frame, flat neuron) of every firing of the layer, shared across
# simulations of the same model; worker processes each build their own copy.
# int32 keeps it no larger than a dense table even at rate 1
@functools.lru_cache(maxsize=256)
def _firings(layer: Layer, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    per_frame = list(map(np.flatnonzero, firing_masks(layer, range(n_frames))))
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


def check_mapping(model: NetworkModel, mapping: Mapping) -> dict[int, list[int]]:
    """SimError unless the mapping covers exactly the model's layers, each
    layer's partitions share one axis, tile [0, extent) along it exactly (no
    overlap, no gap, none empty) and carry the resource counts and memory
    bits of their ranges, and the core ids run 0..n-1.

    Returns layer -> its partitions' indices, sorted by range start.
    """
    assigns = mapping.assignments
    by_layer: dict[int, list[int]] = {}
    for i, a in enumerate(assigns):
        by_layer.setdefault(a.layer_id, []).append(i)
    layer_ids = {l.id for l in model.layers}
    if by_layer.keys() != layer_ids:
        raise SimError(f"mapping does not match the model: layers "
                       f"{sorted(layer_ids - by_layer.keys())} have no core, "
                       f"assignments name unknown layers "
                       f"{sorted(by_layer.keys() - layer_ids)}")
    for lid, idxs in by_layer.items():
        idxs.sort(key=lambda i: (assigns[i].range_start, assigns[i].core_id))
        layer, parts = model.layers[lid], [assigns[i] for i in idxs]
        axes = sorted({a.axis for a in parts})
        if len(axes) != 1:
            raise SimError(f"layer {layer.id}: partitions mix axes {axes}")
        axis = axes[0]
        try:
            extent = axis_shape(layer, axis)[0]
        except PartitionError as exc:
            raise SimError(f"layer {layer.id}: {exc}") from None
        ranges = [(a.range_start, a.range_end) for a in parts]
        bounds = [0] + [e for (_, e) in ranges]
        if ([s for (s, _) in ranges] != bounds[:-1] or bounds[-1] != extent
                or any(s >= e for (s, e) in ranges)):
            raise SimError(f"layer {layer.id}: {axis} ranges {ranges} do not "
                           f"tile [0, {extent}) exactly")
        for a in parts:
            want = range_counts(layer, axis, a.range_start, a.range_end,
                                model.bitwidths)
            if (a.n_npc, a.n_wpc, a.n_bpc, a.n_tpc) != want[:4]:
                raise SimError(f"layer {layer.id} core {a.core_id}: counts "
                               f"{(a.n_npc, a.n_wpc, a.n_bpc, a.n_tpc)} differ from "
                               f"{want[:4]} for {axis} range [{a.range_start}, "
                               f"{a.range_end})")
            if a.m_pc != want[4]:
                raise SimError(f"layer {layer.id} core {a.core_id}: M_pc_bits "
                               f"{a.m_pc} differs from {want[4]} for its counts")
    core_ids = sorted({a.core_id for a in mapping.assignments})
    for k, c in enumerate(core_ids):
        if c != k:
            raise SimError(f"mapping core ids must run 0..{len(core_ids) - 1}, "
                           f"found {c} in place of {k}")
    return by_layer


class SimPlan(NamedTuple):
    """Everything in a simulation that timing cannot change. Per-partition
    lists are indexed like mapping.assignments."""

    core: list[int]                     # core of each partition
    upstream: list[list[int]]           # partitions whose bundles a firing waits on
    loads: list[list[tuple[int, int]]]  # (events, flits) of each firing, one per frame
    local: list[list[int]]              # destinations on the partition's own core
    # XY multicast to the other destinations, or None: ([(u node, v node, link,
    # port, 1 on the first hop, the injection from an extra node to the root,
    # else 0)], node count, [(node, destination)], [(link, port)])
    trees: list[tuple | None]
    work: list[int]                     # core ops per consumed event
    fan_in: list[int]                   # neurons a firing value averages over, 0 on layer 0
    # on the output layer its neuron count, which an input layer that is
    # also the output divides its event share by; elsewhere 0
    output: list[int]
    inputs: list[int]                   # layer-0 partitions, fired by every frame
    frame_times: list[float]            # a burst's own timestamp, a silent frame's grid time
    fps: float
    # link -> its port: core c's inbox is port c (core ids run 0..n-1), and
    # the links follow, numbered in plan order
    links: dict[Link, int]


def input_ids(model: NetworkModel, trace: EventTrace) -> np.ndarray:
    """The trace's neuron ids as floats; SimError if one is not an input neuron."""
    n_inputs = model.input_layer.neurons
    # ids are range-checked as floats, which an id past int64 cannot overflow
    ids = np.fromiter(map(itemgetter(1), trace.events), np.float64, len(trace.events))
    bad = (ids < 0) | (ids >= n_inputs)
    if bad.any():
        raise SimError(f"trace event references input neuron "
                       f"{trace.events[bad.argmax()][1]}, layer 0 has {n_inputs}")
    return ids


def build_plan(model: NetworkModel, mapping: Mapping, placement: MeshPlacement,
               hw: HardwareConfig, trace: EventTrace) -> SimPlan:
    """Check the simulation inputs and fix everything timing cannot change."""
    if placement.n_cores < mapping.n_cores_total:
        raise SimError("placement has fewer slots than mapped cores")

    by_layer = check_mapping(model, mapping)
    mapping.check_budget(hw.mem_per_core, SimError)
    assigns = mapping.assignments

    n_frames = trace.n_frames
    frames = trace.frames()
    ids = input_ids(model, trace)
    bits = np.fromiter(map(itemgetter(2), trace.events), np.int64, len(ids))
    # layer 0 fires the trace events, each its own flits
    input_firings = (np.repeat(np.arange(n_frames), [len(b) for b in frames]),
                     ids.astype(np.int64), -(-bits // hw.flit_bits))
    coords = placement.coords
    n_cores = mapping.n_cores_total
    links: dict[Link, int] = {}
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
                hops = [(u, v, lk, links.setdefault(lk, n_cores + len(links)), k)
                        for (u, v, lk, k) in [(len(node), 0, (src_xy, src_xy), 1)]
                        + [(*edge, 0) for edge in edges]]
                trees[i] = (hops, len(node),
                            [(node[coords[assigns[j].core_id]], j) for j in remote],
                            [(lk, p) for (_, _, lk, p, _) in hops])

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
        links=links,
    )


def simulate(model: NetworkModel, mapping: Mapping, placement: MeshPlacement,
             hw: HardwareConfig, trace: EventTrace, log: bool = True) -> CostReport:
    """Replay the trace through the design. With log False the report's
    charges are None and every other field is unchanged; snapshot() and
    write_run_files need the log."""
    plan = build_plan(model, mapping, placement, hw, trace)

    # --- replay: one loop over dense port ids; only the port queues, the
    # partition states and the heap change ---
    (core, upstream, loads, local, trees, work, fan_in, output, inputs,
     frame_times, fps, links) = plan
    depth = hw.queue_depth
    # the clock scales every time constant, once per call
    clock = hw.clock_period
    t_npe_op, t_hop, t_inject = (hw.t_npe_op * clock, hw.t_hop * clock,
                                 hw.t_inject * clock)
    e_ctrl, e_npe_op = hw.e_ctrl_event, hw.e_npe_op
    # per port: when it frees up, its pending done times (non-decreasing,
    # since busy only grows), its deepest queue and the energy charged to it
    n_cores = len(set(core))
    n_ports = n_cores + len(links)
    busy = [0.0] * n_ports
    pending: list[list[float]] = [[] for _ in range(n_ports)]
    max_depth = [0] * n_ports
    energy = [0.0] * n_ports
    # a source lists its links in used at its first bundle and in charged
    # at its first charge, which keeps congestion in first-use order and
    # energy_interconnect in first-charge order
    unsent = [True] * len(core)
    unlisted = [True] * len(core)
    used: dict[Link, int] = {}
    charged: dict[Link, int] = {}
    acc = [0.0] * len(core)
    firings = [iter(l) for l in loads]
    # banked bundles per upstream partition, and how many upstreams have
    # none banked: a partition fires when that count is 0
    banked: list[dict[int, int]] = [{} for _ in core]
    missing = [len(up) for up in upstream]
    charges = None
    if log:
        charges = ChargeLog(array("d"), array("i"), array("d"),
                            tuple([("core", c) for c in range(n_cores)]
                                  + [("link", lk) for lk in links]))
        log_time, log_port, log_energy = (col.append for col in charges[:3])
    end_signal: list[tuple[float, float]] = []
    events_processed = 0
    sim_now = 0.0

    # entries (t, src core, seq, destination, source, events, value),
    # ordered by (t, src core, seq). Paced frames enter the heap at their
    # times, with source core -1, their index as seq and destination -1;
    # in drain mode the next frame fires once the heap has drained, frame
    # 0 at 0.0 even when its burst's timestamp only rounds to slot 0
    n_frames = len(frame_times)
    heap = [(frame_times[f], -1, f, -1, 0, 0, 0.0) for f in range(n_frames) if fps > 0]
    heapify(heap)
    next_frame = len(heap)
    seq = 0
    while heap or next_frame < n_frames:
        if heap:
            t, _, _, idx, src, mult, value = heappop(heap)
        else:
            t, idx = sim_now, -1
            next_frame += 1
        if idx < 0:
            fired = inputs
            if t > sim_now:
                sim_now = t
        else:
            # deliver: the inbox serializes the consumed events
            c = core[idx]
            pend = pending[c]
            if pend and pend[0] <= t:
                del pend[:bisect_right(pend, t)]
            n = len(pend) + 1
            if n > max_depth[c]:
                if n > depth:
                    raise CongestionError(f"core {c} inbox exceeded depth {depth}")
                max_depth[c] = n
            b = busy[c]
            t = (b if b > t else t) + mult * work[idx] * t_npe_op
            busy[c] = t
            pend.append(t)
            if mult > 0:
                e = mult * (e_ctrl + work[idx] * e_npe_op)
                energy[c] += e
                if log:
                    log_time(t)
                    log_port(c)
                    log_energy(e)
                acc[idx] += value * mult
                events_processed += mult
            if t > sim_now:
                sim_now = t
            bank = banked[idx]
            n = bank.get(src, 0) + 1
            bank[src] = n
            if n == 1:
                missing[idx] -= 1
            # fire once per complete marker set: one bundle from every
            # upstream partition; skewed fast senders bank extra markers
            # without firing
            n = 0
            while missing[idx] == 0:
                for u in upstream[idx]:
                    bank[u] -= 1
                    if bank[u] == 0:
                        missing[idx] += 1
                n += 1
            fired = (idx,) * n
        for i in fired:
            mult, flits = next(firings[i])
            denom = fan_in[i]
            value = acc[i] / denom if denom else 1.0
            acc[i] = 0.0
            if output[i]:
                # an input layer that is also the output reports its event share
                end_signal.append((t, value if denom else mult / output[i]))
                continue
            # emit one bundle to every destination
            src_core = core[i]
            for j in local[i]:
                heappush(heap, (t, src_core, seq, j, i, mult, value))
                seq += 1
            if trees[i] is None:
                continue
            hops, n_nodes, dests, tree_links = trees[i]
            if unsent[i]:
                unsent[i] = False
                used.update(tree_links)
            if mult > 0 and unlisted[i]:
                unlisted[i] = False
                charged.update(tree_links)
            # one injection serializes the whole multicast bundle
            service = (max(1, mult) * t_hop, max(1, mult) * t_inject)
            charge = (flits * hw.e_hop_per_flit, mult * hw.e_inject)
            arrival = [t] * (n_nodes + 1)
            # no hop ends after the delivery it feeds, which moves sim_now
            for (u, v, lk, p, k) in hops:
                t_in = arrival[u]
                pend = pending[p]
                if pend and pend[0] <= t_in:
                    del pend[:bisect_right(pend, t_in)]
                n = len(pend) + 1
                if n > max_depth[p]:
                    if n > depth:
                        name = f"injection port {lk[0]}" if k else f"link {lk[0]}->{lk[1]}"
                        raise CongestionError(f"{name} exceeded depth {depth}")
                    max_depth[p] = n
                b = busy[p]
                done = (b if b > t_in else t_in) + service[k]
                busy[p] = done
                pend.append(done)
                if mult > 0:
                    energy[p] += charge[k]
                    if log:
                        log_time(done)
                        log_port(p)
                        log_energy(charge[k])
                arrival[v] = done
            for (v, j) in dests:
                heappush(heap, (arrival[v], src_core, seq, j, i, mult, value))
                seq += 1

    duration = sim_now
    static = hw.p_static_core * duration
    # core order: first appearance in mapping.assignments
    energy_core = {c: energy[c] + static for c in dict.fromkeys(core)}
    energy_link = {lk: energy[p] for lk, p in charged.items()}
    # a left fold, which every Python version adds in the same order (3.12's
    # sum() compensates)
    total = (functools.reduce(add, energy_core.values(), 0.0)
             + functools.reduce(add, energy_link.values(), 0.0))
    # an infinite duration also makes the static energy NaN, so name it first
    for label, v in (("duration", duration), ("total_energy", total)):
        if not math.isfinite(v):
            raise SimError(f"simulated {label} is {v!r}, not a finite number")
    first_t = frame_times[0] if fps > 0 else 0.0
    last_output = max([0.0] + [t for (t, _) in end_signal])
    latency = max(0.0, last_output - first_t)
    throughput = n_frames / latency if latency > 0 else 0.0
    return CostReport(
        energy_per_core=energy_core,
        energy_interconnect=energy_link,
        total_energy=total,
        latency_end_to_end=latency,
        throughput=throughput,
        congestion={lk: max_depth[p] for lk, p in used.items()},
        end_signal=tuple(end_signal),
        events_processed=events_processed,
        duration=duration,
        static_energy=static * n_cores,
        charges=charges,
    )


def snapshot(report: CostReport, every: float):
    """Cumulative per-core and per-link energy at sample instants.

    Returns (times, core_rows, link_rows) where rows map key -> list of
    cumulative energies aligned with times. The final sample sits at the
    report duration and matches the report totals (static power accrues
    linearly between samples). SimError unless the report was simulated
    with log=True, every is finite and > 0 and the grid holds at most
    MAX_SNAPSHOT_SAMPLES instants.
    """
    if report.charges is None:
        raise SimError("snapshot needs the charge log of a report simulated "
                       "with log=True")
    duration = report.duration
    # NaN fails the comparison
    if not 0 < every < math.inf:
        raise SimError(f"snapshot interval must be finite and > 0, got {every!r} "
                       f"(duration {duration!r})")
    # a float count, which a tiny interval can overflow to inf
    n = duration // every + 1
    if n > MAX_SNAPSHOT_SAMPLES:
        raise SimError(f"snapshot interval {every!r} over duration {duration!r} "
                       f"needs {n:.16g} samples, more than {MAX_SNAPSHOT_SAMPLES}")
    times = [i * every for i in range(int(n))]
    if not times or times[-1] < duration:
        times.append(duration)
    core_keys = sorted(report.energy_per_core)
    static_rate = ((report.static_energy / len(core_keys) / duration)
                   if (core_keys and duration > 0) else 0.0)
    grid = np.array(times)
    rows = {"core": dict.fromkeys(core_keys),
            "link": dict.fromkeys(sorted(report.energy_interconnect))}
    done, port, energy, owners = report.charges
    done, energy = np.frombuffer(done), np.frombuffer(energy)
    port = np.frombuffer(port, dtype=np.intc)
    # one stable sort groups the charges by port, each port's in charge
    # order; port p's are order[bounds[p]:bounds[p + 1]]
    order = np.argsort(port, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(port, minlength=len(owners))).tolist()]
    for p, (kind, key) in enumerate(owners):
        if key not in rows[kind]:
            continue  # a link that carried only markers
        mine = order[bounds[p]:bounds[p + 1]]
        # a port's done times never decrease, so its energy at instant t is
        # its charges up to the last one at or before t, added left to
        # right from 0.0 (cumsum folds in order, as the sum of a sorted
        # log would)
        acc = np.cumsum(np.concatenate(([0.0], energy[mine])))[
            np.searchsorted(done[mine], grid, side="right")]
        rows[kind][key] = (acc + static_rate * grid if kind == "core" else acc).tolist()
    return times, rows["core"], rows["link"]


def link_label(link: Link) -> str:
    (r0, c0), (r1, c1) = link
    return f"{r0}.{c0}-{r1}.{c1}"


def write_run_files(report: CostReport, outdir, settings: dict | None = None,
                    snapshot_every: float | None = None) -> None:
    """Write the per-run file set: summary, snapshots, end signal, settings."""
    every = snapshot_every
    if every is None:
        every = report.duration / 50 if report.duration > 0 else 1.0
        every = max(every, 1e-12)
    times, core_rows, link_rows = snapshot(report, every)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with open(outdir / "summary.txt", "w", encoding="utf-8") as fh:
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
        write_rows(outdir / name, [("time", float)] + [(label(k), float) for k in rows],
                   zip(times, *rows.values()))
    write_rows(outdir / "output_snapshot.csv", SIGNAL_COLUMNS, report.end_signal)

    # csv quotes a value holding a comma, quote or newline; others keep
    # their str() bytes
    with open(outdir / "gui_setting.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows((k, str(settings[k])) for k in sorted(settings or {}))
