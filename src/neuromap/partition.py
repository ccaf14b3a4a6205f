"""Layer partitioning onto cores and the per-core memory bound.

Partitions are contiguous ranges along one axis (layer = single neurons,
channel, height, width). Weights and biases are apportioned to partitions
by cumulative proportional rounding so per-layer totals are conserved
exactly. One layer per core set by default; co-location only through
cluster_layers, which tags the result as distortion-prone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .configio import parse_row
from .workload import Bitwidths, Layer, NetworkModel

AXES = ("layer", "channel", "height", "width")
STYLES = ("homogeneous", "greedy")

# 1 MB node, expressed in bits
M_MAX_DEFAULT = 8 * 2**20


class PartitionError(ValueError):
    """Raised when a requested split is malformed or exceeds the memory cap."""


def memory_per_core(n_npc: int, n_wpc: int, n_bpc: int, n_tpc: int, f_snn: bool,
                    bw_states: int, bw_outputs: int, bw_weights: int) -> int:
    """Memory bits one core needs for the given resource counts: neuron
    and threshold counts times the state+output bit-widths, plus weights
    and biases times the weight bit-width."""
    if min(n_npc, n_wpc, n_bpc, n_tpc) < 0:
        raise PartitionError("resource counts must be >= 0")
    if min(bw_states, bw_outputs, bw_weights) <= 0:
        raise PartitionError("bit-widths must be > 0")
    flag = 1 if f_snn else 0
    return (2 * (n_npc + n_tpc * flag) * (bw_states + bw_outputs)
            + (n_wpc + n_bpc) * bw_weights)


def split_homogeneous(extent: int, n_parts: int) -> list[int]:
    """Front-loaded balanced sizes: max and min differ by at most 1."""
    base, rem = divmod(extent, n_parts)
    return [base + 1] * rem + [base] * (n_parts - rem)


def _share(total: int, lo: int, hi: int, whole: int) -> int:
    # cumulative rounding: shares over a contiguous cover sum to total exactly
    return total * hi // whole - total * lo // whole


def _range_counts(layer: Layer, axis: str, start: int, end: int) -> tuple[int, int, int, int]:
    """(N_npc, N_wpc, N_bpc, N_tpc) for axis units [start, end)."""
    extent = layer.axis_extent(axis)
    per_unit = layer.neurons // extent
    n_npc = (end - start) * per_unit
    n_wpc = _share(layer.weights, start * per_unit, end * per_unit, layer.neurons)
    n_bpc = _share(layer.biases, start * per_unit, end * per_unit, layer.neurons)
    n_tpc = n_npc if layer.is_snn else 0
    return n_npc, n_wpc, n_bpc, n_tpc


def partition_layer(layer: Layer, n_parts: int, axis: str,
                    style: str = "homogeneous", *,
                    m_max: int = M_MAX_DEFAULT,
                    bitwidths: Bitwidths = Bitwidths()) -> list[tuple[int, int]]:
    """Split a layer into contiguous axis ranges [(start, end), ...].

    homogeneous: n_parts groups whose sizes differ by at most 1, larger
    groups first. greedy: n_parts is ignored; groups are filled in axis
    order until the next unit would push the group past m_max.
    An axis of extent 1 yields a single group for any n_parts.
    """
    if axis not in AXES:
        raise PartitionError(f"unknown axis {axis!r}")
    if style not in STYLES:
        raise PartitionError(f"unknown style {style!r}")
    if n_parts < 1:
        raise PartitionError("n_parts must be >= 1")
    extent = layer.axis_extent(axis)
    if extent == 1:
        return [(0, 1)]
    if style == "homogeneous":
        if n_parts > extent:
            raise PartitionError(
                f"layer {layer.id}: {n_parts} parts exceed axis {axis} extent {extent}")
        ranges = []
        pos = 0
        for size in split_homogeneous(extent, n_parts):
            ranges.append((pos, pos + size))
            pos += size
        return ranges
    # greedy: cap-driven fill
    ranges = []
    start = 0
    end = 0
    while end < extent:
        counts = _range_counts(layer, axis, start, end + 1)
        m = memory_per_core(*counts, layer.is_snn,
                            bitwidths.states, bitwidths.outputs, bitwidths.weights)
        if m > m_max:
            if end == start:
                raise PartitionError(
                    f"layer {layer.id}: one {axis} unit alone exceeds the "
                    f"memory cap ({m} > {m_max} bits)")
            ranges.append((start, end))
            start = end
        else:
            end += 1
    ranges.append((start, end))
    return ranges


@dataclass(frozen=True)
class LayerSplit:
    n_cores: int = 1
    axis: str = "layer"
    style: str = "homogeneous"

    def validate(self) -> None:
        if self.n_cores < 1:
            raise PartitionError("n_cores must be >= 1")
        if self.axis not in AXES:
            raise PartitionError(f"unknown axis {self.axis!r}")
        if self.style not in STYLES:
            raise PartitionError(f"unknown style {self.style!r}")


@dataclass(frozen=True)
class PartitionSpec:
    """One LayerSplit per layer, in layer-id order."""

    splits: tuple[LayerSplit, ...]

    def validate(self, model: NetworkModel) -> None:
        if len(self.splits) != len(model.layers):
            raise PartitionError(
                f"spec covers {len(self.splits)} layers, model has {len(model.layers)}")
        for s in self.splits:
            s.validate()


def uniform_spec(model: NetworkModel, n_cores: int = 1, axis: str = "layer",
                 style: str = "homogeneous") -> PartitionSpec:
    return PartitionSpec(tuple(LayerSplit(n_cores, axis, style) for _ in model.layers))


@dataclass(frozen=True)
class CoreAssignment:
    core_id: int
    layer_id: int
    axis: str
    range_start: int
    range_end: int
    n_npc: int
    n_wpc: int
    n_bpc: int
    n_tpc: int
    m_pc: int


@dataclass(frozen=True)
class Mapping:
    assignments: tuple[CoreAssignment, ...]
    clustered: bool = False

    @property
    def n_cores_total(self) -> int:
        return len({a.core_id for a in self.assignments})

    @property
    def layers_per_core(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for a in self.assignments:
            out.setdefault(a.core_id, []).append(a.layer_id)
        return {c: tuple(sorted(set(ls))) for c, ls in out.items()}

    def of_layer(self, layer_id: int) -> list[CoreAssignment]:
        return [a for a in self.assignments if a.layer_id == layer_id]

    def memory_by_core(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a in self.assignments:
            out[a.core_id] = out.get(a.core_id, 0) + a.m_pc
        return out


def _assignments_for_layer(layer: Layer, split: LayerSplit, bitwidths: Bitwidths,
                           m_max: int, first_core: int) -> list[CoreAssignment]:
    ranges = partition_layer(layer, split.n_cores, split.axis, split.style,
                             m_max=m_max, bitwidths=bitwidths)
    out = []
    for i, (a, b) in enumerate(ranges):
        counts = _range_counts(layer, split.axis, a, b)
        m = memory_per_core(*counts, layer.is_snn,
                            bitwidths.states, bitwidths.outputs, bitwidths.weights)
        out.append(CoreAssignment(first_core + i, layer.id, split.axis, a, b,
                                  *counts, m))
    return out


def build_mapping(model: NetworkModel, spec: PartitionSpec,
                  m_max: int = M_MAX_DEFAULT, *,
                  enforce_cap: bool = True) -> Mapping:
    """Assign every layer's partitions to fresh cores, in layer order.

    enforce_cap=False skips the M_pc <= m_max check so callers can score
    the violation instead of failing.
    """
    spec.validate(model)
    assignments: list[CoreAssignment] = []
    core = 0
    for layer, split in zip(model.layers, spec.splits):
        batch = _assignments_for_layer(layer, split, model.bitwidths, m_max, core)
        if enforce_cap:
            for a in batch:
                if a.m_pc > m_max:
                    raise PartitionError(
                        f"layer {layer.id} part {a.core_id - core}: "
                        f"M_pc={a.m_pc} exceeds cap {m_max} bits")
        assignments.extend(batch)
        core += len(batch)
    return Mapping(tuple(assignments))


def cluster_layers(mapping: Mapping, groups: list[set[int]],
                   m_max: int = M_MAX_DEFAULT, *,
                   enforce_cap: bool = True) -> Mapping:
    """Co-locate each group's layers onto shared cores, part-by-part.

    Every layer in a group must have the same partition count. Co-location
    risks inter-layer event interleaving; the result is tagged clustered
    so fidelity gets checked downstream.
    """
    if not groups:
        return mapping
    flat: set[int] = set()
    for g in groups:
        if flat & g:
            raise PartitionError("cluster groups must be disjoint")
        flat |= g
    group_of: dict[int, int] = {}
    for gi, g in enumerate(groups):
        for lid in g:
            group_of[lid] = gi
    parts: dict[int, list[CoreAssignment]] = {}
    for a in mapping.assignments:
        parts.setdefault(a.layer_id, []).append(a)
    for g in groups:
        sizes = {len(parts[lid]) for lid in g if lid in parts}
        if len(sizes) > 1:
            raise PartitionError(
                f"layers in cluster group {sorted(g)} have unequal part counts {sizes}")

    # rebuild core ids: a group's cores are claimed when its first layer
    # appears; later layers in the group reuse them part-by-part
    next_core = 0
    group_cores: dict[int, list[int]] = {}
    remapped: list[CoreAssignment] = []
    for a in sorted(mapping.assignments, key=lambda a: (a.layer_id, a.range_start)):
        gi = group_of.get(a.layer_id)
        part_index = parts[a.layer_id].index(a)
        if gi is None:
            remapped.append(replace(a, core_id=next_core))
            next_core += 1
        else:
            cores = group_cores.setdefault(gi, [])
            if part_index >= len(cores):
                cores.append(next_core)
                next_core += 1
            remapped.append(replace(a, core_id=cores[part_index]))
    out = Mapping(tuple(sorted(remapped, key=lambda a: (a.core_id, a.layer_id))),
                  clustered=True)
    if enforce_cap:
        for core_id, total in out.memory_by_core().items():
            if total > m_max:
                raise PartitionError(
                    f"core {core_id}: clustered M_pc={total} exceeds cap {m_max} bits")
    return out


_CSV_HEADER = "core_id,layer_id,axis,range_start,range_end,N_npc,N_wpc,N_bpc,N_tpc,M_pc_bits"
_CSV_COLUMNS = tuple(zip(_CSV_HEADER.split(","), (int, int, str) + (int,) * 7))


def save_mapping(mapping: Mapping, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER + "\n")
        for a in mapping.assignments:
            fh.write(f"{a.core_id},{a.layer_id},{a.axis},{a.range_start},"
                     f"{a.range_end},{a.n_npc},{a.n_wpc},{a.n_bpc},{a.n_tpc},{a.m_pc}\n")


def load_mapping(path) -> Mapping:
    assignments = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise PartitionError(f"{path}: unexpected mapping header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            assignments.append(CoreAssignment(*parse_row(
                line, _CSV_COLUMNS, f"{path}:{lineno}", PartitionError)))
    mapping = Mapping(tuple(assignments))
    layer_sets = mapping.layers_per_core.values()
    return replace(mapping, clustered=any(len(ls) > 1 for ls in layer_sets))


def axis_unit(layer: Layer, axis: str, flat):
    """Axis unit of each flat neuron index (an int or an integer array).

    Flat order is channel-major: flat = (channel*height + row)*width + col,
    so the unit is flat // stride % extent, stride being the product of
    the extents after the axis.
    """
    h, w = layer.height, layer.width
    stride = {"layer": 1, "channel": h * w, "height": w, "width": 1}.get(axis)
    if stride is None:
        raise PartitionError(f"unknown axis {axis!r}")
    return flat // stride % layer.axis_extent(axis)
