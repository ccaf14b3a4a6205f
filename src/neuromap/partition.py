"""Layer partitioning onto cores and the per-core memory bound.

Partitions are contiguous ranges along one axis (layer = single neurons,
channel, height, width). This module alone owns the axis layout: the
extent and flat-index stride of each axis come from one table. Weights
and biases are apportioned to partitions by cumulative proportional
rounding so per-layer totals are conserved exactly. build_mapping gives
each layer cores of its own; a mapping read by load_mapping may put
several layers on one core, and the simulator delivers their events on
that core.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .configio import read_rows, write_rows
from .workload import Bitwidths, Layer, NetworkModel

# axis -> (extent, stride) of a layer. Flat neuron order is channel-major,
# flat = (channel*height + row)*width + col, so an axis's stride is the
# product of the extents after it
_AXIS_SHAPES = {
    "layer": lambda l: (l.neurons, 1),
    "channel": lambda l: (l.channels, l.height * l.width),
    "height": lambda l: (l.height, l.width),
    "width": lambda l: (l.width, 1),
}
AXES = tuple(_AXIS_SHAPES)
STYLES = ("homogeneous", "greedy")

# 1 MB node, expressed in bits
M_MAX_DEFAULT = 8 * 2**20


class PartitionError(ValueError):
    """Raised when a requested split is malformed or exceeds the memory cap."""


def _check_axis(axis: str) -> None:
    if axis not in _AXIS_SHAPES:
        raise PartitionError(f"unknown axis {axis!r}, expected one of {AXES}")


def axis_shape(layer: Layer, axis: str) -> tuple[int, int]:
    """(extent, stride) of the axis: its unit count, and the flat-index
    distance between neighbouring units."""
    _check_axis(axis)
    return _AXIS_SHAPES[axis](layer)


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


def range_counts(layer: Layer, axis: str, start: int, end: int,
                 bitwidths: Bitwidths) -> tuple[int, int, int, int, int]:
    """(N_npc, N_wpc, N_bpc, N_tpc, M_pc) for axis units [start, end)."""
    per_unit = layer.neurons // axis_shape(layer, axis)[0]
    n_npc = (end - start) * per_unit
    n_wpc = _share(layer.weights, start * per_unit, end * per_unit, layer.neurons)
    n_bpc = _share(layer.biases, start * per_unit, end * per_unit, layer.neurons)
    n_tpc = n_npc if layer.is_snn else 0
    return n_npc, n_wpc, n_bpc, n_tpc, memory_per_core(
        n_npc, n_wpc, n_bpc, n_tpc, layer.is_snn,
        bitwidths.states, bitwidths.outputs, bitwidths.weights)


@dataclass(frozen=True)
class LayerSplit:
    n_cores: int = 1
    axis: str = "layer"
    style: str = "homogeneous"

    def __post_init__(self):
        if self.n_cores < 1:
            raise PartitionError("n_cores must be >= 1")
        _check_axis(self.axis)
        if self.style not in STYLES:
            raise PartitionError(f"unknown style {self.style!r}")


def partition_layer(layer: Layer, split: LayerSplit, *,
                    m_max: int = M_MAX_DEFAULT,
                    bitwidths: Bitwidths = Bitwidths()) -> list[tuple[int, int]]:
    """Split a layer into contiguous ranges [(start, end), ...] along
    split.axis.

    homogeneous: split.n_cores groups whose sizes differ by at most 1,
    larger groups first. greedy: n_cores is ignored; groups are filled in
    axis order until the next unit would push the group past m_max.
    An axis of extent 1 yields a single group for any n_cores.
    """
    axis, n_parts = split.axis, split.n_cores
    extent = axis_shape(layer, axis)[0]
    if extent == 1:
        return [(0, 1)]
    if split.style == "homogeneous":
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
        m = range_counts(layer, axis, start, end + 1, bitwidths)[-1]
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
class PartitionSpec:
    """One LayerSplit per layer, in layer-id order."""

    splits: tuple[LayerSplit, ...]


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

    @property
    def n_cores_total(self) -> int:
        return len({a.core_id for a in self.assignments})

    def memory_by_core(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a in self.assignments:
            out[a.core_id] = out.get(a.core_id, 0) + a.m_pc
        return out

    def over_budget(self, m_max: int) -> list[tuple[int, int]]:
        """[(core, bits), ...] of every core over m_max, by core id."""
        return sorted((c, bits) for c, bits in self.memory_by_core().items()
                      if bits > m_max)

    def check_budget(self, m_max: int, error: type[ValueError]) -> None:
        """Raise error naming the lowest core over m_max, if any."""
        over = self.over_budget(m_max)
        if over:
            core, bits = over[0]
            raise error(f"infeasible mapping: core {core} needs M_pc = {bits} bits, "
                        f"exceeding M_max = {m_max} bits ({len(over)} core(s) over budget)")


def _assignments_for_layer(layer: Layer, split: LayerSplit, bitwidths: Bitwidths,
                           m_max: int, first_core: int) -> list[CoreAssignment]:
    ranges = partition_layer(layer, split, m_max=m_max, bitwidths=bitwidths)
    return [CoreAssignment(first_core + i, layer.id, split.axis, a, b,
                           *range_counts(layer, split.axis, a, b, bitwidths))
            for i, (a, b) in enumerate(ranges)]


def build_mapping(model: NetworkModel, spec: PartitionSpec,
                  m_max: int = M_MAX_DEFAULT) -> Mapping:
    """Assign every layer's partitions to fresh cores, in layer order.

    m_max drives the greedy splits only: a core over it is left for the
    caller to reject (simulate) or score (a search's penalty).
    """
    if len(spec.splits) != len(model.layers):
        raise PartitionError(
            f"spec covers {len(spec.splits)} layers, model has {len(model.layers)}")
    assignments: list[CoreAssignment] = []
    core = 0
    for layer, split in zip(model.layers, spec.splits):
        batch = _assignments_for_layer(layer, split, model.bitwidths, m_max, core)
        assignments.extend(batch)
        core += len(batch)
    return Mapping(tuple(assignments))


_CSV_HEADER = "core_id,layer_id,axis,range_start,range_end,N_npc,N_wpc,N_bpc,N_tpc,M_pc_bits"
_CSV_COLUMNS = tuple(zip(_CSV_HEADER.split(","), (int, int, str) + (int,) * 7))


def save_mapping(mapping: Mapping, path) -> None:
    write_rows(path, _CSV_COLUMNS, map(astuple, mapping.assignments))


def load_mapping(path) -> Mapping:
    assignments = [CoreAssignment(*row) for row in read_rows(
        path, _CSV_COLUMNS, PartitionError, "mapping header")]
    if not assignments:
        raise PartitionError(f"{path}: no partition rows")
    return Mapping(tuple(assignments))


def axis_unit(layer: Layer, axis: str, flat):
    """Axis unit of each flat neuron index (an int or an integer array):
    flat // stride % extent."""
    extent, stride = axis_shape(layer, axis)
    return flat // stride % extent


def flat_range(layer: Layer, axis: str, start: int,
               end: int) -> tuple[int, int] | None:
    """The flat neurons [lo, hi) of axis units [start, end), or None when
    they are not contiguous in flat order. They are when the range spans
    the whole axis or the extents before the axis are all 1: the whole
    layer, any channel range, a height range when channels = 1, a width
    range when channels = height = 1."""
    extent, stride = axis_shape(layer, axis)
    if start == 0 and end == extent:
        return (0, layer.neurons)
    if stride * extent == layer.neurons:
        return (start * stride, end * stride)
    return None
