"""Neural-network workload model: layer graph, event rates, trace synthesis.

Layers are conv-shaped (channels x height x width); dense layers use the
degenerate shape channels=1, height=1, width=neurons so every partition
axis is defined for every layer. Flat neuron indices are channel-major:
flat = (channel * height + row) * width + col; partition alone maps them
to axis units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .configio import (
    MAX_SNAPSHOT_SAMPLES,
    ConfigFormatError,
    check_keys,
    convert,
    format_blocks,
    get_value,
    parse_blocks_file,
    parse_rows,
    write_rows,
)

ALLOWED_BITWIDTHS = (4, 8, 16)


class WorkloadError(ValueError):
    """Raised when a workload description violates a model invariant."""


def _check_kind(layer_id: int, kind: str) -> None:
    if kind not in ("dense", "conv"):
        raise WorkloadError(f"layer {layer_id}: kind must be dense or conv, got {kind!r}")


@dataclass(frozen=True)
class Layer:
    id: int
    kind: str                  # "dense" | "conv"
    channels: int
    height: int
    width: int
    weights: int
    biases: int
    is_snn: bool
    avg_event_rate: float

    @property
    def neurons(self) -> int:
        return self.channels * self.height * self.width

    def __post_init__(self):
        _check_kind(self.id, self.kind)
        if min(self.channels, self.height, self.width) < 1:
            raise WorkloadError(f"layer {self.id}: channels/height/width must be >= 1")
        # simcost stores flat neuron ids as int32
        if self.neurons >= 2**31:
            raise WorkloadError(f"layer {self.id}: neurons must be < 2**31, "
                                f"got {self.neurons}")
        if self.kind == "dense" and (self.channels != 1 or self.height != 1):
            raise WorkloadError(f"layer {self.id}: dense layers must have channels=1, height=1")
        if self.weights < 0 or self.biases < 0:
            raise WorkloadError(f"layer {self.id}: weights/biases must be >= 0")
        # NaN fails both comparisons
        if not 0 <= self.avg_event_rate < math.inf:
            raise WorkloadError(f"layer {self.id}: avg_event_rate must be finite "
                                f"and >= 0, got {self.avg_event_rate!r}")
        if self.is_snn and self.avg_event_rate > 1.0:
            raise WorkloadError(
                f"layer {self.id}: binary-spike layers need avg_event_rate <= 1, "
                f"got {self.avg_event_rate}"
            )


@dataclass(frozen=True)
class Bitwidths:
    states: int = 16
    outputs: int = 16
    weights: int = 8

    def __post_init__(self):
        for name, value in vars(self).items():
            if value not in ALLOWED_BITWIDTHS:
                raise WorkloadError(f"bw_{name} must be one of {ALLOWED_BITWIDTHS}, got {value}")


@dataclass(frozen=True)
class NetworkModel:
    name: str
    layers: tuple[Layer, ...]
    edges: tuple[tuple[int, int], ...]
    bitwidths: Bitwidths = Bitwidths()
    frame_rate_fps: int = 0

    @property
    def input_layer(self) -> Layer:
        return self.layers[0]

    @property
    def output_layer(self) -> Layer:
        sinks = [l for l in self.layers if not self.successors(l.id)]
        return sinks[0]

    def successors(self, layer_id: int) -> list[int]:
        return [d for (s, d) in self.edges if s == layer_id]

    def predecessors(self, layer_id: int) -> list[int]:
        return [s for (s, d) in self.edges if d == layer_id]

    def __post_init__(self):
        if not self.layers:
            raise WorkloadError("model has no layers")
        for i, layer in enumerate(self.layers):
            if layer.id != i:
                raise WorkloadError(f"layer ids must be 0..n-1 in order, got {layer.id} at position {i}")
        if self.frame_rate_fps < 0:
            raise WorkloadError("frame_rate_fps must be >= 0")
        n = len(self.layers)
        seen = set()
        for (s, d) in self.edges:
            if not (0 <= s < n and 0 <= d < n):
                raise WorkloadError(f"edge ({s},{d}) references an unknown layer")
            if s >= d:
                raise WorkloadError(f"edge ({s},{d}) must go from a lower to a higher layer id (DAG)")
            if (s, d) in seen:
                raise WorkloadError(f"duplicate edge ({s},{d})")
            seen.add((s, d))
        if n > 1:
            if self.predecessors(0):
                raise WorkloadError("layer 0 is the input source and cannot have predecessors")
            for layer in self.layers[1:]:
                if not self.predecessors(layer.id):
                    raise WorkloadError(f"layer {layer.id} is unreachable (no incoming edge)")
            sinks = [l.id for l in self.layers if not self.successors(l.id)]
            if len(sinks) != 1:
                raise WorkloadError(f"exactly one output layer required, found sinks {sinks}")


def frame_time(slot: int, fps: float) -> float:
    """Grid time of a frame slot: slot / fps, or the ordinal itself when
    fps == 0."""
    return slot / fps if fps > 0 else float(slot)


@dataclass(frozen=True)
class EventTrace:
    """Time-ordered input events. Equal timestamps form one frame burst.

    A burst at time t fills frame slot round(t * fps); fps == 0 marks
    event-driven mode, where timestamps are frame ordinals (slot round(t))
    and the simulator injects each frame only once the pipeline has
    drained. A slot without a burst is a silent frame and keeps its place.
    Payload bits lie in [0, 2**63), so they fit the simulator's int64.
    """

    events: tuple[tuple[float, int, int], ...]  # (timestamp, neuron_id, payload_bits)
    fps: float
    n_frames: int

    def __post_init__(self):
        # NaN fails both comparisons
        if not 0 <= self.fps < math.inf:
            raise WorkloadError(f"trace fps must be >= 0 and finite, got {self.fps}")
        if self.n_frames < 1:
            raise WorkloadError(f"trace needs n_frames >= 1, got {self.n_frames}")
        if self.n_frames > MAX_SNAPSHOT_SAMPLES:
            raise WorkloadError(f"trace has {self.n_frames} frames, more than "
                                f"{MAX_SNAPSHOT_SAMPLES}")
        last_t, last_slot = -math.inf, None
        for t, _ in groupby(self.events, key=itemgetter(0)):
            # t * fps is finite exactly when t has a slot, fps == 0 included
            if not (math.isfinite(t * self.fps) and t >= last_t):
                raise WorkloadError("trace timestamps must be finite and "
                                    "non-decreasing")
            slot = self.slot(t)
            if not 0 <= slot < self.n_frames:
                raise WorkloadError(f"trace burst at t={t} falls outside the "
                                    f"{self.n_frames}-frame grid")
            if slot == last_slot:
                raise WorkloadError(f"two trace bursts map to frame slot {slot}")
            last_t, last_slot = t, slot
        for bits in (min(map(itemgetter(2), self.events), default=0),
                     max(map(itemgetter(2), self.events), default=0)):
            if not 0 <= bits < 2**63:
                raise WorkloadError(f"trace payload_bits must be in "
                                    f"[0, 2**63), got {bits}")

    def slot(self, t: float) -> int:
        """Frame slot of a burst at time t."""
        return round(t * self.fps) if self.fps > 0 else round(t)

    def frames(self) -> list[list[tuple[float, int, int]]]:
        """n_frames event lists indexed by slot, empty for a silent frame."""
        out: list[list[tuple[float, int, int]]] = [[] for _ in range(self.n_frames)]
        for t, burst in groupby(self.events, key=itemgetter(0)):
            out[self.slot(t)] = list(burst)
        return out


def retime_trace(trace: EventTrace, fps: float) -> EventTrace:
    """Same frames on a new grid (fps == 0 -> ordinals): every burst keeps
    its slot, so silent frames keep theirs too."""
    return EventTrace(events=tuple((frame_time(slot, fps), nid, bits)
                                   for slot, burst in enumerate(trace.frames())
                                   for (_, nid, bits) in burst),
                      fps=fps, n_frames=trace.n_frames)


def _chain_edges(n_layers: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n_layers - 1))


# .net keys read and written as-is, in write order: key -> (field or None if alike, type, default)
_VALUES = {"network": {"fps": ("frame_rate_fps", int, 0), "bw_states": ("states", int, 16),
                       "bw_outputs": ("outputs", int, 16), "bw_weights": ("weights", int, 8)},
           "layer": {"weights": (None, int, 0), "biases": (None, int, 0),
                     "rate": ("avg_event_rate", float, 0.0), "snn": ("is_snn", bool, True)}}
_NETWORK_KEYS = ("name", *_VALUES["network"], "edges")
_LAYER_KEYS = ("kind", "neurons", "channels", "height", "width", *_VALUES["layer"])


def _from_block(section: str, fields: dict[str, str], source: str) -> dict:
    """field -> value of section's as-is keys; an absent key gives its default."""
    return {name or key: get_value(fields, key, kind, default, source)
            for key, (name, kind, default) in _VALUES[section].items()}


def _to_block(section: str, attrs: dict) -> dict[str, object]:
    """key -> value of section's as-is keys, read off attrs (field -> value)."""
    return {key: attrs[name or key] for key, (name, _, _) in _VALUES[section].items()}


def _layer_from_block(idx: int, fields: dict[str, str], source: str) -> Layer:
    check_keys(fields, _LAYER_KEYS, source)
    kind = fields.get("kind", "dense").lower()
    _check_kind(idx, kind)
    if kind == "dense":
        neurons = get_value(fields, "neurons", int, source=source)
        channels, height, width = 1, 1, neurons
    else:
        channels = get_value(fields, "channels", int, source=source)
        height = get_value(fields, "height", int, source=source)
        width = get_value(fields, "width", int, source=source)
        declared = get_value(fields, "neurons", int, channels * height * width, source)
        if declared != channels * height * width:
            raise WorkloadError(
                f"layer {idx}: neurons={declared} but channels*height*width="
                f"{channels * height * width}"
            )
    return Layer(id=idx, kind=kind, channels=channels, height=height, width=width,
                 **_from_block("layer", fields, source))


def _parse_edges(raw: str, source: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        s, _, d = part.partition(">")
        try:
            edges.append((int(s), int(d)))
        except ValueError:
            raise ConfigFormatError(f"{source}: edge {part!r} must look like "
                                    f"'src>dst' with integer layer ids") from None
    return tuple(edges)


def load_network(path) -> NetworkModel:
    """Load and validate a workload description file."""
    blocks = parse_blocks_file(path)
    net_fields: dict[str, str] | None = None
    layers: list[Layer] = []
    for section, fields in blocks:
        if section == "network":
            if net_fields is not None:
                raise ConfigFormatError(f"{path}: multiple [network] sections")
            check_keys(fields, _NETWORK_KEYS, str(path))
            net_fields = fields
        elif section == "layer":
            layers.append(_layer_from_block(len(layers), fields, source=str(path)))
        else:
            raise ConfigFormatError(f"{path}: unknown section [{section}]")
    if net_fields is None:
        raise ConfigFormatError(f"{path}: missing [network] section")
    if not layers:
        raise ConfigFormatError(f"{path}: no [layer] blocks")
    edges_raw = net_fields.get("edges")
    edges = _parse_edges(edges_raw, str(path)) if edges_raw else _chain_edges(len(layers))
    values = _from_block("network", net_fields, str(path))
    fps = values.pop("frame_rate_fps")
    return NetworkModel(name=net_fields.get("name", "unnamed"), layers=tuple(layers),
                        edges=edges, bitwidths=Bitwidths(**values), frame_rate_fps=fps)


def save_network(model: NetworkModel, path) -> None:
    net = {"name": model.name, **_to_block("network", vars(model) | vars(model.bitwidths))}
    if model.edges != _chain_edges(len(model.layers)):
        net["edges"] = ",".join(f"{s}>{d}" for (s, d) in model.edges)
    blocks: list[tuple[str, dict[str, object]]] = [("network", net)]
    for layer in model.layers:
        shape = ({"neurons": layer.width} if layer.kind == "dense" else dict(
            channels=layer.channels, height=layer.height, width=layer.width))
        blocks.append(("layer", {"kind": layer.kind, **shape, **_to_block("layer", vars(layer))}))
    Path(path).write_text(format_blocks(blocks), encoding="utf-8")


def synth_trace(model: NetworkModel, n_frames: int, fps: float, seed: int) -> EventTrace:
    """Generate an input trace: per frame, each input neuron fires Bernoulli(rate).

    fps > 0 places frame bursts 1/fps time units apart; fps == 0 stamps frames
    with their ordinal (the simulator injects them on pipeline drain).
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if n_frames > MAX_SNAPSHOT_SAMPLES:
        raise ValueError(f"n_frames must be <= {MAX_SNAPSHOT_SAMPLES}, got {n_frames}")
    layer = model.input_layer
    rate = layer.avg_event_rate
    payload = model.bitwidths.outputs
    rng = np.random.default_rng(seed)
    events: list[tuple[float, int, int]] = []
    for f in range(n_frames):
        t = frame_time(f, fps)
        draws = rng.random(layer.neurons)
        for nid in np.flatnonzero(draws < rate):
            events.append((t, int(nid), payload))
    return EventTrace(events=tuple(events), fps=fps, n_frames=n_frames)


# a trace file's line 1, its frame grid, which timestamps alone cannot tell
_GRID_LINE = "# fps={} frames={}"
_TRACE_COLUMNS = (("timestamp", float), ("neuron_id", int), ("payload_bits", int))


def save_trace(trace: EventTrace, path) -> None:
    write_rows(path, _TRACE_COLUMNS, trace.events,
               _GRID_LINE.format(trace.fps, trace.n_frames) + "\n")


def load_trace(path) -> EventTrace:
    """Read a trace written by save_trace: line 1 its grid line, holding
    fps and frames once each and nothing else, then its header and rows."""
    grid_line = repr(_GRID_LINE.format("<f>", "<n>"))
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline().strip()
        if not line.startswith("#"):
            raise WorkloadError(f"{path}: missing the {grid_line} line")
        tokens = [token.partition("=") for token in line[1:].split()]
        if sorted(key for key, _, _ in tokens) != ["fps", "frames"]:
            raise WorkloadError(f"{path}:1: expected {grid_line}, got {line!r}")
        grid = {key: value for key, _, value in tokens}
        fps = convert(grid["fps"], float, f"{path}:1", "fps")
        n_frames = convert(grid["frames"], int, f"{path}:1", "frames")
        events = parse_rows(fh, path, _TRACE_COLUMNS, WorkloadError,
                            "trace header", start=2)
    try:
        return EventTrace(events=tuple(events), fps=fps, n_frames=n_frames)
    except WorkloadError as exc:
        raise WorkloadError(f"{path}: {exc}") from None


# Deterministic per-(layer, frame, neuron) firing draws shared by every
# simulation of the same model+trace, independent of mapping. splitmix64
# over a stable 64-bit key; python's hash() is salted and unusable here.
# uint64 arithmetic wraps modulo 2**64, as the mixer needs.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KEY_STRIDE = np.uint64(0x2545F4914F6CDD1D)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# neurons drawn at a time: three uint64 buffers of this length
_MASK_BLOCK = 16384


def _threshold(rate: float) -> int:
    """Least integer T with float(T) >= rate * 2**64: a 64-bit draw x has
    x < T exactly when float(x) / 2**64 < rate."""
    target = rate * 2.0**64
    lo, hi = 0, math.ceil(target)
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def firing_masks(layer: Layer, frames):
    """For each frame f, a fresh boolean mask over the layer's flat neuron
    index: which neurons fire in frame f. The draws run in blocks of
    _MASK_BLOCK neurons, so the mixer's buffers stay that small whatever
    the layer's size; the blocks' keys are shared by the frames."""
    rate = layer.avg_event_rate
    n = layer.neurons
    if rate <= 0 or rate >= 1:
        for _ in frames:
            yield np.full(n, rate >= 1)
        return
    limit = np.uint64(_threshold(rate))
    keys = np.arange(min(n, _MASK_BLOCK), dtype=np.uint64) * _KEY_STRIDE
    x, t = np.empty_like(keys), np.empty_like(keys)
    for frame in frames:
        mask = np.empty(n, dtype=bool)
        seed = layer.id * 0x10001 + frame + _GOLDEN
        for s in range(0, n, _MASK_BLOCK):
            m = min(_MASK_BLOCK, n - s)
            xs, ts = x[:m], t[:m]
            # neuron s + i has key s * stride + i * stride (mod 2**64)
            np.add(keys[:m], np.uint64((seed + s * int(_KEY_STRIDE)) & _MASK64),
                   out=xs)
            for shift, mul in ((30, _MIX1), (27, _MIX2)):
                np.right_shift(xs, shift, out=ts)
                xs ^= ts
                xs *= mul
            np.right_shift(xs, 31, out=ts)
            xs ^= ts
            np.less(xs, limit, out=mask[s:s + m])
        yield mask


def packaged_config(name: str) -> Path:
    """Path of a config file shipped in the package's configs directory."""
    return Path(resources.files("neuromap") / "configs" / name)
