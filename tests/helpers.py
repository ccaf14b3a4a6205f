"""Builders that several test modules share and the package itself never
calls."""

from dataclasses import replace

from neuromap.partition import LayerSplit, Mapping, PartitionSpec
from neuromap.workload import NetworkModel, load_network, packaged_config


def uniform_spec(model: NetworkModel, n_cores: int = 1, axis: str = "layer",
                 style: str = "homogeneous") -> PartitionSpec:
    """The same split for every layer."""
    return PartitionSpec(tuple(LayerSplit(n_cores, axis, style) for _ in model.layers))


def of_layer(mapping: Mapping, layer_id: int) -> list:
    """The layer's core assignments, in mapping order."""
    return [a for a in mapping.assignments if a.layer_id == layer_id]


def with_rate(model: NetworkModel, rate: float) -> NetworkModel:
    """Copy of the model with every layer's event rate replaced."""
    return replace(model, layers=tuple(replace(l, avg_event_rate=rate) for l in model.layers))


def pilotnet_like(rate: float = 0.002) -> NetworkModel:
    """The packaged pilotnet_synth.net, a 10-layer conv+dense chain shaped
    like the public PilotNet driving network (Bojarski et al. 2016), with
    every layer's event rate set to rate."""
    return with_rate(load_network(packaged_config("pilotnet_synth.net")), rate)


def reference_snapshot(report, every: float):
    """snapshot() as it was before the charge log became columns: the whole
    cost_log sorted by time (stably, so equal times keep charge order), then
    added into one running sum per core and link up to each sample instant.
    Takes a valid interval only."""
    duration = report.duration
    times = [i * every for i in range(int(duration // every + 1))]
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
