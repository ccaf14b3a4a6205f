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
