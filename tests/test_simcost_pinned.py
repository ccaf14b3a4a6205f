"""Bit-for-bit pins of the simulator's statistics.

The values below were recorded from the per-event simulator that preceded
the static simulation plan; any change to the replay that moves a float,
a dict order or a cost-log entry fails here. Scalars are compared by
repr, bulky statistics by the sha256 of their repr.
"""

import dataclasses
import hashlib

import pytest

from neuromap import optimize
from neuromap.cli import packaged_config
from neuromap.mesh import compress, place
from neuromap.partition import build_mapping, cluster_layers
from neuromap.simcost import (
    CongestionError,
    HardwareConfig,
    load_hw_config,
    simulate,
)
from neuromap.workload import Layer, NetworkModel, load_network, synth_trace
from helpers import uniform_spec

NPES_MENU = (1, 2, 4, 8, 16, 32, 64)
DESK_GENOMES = {
    "naive": tuple([1, 0] * 10 + [6]),
    "mid": (14, 2, 9, 1, 5, 0, 2, 0, 3, 3, 11, 3, 9, 2, 16, 2, 11, 2, 9, 3, 1),
    "wide": (14, 2, 1, 1, 14, 2, 1, 3, 12, 3, 3, 0, 14, 0, 9, 0, 5, 1, 7, 1, 0),
}
TOY_HW = HardwareConfig(npes_per_core=2, e_npe_op=1.0, e_ctrl_event=2.0,
                        e_hop_per_flit=0.5, e_inject=1.0, p_static_core=3.0,
                        t_npe_op=1.0, t_hop=1.0, t_inject=1.0)


def toy2_model():
    def conv(lid):
        return Layer(id=lid, kind="conv", channels=4, height=2, width=3,
                     weights=0, biases=0, is_snn=True, avg_event_rate=0.6)
    return NetworkModel(name="toy2", layers=(conv(0), conv(1)),
                        edges=((0, 1),), frame_rate_fps=0)


def desk_case(genome_name, mode):
    model = load_network(packaged_config("pilotnet_synth.net"))
    base_hw = load_hw_config(packaged_config("default_hw.prm"))
    trace = synth_trace(model, n_frames=30, fps=30.0, seed=7)
    if mode == "drain":
        trace = optimize.retime_trace(trace, 0.0)
    space = optimize.GenomeSpace(n_layers=len(model.layers), c_max=16,
                                 npes_menu=NPES_MENU)
    genome = DESK_GENOMES[genome_name]
    model = optimize.decode_model(genome, model, space)
    spec, hw, scheme, _ = optimize.decode(genome, model, base_hw, space)
    mapping = build_mapping(model, spec, m_max=hw.mem_per_core)
    n = mapping.n_cores_total
    return model, mapping, place(n, compress(n, scheme)), hw, trace


def toy_case(axis, fps, cluster=None):
    model = toy2_model()
    mapping = build_mapping(model, uniform_spec(model, 2, axis=axis))
    if cluster:
        mapping = cluster_layers(mapping, cluster)
    n = mapping.n_cores_total
    trace = synth_trace(model, 2 if fps == 0 else 4, fps=fps, seed=3)
    return model, mapping, place(n, compress(n, "strict-area")), TOY_HW, trace


CASES = {
    **{f"desk-{g}-{m}": (lambda g=g, m=m: desk_case(g, m))
       for g in DESK_GENOMES for m in ("fps30", "drain")},
    "toy2-channel-drain": lambda: toy_case("channel", 0),
    "toy2-width-fps": lambda: toy_case("width", 2.0),
    "toy2-clustered-drain": lambda: toy_case("channel", 0, cluster=[{0, 1}]),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def fingerprint(report) -> dict:
    return {
        "total_energy": repr(report.total_energy),
        "latency_end_to_end": repr(report.latency_end_to_end),
        "duration": repr(report.duration),
        "events_processed": report.events_processed,
        "static_energy": repr(report.static_energy),
        "congestion": _sha(list(report.congestion.items())),
        "end_signal": _sha(report.end_signal),
        "energy_per_core": _sha(list(report.energy_per_core.items())),
        "energy_interconnect": _sha(list(report.energy_interconnect.items())),
        "cost_log": _sha(report.cost_log),
    }


PINNED = {
    "desk-mid-drain": {"total_energy": "762893056.9199991",
                       "latency_end_to_end": "24453861.599999923",
                       "duration": "24453861.599999923",
                       "events_processed": 80123,
                       "static_energy": "469514142.7199985",
                       "congestion": "749bb05e65adc3147e5b7e7739cf991e0a195a63e70057e28e7d87f609d22384",
                       "end_signal": "c2fef89f8686d90e046140b59f4c2ba3b7077392c5c7d758283825c92662b290",
                       "energy_per_core": "aa402bfe53f741f691cd906e1d94d1ef2eff5174a9a2a859b3f76e1e943fd27c",
                       "energy_interconnect": "a1bedb687481f4c25fea564926a1090aedad8d7caefa9703755ab7b908d48476",
                       "cost_log": "d78e68d00045926ab712cdf45ee283f945c83649a17fac8dc6ba7e6943869680"},
    "desk-mid-fps30": {"total_energy": "577271550.3600003",
                       "latency_end_to_end": "14786074.800000003",
                       "duration": "14786074.800000003",
                       "events_processed": 80123,
                       "static_energy": "283892636.1600001",
                       "congestion": "0f8a002d66d01237a54a028d3eeae562c45e7d5384214630e913aea0a1c9f129",
                       "end_signal": "a84acaf5e67261a4a7cd8bda8688581e3428d0a4197436f8e6cd463e1f75a8d3",
                       "energy_per_core": "ee4a609aad1b353351bfc49913bed5380d58fef6283fc92d42fac95a83615edf",
                       "energy_interconnect": "56ae1e153ef392c785fb9b728f4429a732f011e9dda42b4c7bf080cf0e2bc9d1",
                       "cost_log": "54dab5db386f6ef49a37d13c2e486425143156630f733e9414d412bb7dd4d56c"},
    "desk-naive-drain": {"total_energy": "884503269.0",
                         "latency_end_to_end": "4615813.000000002",
                         "duration": "4615813.000000002",
                         "events_processed": 15555,
                         "static_energy": "590824064.0000002",
                         "congestion": "c674b17751cbb4e853b76763a6a16d41161c22e6dae0cffbeabbd17d0445d996",
                         "end_signal": "0c4f9ec42227b21aa86d3d28616d5e8bc1524ea86e88bebf1b5ece78824a7afe",
                         "energy_per_core": "53d45f13ad67a2d526a7f9582d0ed2d743241180f1a3d7c92a48354389f9e35b",
                         "energy_interconnect": "a9cb1316fb48ce37366e5203d96e3326e1962b57f2a16810794955f3940eb21f",
                         "cost_log": "2a62ea6e3e100c55bddc7b75f3a9f3aa7d67ad05f48fff88c40a4f0d9f7da328"},
    "desk-naive-fps30": {"total_energy": "642378110.5999999",
                         "latency_end_to_end": "2724210.2",
                         "duration": "2724210.2",
                         "events_processed": 15555,
                         "static_energy": "348698905.6",
                         "congestion": "e01a252f6dc2ea1ec8d37787553eee16358bbb7c85b468c65c55764353632a7a",
                         "end_signal": "65a733d01e1b99509f9340f5c416cf4fb67e6c10d710e8db0995dc42313fda1f",
                         "energy_per_core": "c56f4fdb545c2da081d9072796a615c9046399e61612fc56cacd5ab14e6e881e",
                         "energy_interconnect": "a9cb1316fb48ce37366e5203d96e3326e1962b57f2a16810794955f3940eb21f",
                         "cost_log": "c15b72756e6eebc1f8284e231e79d2facd2712de1201419033381273acae370c"},
    "desk-wide-drain": {"total_energy": "2909623277.600006",
                        "latency_end_to_end": "186866704.40000018",
                        "duration": "186866704.40000018",
                        "events_processed": 125098,
                        "static_energy": "2616133861.600003",
                        "congestion": "c3ce71b63e59df5afdc7c38b1e5eecf454b74f45a974639899f13cca64bc7173",
                        "end_signal": "3e6ab927daae279268edc2e0be4d14f965e720c3256f3c32bd6b05de9d8325bb",
                        "energy_per_core": "1635fdfea86c076fec23bc45f7bb70f8aa446616c2014017f13488dd6337bf00",
                        "energy_interconnect": "f9dd12dbe28e91c983ffc8330c9068cd2503b45ad8854089145d0730eec3be49",
                        "cost_log": "2a98fc4e3002e5066eb6864fc85fa9ca9e8a61af708bbeed9a2535aa5efea0ef"},
    "desk-wide-fps30": {"total_energy": "2717183584.0000043",
                        "latency_end_to_end": "173121012.0000001",
                        "duration": "173121012.0000001",
                        "events_processed": 125098,
                        "static_energy": "2423694168.0000014",
                        "congestion": "3a8bfb4225fb2eb6d630a4e6652ec8c624fc08fc8cba21cb8d5f75cc52a5a06e",
                        "end_signal": "3c276eedab095263718eae18aa90b8530b80131b93c4fb67468abb38a5d5fbb8",
                        "energy_per_core": "c64f7012eff5ed260d619077957a6c8b8ade268db9f57539c0f2739ebdae0047",
                        "energy_interconnect": "8872ad018deb4cf2aeb43b212c6a213eb6b37972bdddd60b26dcb5a297ddb61c",
                        "cost_log": "bafdf15c044bf1dd8a60e305cc20c91d05353d027d91affe44e9f05865a49979"},
    "toy2-channel-drain": {"total_energy": "3019.5",
                           "latency_end_to_end": "210.0",
                           "duration": "210.0",
                           "events_processed": 54,
                           "static_energy": "2520.0",
                           "congestion": "7a4acfab35062a17a5b14b2ac98d3942aa4a1745e337db250b5b8ec39e9f3abb",
                           "end_signal": "793be05de1db749e0ac2d775353a2a8ef6628ea3d077cf451c4d3dbd4738ab46",
                           "energy_per_core": "8d8ff088d46a86e0e0e41e0f410636bfc9231f6cbf36955b325f22fbb680cb9b",
                           "energy_interconnect": "ad309f8121f0eca542f69c7d476ef2c475b61053ebc211dc6fea265d4104ddfe",
                           "cost_log": "10da18f8153d3ef933e8d408d8546e924c4a2ff9f9e952cf14c7555e1760d006"},
    "toy2-clustered-drain": {"total_energy": "1444.5",
                             "latency_end_to_end": "162.0",
                             "duration": "162.0",
                             "events_processed": 54,
                             "static_energy": "972.0",
                             "congestion": "8069ecac0ea735c6c84124f52366704b1c428a558236f85e41e3dee731e8a2b3",
                             "end_signal": "ac3e1c6b81c2b7604acc8bb02b5da9002ca099190f1404aa1e2b472ef70e036f",
                             "energy_per_core": "1ec4db86995454cd8ed776f43fb3075ec68fd03c53a45640007f2a477e0ff77a",
                             "energy_interconnect": "6b6cd4df82fde26c7d178fc6d4faeccfcb5b3f2ee08d3420381786d1b8f87e04",
                             "cost_log": "d1dbf286ca67d6bb54db8fd9a11f3b74678efe9e2b2a6ec0f4f764fe7199dbfd"},
    "toy2-width-fps": {"total_energy": "6536.5",
                       "latency_end_to_end": "463.0",
                       "duration": "463.0",
                       "events_processed": 106,
                       "static_energy": "5556.0",
                       "congestion": "4f757ea59e0249cb2299c4e3b82ef356e46b7a70d2c2691ddf32afe3265ad970",
                       "end_signal": "dbabe1af7d9425acbfbf31a07651ead1d4ccdaddb6e789dc465396cefcc13058",
                       "energy_per_core": "fc3d2588916e49d65e538c421626df41820e42c94bfb397ede8ad2cf26434548",
                       "energy_interconnect": "a9401552fcfd5e9d5dd7218320ee5ec2322248ecc2d0d12a8ba8197013f11073",
                       "cost_log": "5f50fedf7a2721c55ddde7100f32f0c9b5715b8aa8ef9da492be5f48cc2f1083"},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulation_statistics_are_pinned(case):
    report = simulate(*CASES[case]())
    assert fingerprint(report) == PINNED[case]


# (case, queue_depth) -> the port that first overflows
PINNED_CONGESTION = {
    ("desk-naive-fps30", 29): "injection port (0, 0) exceeded depth 29",
    ("desk-mid-fps30", 3): "link (0, 3)->(1, 3) exceeded depth 3",
    ("desk-mid-fps30", 20): "link (1, 0)->(2, 0) exceeded depth 20",
    ("toy2-clustered-drain", 1): "core 0 inbox exceeded depth 1",
}


@pytest.mark.parametrize("case, depth", sorted(PINNED_CONGESTION))
def test_first_congestion_overflow_is_pinned(case, depth):
    model, mapping, placement, hw, trace = CASES[case]()
    hw = dataclasses.replace(hw, queue_depth=depth)
    with pytest.raises(CongestionError) as exc:
        simulate(model, mapping, placement, hw, trace)
    assert str(exc.value) == PINNED_CONGESTION[case, depth]
