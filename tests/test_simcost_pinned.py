"""Bit-for-bit pins of the simulator's statistics.

The values below were recorded from the per-event simulator that preceded
the static simulation plan; any change to the replay that moves a float,
a dict order or a cost-log entry fails here. Scalars are compared by
repr, bulky statistics by the sha256 of their repr. The files that
write_run_files writes for each case are pinned by the sha256 of their
bytes, at the default snapshot interval and at one explicit interval.
"""

import dataclasses
import hashlib
import os

import pytest

from neuromap import optimize
from neuromap.cli import packaged_config
from neuromap.mesh import compress, place
from neuromap.partition import build_mapping
from neuromap.simcost import (
    CongestionError,
    HardwareConfig,
    load_hw_config,
    simulate,
    write_run_files,
)
from neuromap.workload import Layer, NetworkModel, load_network, synth_trace
from helpers import colocate, uniform_spec

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
        mapping = colocate(mapping, cluster)
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
        "cost_log": _sha(tuple(report.cost_log)),
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


RUN_FILES = ("summary.txt", "snapshots_cores.csv", "snapshots_interconnects.csv",
             "output_snapshot.csv", "gui_setting.csv")


def run_file_hashes(report, outdir, case, every) -> dict:
    """sha256 of each file write_run_files writes for the report."""
    write_run_files(report, outdir, settings={"case": case, "every": repr(every)},
                    snapshot_every=every)
    hashes = {}
    for name in RUN_FILES:
        with open(os.path.join(outdir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def pinned_intervals(report) -> dict:
    """The default interval (duration / 50) and an explicit one that puts
    samples between the default's."""
    return {"default": None, "explicit": report.duration / 7}


# recorded from write_run_files before snapshot() grouped the log by port
PINNED_RUN_FILES = {
    ("desk-mid-drain", "default"): {
        "summary.txt": "662649188253961c874d7f6e2df64c9c8c50d7aa70d213c17bbd7ad64f0ef5ba",
        "snapshots_cores.csv": "3e4ee984c76743c66954961f323bd739d9c3c944e0c3c1195a0ad35f3d0b1e0a",
        "snapshots_interconnects.csv": "f2d0b47e3014431dc544b6c99d4b2eb673211f5e16d6b747b2ade0e6a25e2493",
        "output_snapshot.csv": "b0d60fd0b42e296b96968cd878507f3aee07c908594c94422b4c2bb8f663b7e8",
        "gui_setting.csv": "c5f4c39c75f5458fbc60c0e1884258fc04bcd70b62239e182610ce17a34f4e7c",
    },
    ("desk-mid-drain", "explicit"): {
        "summary.txt": "662649188253961c874d7f6e2df64c9c8c50d7aa70d213c17bbd7ad64f0ef5ba",
        "snapshots_cores.csv": "9ba05502fb0aff1c7e316bd85e6a2843eec919fb7c506dc61e661ca9b21301d6",
        "snapshots_interconnects.csv": "ed89896ae3f58aef2325550015025487df2f81c2c15bb9c15407bce30dd775e1",
        "output_snapshot.csv": "b0d60fd0b42e296b96968cd878507f3aee07c908594c94422b4c2bb8f663b7e8",
        "gui_setting.csv": "6df940be73a193153f574db51e53fa999f80024f48a8a2e5bdfb5903a2f71ec7",
    },
    ("desk-mid-fps30", "default"): {
        "summary.txt": "3fec119b9ec08d88df0f258bf1ab8abbb47eaea26c304710544689afb0ab827a",
        "snapshots_cores.csv": "f9a4ed13729c81dd2f6d73dfcbd428976ac086ec1ded56044ec3f2c957e05cb6",
        "snapshots_interconnects.csv": "884779098fe254d83e35b2b0c291a3b8b6e2a5a0b10f3532566203358fe14efa",
        "output_snapshot.csv": "7b60ec5a82cffdccfc83709dc50fffcf76ae2ae919712d0b56d31d78e0c007e6",
        "gui_setting.csv": "846c9769169387f8aec3b80eea405fdfd25a3723513b008053fc2d1526841f19",
    },
    ("desk-mid-fps30", "explicit"): {
        "summary.txt": "3fec119b9ec08d88df0f258bf1ab8abbb47eaea26c304710544689afb0ab827a",
        "snapshots_cores.csv": "4b8cb46e4af7fe81aff992d2fc58dd5cd30ea6957bd59f333aad6dec9563023c",
        "snapshots_interconnects.csv": "1acaba1fed18fd2d504798394588de247ec559d13fb787f50cae8da23da6f17e",
        "output_snapshot.csv": "7b60ec5a82cffdccfc83709dc50fffcf76ae2ae919712d0b56d31d78e0c007e6",
        "gui_setting.csv": "157c1bb2b5711429583244aba8acaa12d08d6c7ff3697b0162687f1310f12bcb",
    },
    ("desk-naive-drain", "default"): {
        "summary.txt": "66c18195386741fbd41e630bc74ae61e4d016061614bb3d1ee25fc8de2263468",
        "snapshots_cores.csv": "bd8edf65f0ba53a84d61cc71c180145e89cb7c6a5f2cd2066177f3e117c034b2",
        "snapshots_interconnects.csv": "7e88a455bdeccb007f31d1891f45459b71606ec5377a46df28588d0130f0ca90",
        "output_snapshot.csv": "57aafe508a6b2e7f2694e872e7786f91a855ecb4f6f61321d67d3e2ad47b1345",
        "gui_setting.csv": "77b3c895f935acf211997ba70b3cbede6afe51cdbc217edbd7d0dc448adbf24c",
    },
    ("desk-naive-drain", "explicit"): {
        "summary.txt": "66c18195386741fbd41e630bc74ae61e4d016061614bb3d1ee25fc8de2263468",
        "snapshots_cores.csv": "01e524d96e1ffb994ec465f89921287d9fb602ed5fc32238f90e7157eb033355",
        "snapshots_interconnects.csv": "4cac23a444839062a170438ff7ea3bc5fa257322d452aafc1375c7e8479cdceb",
        "output_snapshot.csv": "57aafe508a6b2e7f2694e872e7786f91a855ecb4f6f61321d67d3e2ad47b1345",
        "gui_setting.csv": "4cceb645c5c62fb6f1c46dfacb4166db458e8691fadd87a32759f6c99287d7c9",
    },
    ("desk-naive-fps30", "default"): {
        "summary.txt": "a884d48ddc7353ce0f78cc8ae472a6f0dec1a586c960534a87a642c54a1cbb0e",
        "snapshots_cores.csv": "82941aca15f386a17959c7e824fa327091b8bfa046ac0f651e2376ce1b45ef94",
        "snapshots_interconnects.csv": "9aebf448650054459a3d9d9936a495edcdfe059d3993eaf5401d7bd5079f6c18",
        "output_snapshot.csv": "f76c305f2540a18c684f3a80a9a586bc5cb16fb7e07e400d75fd48605f5e97af",
        "gui_setting.csv": "7f34995a35e19bb6a5ee9e08dfc330570a4d49d506f3fc411ef4fa40c01ceeed",
    },
    ("desk-naive-fps30", "explicit"): {
        "summary.txt": "a884d48ddc7353ce0f78cc8ae472a6f0dec1a586c960534a87a642c54a1cbb0e",
        "snapshots_cores.csv": "0a8ec2d605a5ef4d8a8ed818dbb446b295c61719e159f14d5e9e2cf410c5e1d1",
        "snapshots_interconnects.csv": "6338d2221a095f035620c028de6b86ff346c052225b0bcb72a75c99fcb277938",
        "output_snapshot.csv": "f76c305f2540a18c684f3a80a9a586bc5cb16fb7e07e400d75fd48605f5e97af",
        "gui_setting.csv": "fa7331e1e0335d6c70afdfa175c8cfe0d8b5d548ad9e135808d8243eb09c6ad3",
    },
    ("desk-wide-drain", "default"): {
        "summary.txt": "d336d9356bdf1b2a11a697ba5251626916f58244985229259bea7c732320e1d1",
        "snapshots_cores.csv": "cd378cbcc62c3bf15d0ae1275d497ca90d379b48cb12813007942a0ab02a12f1",
        "snapshots_interconnects.csv": "bbd98ae58a487fe14a138c0cc0bd965d670f476a1c66c43837337dc93af22aef",
        "output_snapshot.csv": "2533d43d56a709041b4faaa61e0cc497d3ae1c04f68a14442a8de4500778f8e8",
        "gui_setting.csv": "642073b420287e7524656c83c96f03fe7b041ed53d25f6b7e4dd08fc87b875df",
    },
    ("desk-wide-drain", "explicit"): {
        "summary.txt": "d336d9356bdf1b2a11a697ba5251626916f58244985229259bea7c732320e1d1",
        "snapshots_cores.csv": "28c6b188c999309487f7c54e2be5a53e32a2d3bbe03ec051832b13fcb7fee18c",
        "snapshots_interconnects.csv": "494c2b8a2556d71c4f111c9b70d09f9f7402b55e57fa953e2ffd363fb87e352b",
        "output_snapshot.csv": "2533d43d56a709041b4faaa61e0cc497d3ae1c04f68a14442a8de4500778f8e8",
        "gui_setting.csv": "12482d5421e9e0654d4a6bbfccf52d6d3c251d38193f935ba239f49bbec2bac2",
    },
    ("desk-wide-fps30", "default"): {
        "summary.txt": "1278a09ba6aa9665dfd166f121de9218fb944867aab6487bde54d462180732c4",
        "snapshots_cores.csv": "90f4bd5403452c3504f4bdd2436293f0df13538e66bb0533bfbddb9cf74b3d72",
        "snapshots_interconnects.csv": "2a84e9c0e364adfd4c5aaa40e6bda9e5c3a5e2460d5db039212260b576d23a5b",
        "output_snapshot.csv": "3e95fa5daadecfdc7f4887c46a6a64cdb4617f9633cf5da25c5a4ace205aace5",
        "gui_setting.csv": "e21542915d0db24929a28426fb368943b98303d0f3bdf36c790785dc0242ef89",
    },
    ("desk-wide-fps30", "explicit"): {
        "summary.txt": "1278a09ba6aa9665dfd166f121de9218fb944867aab6487bde54d462180732c4",
        "snapshots_cores.csv": "cdf7e67bb215a20d04e8fec80da6856d8bd0167c89e4765346ac4cf9f78b6a36",
        "snapshots_interconnects.csv": "d8f3f6a968ed4b2ec30eea437e0dda05fd607242a0d5c67caa65a3682041b086",
        "output_snapshot.csv": "3e95fa5daadecfdc7f4887c46a6a64cdb4617f9633cf5da25c5a4ace205aace5",
        "gui_setting.csv": "7a7d1eaf6fdb3f36ddd99ff6976c99d2e1a6cc4da7f1225bd9bea2088a54b7c6",
    },
    ("toy2-channel-drain", "default"): {
        "summary.txt": "9d8b7174080fb11f80f1c601bc656febd509261ba633fa86d9af06cc846db26f",
        "snapshots_cores.csv": "8ed6ae9c25d930003dce2fd010228ec690b5eb4daf14b214c92143fb576fb9de",
        "snapshots_interconnects.csv": "d8bf38a9a7e75762b15d881e199ffddac13845bc1b1ae915ea9bf6b7a3136bc0",
        "output_snapshot.csv": "7357f2f97165d69b9c5ac862c87af492b8bdf588c6cfb6994ddd99d698ec80f0",
        "gui_setting.csv": "a781666dae1076d97553bcb4c8f19ef54fade8acc6e6414382e35014ed8ce30c",
    },
    ("toy2-channel-drain", "explicit"): {
        "summary.txt": "9d8b7174080fb11f80f1c601bc656febd509261ba633fa86d9af06cc846db26f",
        "snapshots_cores.csv": "5d6eb86cbb51448732fdb8529b97a765b41e7a104535275248878c8949b0b9cf",
        "snapshots_interconnects.csv": "dcb63d5ac1978e9262ed65464a5969e50f88c6d2b24f80d3ba3103a652a93d07",
        "output_snapshot.csv": "7357f2f97165d69b9c5ac862c87af492b8bdf588c6cfb6994ddd99d698ec80f0",
        "gui_setting.csv": "f13b924c6b2c5f294bb667a5ce591ebd88c13280e63730ccf586b9bf2c85c340",
    },
    ("toy2-clustered-drain", "default"): {
        "summary.txt": "3e990b8b16eda0908e89ee6e9d93ef1272718647001197429053d6c7e55c1c4d",
        "snapshots_cores.csv": "49e8969cb4594e028847ae293f0a268b4257b37281adab6ed996e60160001725",
        "snapshots_interconnects.csv": "90d112e04bb535cfa8a0bc9c40902631474755fc37bfc39c8772738fc1cce68e",
        "output_snapshot.csv": "3a18721df6331cafa2a3c6f59b4fce857c197bf42d03ef31170727790ccc2708",
        "gui_setting.csv": "09b71e486f238e44d8b83de8d801a804efdbc71845d149c205046efd4797e8a2",
    },
    ("toy2-clustered-drain", "explicit"): {
        "summary.txt": "3e990b8b16eda0908e89ee6e9d93ef1272718647001197429053d6c7e55c1c4d",
        "snapshots_cores.csv": "3690e21848edab819d9ec560c5b832ad4d3278584bfcd23f084d0cfd025a08ae",
        "snapshots_interconnects.csv": "7593a6832dd00ca9fa30e96f83efcb23761ea98551b9abff8b20a409c61029d7",
        "output_snapshot.csv": "3a18721df6331cafa2a3c6f59b4fce857c197bf42d03ef31170727790ccc2708",
        "gui_setting.csv": "f5802125df179149f51dcbf7c959c6896640d210c8f90b48a02f9f4da2f8fe4e",
    },
    ("toy2-width-fps", "default"): {
        "summary.txt": "13baf59cd8fa254a03b01dacad017e3f6f833eb4dd19dbaaa7728acc4d15ecab",
        "snapshots_cores.csv": "673c3da8b471ed9ff9ce4c6fd66ad28abf2562992e51760333d4e3abebaf77f7",
        "snapshots_interconnects.csv": "36a6d37684786615610517e19fbd27f418fb9f8284fc0e04f6c5ea0252d609f7",
        "output_snapshot.csv": "9c92900a6a8fac120be581aa164f84f76b95f6c1e7afb0e919242387c067c507",
        "gui_setting.csv": "039e50b675b9213df36c437a0bcbd02906e3542d2c322da08a884ef1ee2f410b",
    },
    ("toy2-width-fps", "explicit"): {
        "summary.txt": "13baf59cd8fa254a03b01dacad017e3f6f833eb4dd19dbaaa7728acc4d15ecab",
        "snapshots_cores.csv": "7140aec8858cb3ac27489cd8e615a391f7792e55a8ec289a47cdeca8dbd6fcc3",
        "snapshots_interconnects.csv": "25af094e2e07773e85aaf03a0412971d64a4a196cd6a3f0ee55696dd6620c58f",
        "output_snapshot.csv": "9c92900a6a8fac120be581aa164f84f76b95f6c1e7afb0e919242387c067c507",
        "gui_setting.csv": "4f4648df4cdb23c915529e9f2cadb6fb873dca7c78d8cee24a066cd54164e7ba",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_files_are_pinned(case, tmp_path):
    report = simulate(*CASES[case]())
    for name, every in pinned_intervals(report).items():
        got = run_file_hashes(report, tmp_path / name, case, every)
        assert got == PINNED_RUN_FILES[case, name], name
