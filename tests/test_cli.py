import csv
import importlib
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from neuromap import fidelity, optimize, simcost, workload
from neuromap.analytics import EVAL_FIXED_COLUMNS
from neuromap.cli import build_parser, main, packaged_config
from neuromap.mesh import compress, place
from neuromap.optimize import load_algo_params
from neuromap.partition import (
    LayerSplit,
    PartitionSpec,
    build_mapping,
    save_mapping,
)
from neuromap.simcost import load_hw_config, simulate
from neuromap.workload import load_network, synth_trace

TOY_NET = """[network]
name = toychain
fps = 0

[layer]
kind = conv
channels = 4
height = 2
width = 3
weights = 0
biases = 0
rate = 0.8
snn = true

[layer]
kind = conv
channels = 4
height = 2
width = 3
weights = 96
biases = 4
rate = 0.5
snn = true

[layer]
kind = dense
neurons = 5
weights = 120
biases = 5
rate = 0.5
snn = true
"""


@pytest.fixture()
def net_path(tmp_path):
    p = tmp_path / "toy.net"
    p.write_text(TOY_NET)
    return p


def run_cli(args, capsys):
    rc = main([str(a) for a in args])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- simulate ---

def test_simulate_toy_chain(net_path, tmp_path, capsys):
    out = tmp_path / "simrun"
    rc, stdout, _ = run_cli(["simulate", "--workload", net_path,
                             "--frames", 3, "--out", out], capsys)
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"summary.txt", "output_snapshot.csv", "snapshots_cores.csv",
            "snapshots_interconnects.csv", "gui_setting.csv"} <= names
    # printed totals match a direct run of the same pipeline
    model = load_network(net_path)
    hw = load_hw_config(packaged_config("default_hw.prm"))
    trace = synth_trace(model, n_frames=3, fps=0.0, seed=0)
    spec = PartitionSpec(tuple(LayerSplit(n_cores=1, axis="layer")
                               for _ in model.layers))
    mapping = build_mapping(model, spec, m_max=hw.mem_per_core)
    placement = place(3, compress(3, "strict-area"))
    report = simulate(model, mapping, placement, hw, trace)
    assert f"total_energy = {report.total_energy!r}" in stdout
    assert f"latency = {report.latency_end_to_end!r}" in stdout
    assert "cores = 3" in stdout


def test_simulate_settings_keep_a_workload_path_with_a_comma(tmp_path, capsys):
    workload_path = tmp_path / "a,b" / "net.net"
    workload_path.parent.mkdir()
    workload_path.write_text(TOY_NET)
    out = tmp_path / "simrun"
    rc, _, _ = run_cli(["simulate", "--workload", workload_path, "--frames", 2,
                        "--out", out], capsys)
    assert rc == 0
    with open(out / "gui_setting.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 2 for row in rows)
    assert dict(rows[1:])["workload"] == str(workload_path)


def test_simulate_from_mapping_file(net_path, tmp_path, capsys):
    model = load_network(net_path)
    hw = load_hw_config(packaged_config("default_hw.prm"))
    spec = PartitionSpec((LayerSplit(2, "channel"), LayerSplit(1, "layer"),
                          LayerSplit(1, "layer")))
    mapping = build_mapping(model, spec, m_max=hw.mem_per_core)
    map_path = tmp_path / "map.csv"
    save_mapping(mapping, map_path)
    rc, stdout, _ = run_cli(["simulate", "--workload", net_path,
                             "--mapping", map_path, "--frames", 2,
                             "--out", tmp_path / "m"], capsys)
    assert rc == 0
    assert "cores = 4" in stdout


def test_simulate_infeasible_names_core_and_budget(net_path, tmp_path, capsys):
    hw_path = tmp_path / "tiny.prm"
    hw_path.write_text("[hardware]\nmem_per_core = 2000\n")
    rc, _, stderr = run_cli(["simulate", "--workload", net_path,
                             "--hw", hw_path, "--frames", 2,
                             "--out", tmp_path / "x"], capsys)
    assert rc == 1
    assert "infeasible mapping" in stderr
    assert "core 0" in stderr
    assert "M_pc" in stderr and "M_max = 2000" in stderr


def _with_fields(row, pos, *values):
    """row with the fields from position pos on replaced by values."""
    f = row.split(",")
    f[pos:pos + len(values)] = [str(v) for v in values]
    return ",".join(f)


@pytest.mark.parametrize("edit, named", [
    (lambda rows: rows[:-1], "layers [2] have no core"),
    (lambda rows: rows[:-1] + [rows[-1].replace(",2,", ",9,", 1)],
     "unknown layers [9]"),
    (lambda rows: rows[:-1] + [_with_fields(rows[-1], 3, 1)],
     "layer 2: layer ranges [(1, 5)] do not tile [0, 5) exactly"),
    (lambda rows: rows + ["0,0,layer,0,5"], "map.csv:5: expected 10 fields"),
    (lambda rows: rows[:-1] + [_with_fields(rows[-1], 0, 32)],
     "core ids must run 0..2, found 32 in place of 2"),
    (lambda rows: rows[:-1] + [_with_fields(rows[-1], 5, 1, 0, 0, 0, 0)],
     "layer 2 core 2: counts (1, 0, 0, 0) differ from (5, 120, 5, 5)"),
    (lambda rows: rows[:-1] + [_with_fields(rows[-1], 5, "x")],
     "map.csv:4: N_npc = 'x' is not an integer"),
    (lambda rows: [_with_fields(r, 9, 0) for r in rows],
     "layer 0 core 0: M_pc_bits 0 differs from 3072 for its counts"),
    # an inflated M_pc_bits is the mismatch, not a budget overrun
    (lambda rows: [_with_fields(rows[0], 9, 10**12)] + rows[1:],
     "layer 0 core 0: M_pc_bits 1000000000000 differs from 3072 for its counts"),
    (lambda rows: [], "map.csv: no partition rows"),
], ids=["dropped-layer", "unknown-layer", "gap-in-layer", "short-row",
        "core-id-hole", "wrong-counts", "non-integer-field", "zero-m-pc",
        "inflated-m-pc", "header-only"])
def test_simulate_mapping_not_matching_model_is_domain_error(net_path, tmp_path,
                                                             edit, named):
    model = load_network(net_path)
    spec = PartitionSpec(tuple(LayerSplit(1, "layer") for _ in model.layers))
    map_path = tmp_path / "map.csv"
    save_mapping(build_mapping(model, spec), map_path)
    header, *rows = map_path.read_text().splitlines()
    map_path.write_text("\n".join([header] + edit(rows)) + "\n")
    _assert_domain_error(["simulate", "--workload", net_path, "--mapping",
                          map_path, "--frames", 2, "--out", tmp_path / "m"],
                         named)


def _assert_domain_error(args, named):
    """`python -m neuromap.cli <args>` exits 1 with a message containing
    named and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "neuromap.cli",
                           *(str(a) for a in args)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


@pytest.mark.parametrize("key, value", [
    ("t_hop", "nan"), ("e_inject", "nan"), ("t_hop", "inf")])
def test_non_finite_hardware_value_is_domain_error(net_path, tmp_path, key, value):
    path = tmp_path / "hw.prm"
    path.write_text(f"[hardware]\n{key} = {value}\n")
    _assert_domain_error(["simulate", "--workload", net_path, "--hw", path,
                          "--frames", 2, "--out", tmp_path / "m"],
                         f"{key} must be finite and >= 0, got {value}")


def test_integer_hardware_value_past_int64_is_domain_error(net_path, tmp_path, capsys):
    path = tmp_path / "hw.prm"
    path.write_text("[hardware]\nflit_bits = 99999999999999999999\n")
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--hw", path,
                             "--frames", 2, "--out", tmp_path / "m"], capsys)
    assert rc == 1
    assert stderr == "error: flit_bits must be < 2**63, got 99999999999999999999\n"


@pytest.mark.parametrize("body, named", [
    ("flit_bits = 0", "flit_bits must be >= 1"),
    ("t_hop = 2.0\nclock_period = 1e308",
     "t_hop * clock_period must be finite, got 2.0 * 1e+308"),
], ids=["zero-flit", "clock-overflowing-a-time-constant"])
def test_hardware_value_no_simulation_can_use_is_domain_error(net_path, tmp_path, capsys,
                                                              body, named):
    path = tmp_path / "hw.prm"
    path.write_text(f"[hardware]\n{body}\n")
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--hw", path,
                             "--frames", 2, "--out", tmp_path / "m"], capsys)
    assert (rc, stderr) == (1, f"error: {named}\n")
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("key, named", [("e_inject", "total_energy is inf"),
                                        ("t_hop", "duration is inf")])
def test_non_finite_result_is_domain_error(net_path, tmp_path, capsys, key, named):
    path = tmp_path / "hw.prm"
    path.write_text(f"[hardware]\n{key} = 1e308\n")
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--hw", path,
                             "--frames", 2, "--out", tmp_path / "m"], capsys)
    assert rc == 1
    assert stderr == f"error: simulated {named}, not a finite number\n"
    assert not (tmp_path / "m").exists()


def test_over_budget_is_one_message_on_every_path(net_path, tmp_path, capsys):
    model = load_network(net_path)
    spec = PartitionSpec(tuple(LayerSplit(1, "layer") for _ in model.layers))
    cap = 2000
    mapping = build_mapping(model, spec, m_max=cap)
    # layers 0 and 1 need 3072 and 3872 bits, layer 2 fits
    text = ("infeasible mapping: core 0 needs M_pc = 3072 bits, exceeding "
            "M_max = 2000 bits (2 core(s) over budget)")
    placement = place(mapping.n_cores_total, compress(mapping.n_cores_total,
                                                      "strict-area"))
    with pytest.raises(simcost.SimError) as simulated:
        simulate(model, mapping, placement, simcost.HardwareConfig(mem_per_core=cap),
                 synth_trace(model, n_frames=2, fps=0, seed=0))
    assert str(simulated.value) == text
    hw_path = tmp_path / "hw.prm"
    hw_path.write_text(f"[hardware]\nmem_per_core = {cap}\n")
    map_path = tmp_path / "map.csv"
    save_mapping(mapping, map_path)
    for extra in ([], ["--mapping", map_path]):
        rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--hw", hw_path,
                                 "--frames", 2, *extra, "--out", tmp_path / "m"],
                                capsys)
        assert (rc, stderr) == (1, f"error: {text}\n")


def test_snapshot_interval_past_the_grid_bound_is_domain_error(net_path, tmp_path):
    # 1e-310 asks for more samples than a float holds, so a missing bound
    # fails on the count instead of building the grid
    _assert_domain_error(["simulate", "--workload", net_path, "--frames", 2,
                          "--snapshot-every", "1e-310", "--out", tmp_path / "m"],
                         "snapshot interval 1e-310 over duration ")
    assert not (tmp_path / "m").exists()


def test_snapshot_interval_bound_in_process(net_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simcost, "MAX_SNAPSHOT_SAMPLES", 10)
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--frames", 2,
                             "--snapshot-every", "1.0", "--out", tmp_path / "m"],
                            capsys)
    assert rc == 1
    assert "snapshot interval 1.0 over duration " in stderr
    assert "samples, more than 10\n" in stderr
    assert not (tmp_path / "m").exists()


TRACE_HEAD = "# fps=0.0 frames=1\ntimestamp,neuron_id,payload_bits\n"


@pytest.mark.parametrize("command, text, named", [
    ("simulate", TRACE_HEAD + "0.0,1\n", "in.csv:3: expected 3 fields, got 2"),
    ("simulate", TRACE_HEAD + "0.0,x,64\n",
     "in.csv:3: neuron_id = 'x' is not an integer"),
    ("simulate", TRACE_HEAD + "0.0,1,99999999999999999999\n",
     "in.csv: trace payload_bits must be in [0, 2**63), "
     "got 99999999999999999999"),
    ("simulate", TRACE_HEAD + "0.0,1,-64\n",
     "in.csv: trace payload_bits must be in [0, 2**63), got -64"),
    ("simulate", "# fps=abc frames=1\n0.0,1,64\n",
     "in.csv:1: fps = 'abc' is not a number"),
    ("compare", "timestamp,value\n0.0,0.5\n1.0\n",
     "in.csv:3: expected 2 fields, got 1"),
], ids=["trace-short-row", "trace-non-integer-id", "payload-past-int64",
        "negative-payload", "trace-bad-grid", "signal-short-row"])
def test_malformed_trace_or_signal_is_domain_error(net_path, tmp_path,
                                                   command, text, named):
    path = tmp_path / "in.csv"
    path.write_text(text)
    if command == "simulate":
        args = ["simulate", "--workload", net_path, "--trace", path,
                "--out", tmp_path / "m"]
    else:
        args = ["compare", "--a", path, "--b", path]
    _assert_domain_error(args, named)


@pytest.mark.parametrize("edge", ["0>x", "a>1", "0>"])
def test_malformed_net_edge_is_domain_error(tmp_path, edge):
    path = tmp_path / "bad.net"
    path.write_text(TOY_NET.replace("fps = 0\n", f"fps = 0\nedges = 0>1, {edge}\n"))
    _assert_domain_error(["simulate", "--workload", path, "--frames", 1,
                          "--out", tmp_path / "m"],
                         f"bad.net: edge '{edge}' must look like 'src>dst'")


@pytest.mark.parametrize("name, text, line", [
    ("dup.net", TOY_NET.replace("fps = 0\n", "fps = 0\nfps = 1\n"), 4),
    ("dup.prm", "[hardware]\nt_hop = 1.0\nt_hop = 2.0\n", 3),
], ids=["net", "hardware"])
def test_repeated_key_in_a_block_is_domain_error(net_path, tmp_path, capsys,
                                                 name, text, line):
    path = tmp_path / name
    path.write_text(text)
    workload_path, hw = (path, []) if name.endswith(".net") else (net_path, ["--hw", path])
    rc, _, stderr = run_cli(["simulate", "--workload", workload_path, *hw,
                             "--frames", 2, "--out", tmp_path / "m"], capsys)
    key = "fps" if name.endswith(".net") else "t_hop"
    assert (rc, stderr) == (1, f"error: {path}:{line}: duplicate key {key!r}\n")


def test_unknown_layer_kind_is_named_before_its_keys(tmp_path, capsys):
    path = tmp_path / "pool.net"
    # a dense-shaped block, so the first key a pool kind misses is channels
    path.write_text(TOY_NET.replace("kind = dense", "kind = pool"))
    rc, _, stderr = run_cli(["simulate", "--workload", path, "--frames", 2,
                             "--out", tmp_path / "m"], capsys)
    assert (rc, stderr) == (1, "error: layer 2: kind must be dense or conv, "
                               "got 'pool'\n")


def test_layer_neurons_bound_is_domain_error(tmp_path, capsys):
    # a trace file keeps synthesis out of it; flat neuron ids are int32
    path = tmp_path / "big.net"
    path.write_text(TOY_NET.replace("neurons = 5", f"neurons = {2**31}"))
    trace = tmp_path / "t.csv"
    trace.write_text("# fps=0.0 frames=1\ntimestamp,neuron_id,payload_bits\n0.0,1,16\n")
    rc, _, stderr = run_cli(["simulate", "--workload", path, "--trace", trace,
                             "--out", tmp_path / "m"], capsys)
    assert (rc, stderr) == (1, f"error: layer 2: neurons must be < 2**31, "
                               f"got {2**31}\n")


def test_trace_frame_grid_bound_in_process(net_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(workload, "MAX_SNAPSHOT_SAMPLES", 10)
    path = tmp_path / "t.csv"
    path.write_text("# fps=0.0 frames=11\ntimestamp,neuron_id,payload_bits\n")
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--trace", path,
                             "--out", tmp_path / "m"], capsys)
    assert (rc, stderr) == (1, f"error: {path}: trace has 11 frames, more than 10\n")
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--frames", 11,
                             "--out", tmp_path / "m"], capsys)
    assert (rc, stderr) == (1, "error: n_frames must be <= 10, got 11\n")
    assert not (tmp_path / "m").exists()


def test_out_of_memory_is_an_error_not_a_traceback(net_path, tmp_path, capsys,
                                                  monkeypatch):
    class Exhausted:
        """A generator whose every draw fails to allocate, as numpy's does
        for a layer too large for the host."""

        def random(self, n):
            raise MemoryError(f"Unable to allocate {8 * n} bytes")
    monkeypatch.setattr(workload.np.random, "default_rng", lambda seed: Exhausted())
    rc, stdout, stderr = run_cli(["simulate", "--workload", net_path,
                                  "--frames", 1, "--out", tmp_path / "m"], capsys)
    assert (rc, stdout, stderr) == (1, "", "error: out of memory: Unable to "
                                           "allocate 192 bytes\n")
    assert not (tmp_path / "m").exists()


def test_infinite_trace_fps_is_domain_error(net_path, tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("# fps=inf frames=2\ntimestamp,neuron_id,payload_bits\n")
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--trace", path,
                             "--out", tmp_path / "m"], capsys)
    assert (rc, stderr) == (1, f"error: {path}: trace fps must be >= 0 and "
                               f"finite, got inf\n")


def test_negative_synthesized_fps_is_the_trace_error(net_path, tmp_path, capsys):
    rc, _, stderr = run_cli(["simulate", "--workload", net_path, "--fps", -1,
                             "--frames", 2, "--out", tmp_path / "m"], capsys)
    assert (rc, stderr) == (1, "error: trace fps must be >= 0 and finite, "
                               "got -1.0\n")
    assert not (tmp_path / "m").exists()


def test_simulate_missing_workload(tmp_path, capsys):
    rc, _, stderr = run_cli(["simulate", "--workload", tmp_path / "no.net",
                             "--out", tmp_path / "y"], capsys)
    assert rc == 1
    assert "error:" in stderr


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_negative_seed_is_domain_error(net_path, tmp_path, capsys, command):
    args = [command, "--workload", net_path, "--frames", 2, "--seed", -5,
            "--out", tmp_path / "s"]
    if command == "optimize":
        args += ["--algo", "ga", "--population", 4, "--generations", 1]
    rc, _, stderr = run_cli(args, capsys)
    assert rc == 1
    assert stderr == "error: --seed must be >= 0, got -5\n"
    assert not (tmp_path / "s").exists()


def test_unknown_flag_is_hard_error(net_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--workload", str(net_path), "--turbo"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [("simulate", "--cores-per-layer"),
                                           ("optimize", "--npes-menu")])
def test_non_integer_list_flag_names_the_flag(net_path, tmp_path, capsys,
                                             command, flag):
    args = [command, "--workload", net_path, "--frames", 2, flag, "1,a,2",
            "--out", tmp_path / "s"]
    if command == "optimize":
        args += ["--algo", "ga", "--population", 2, "--generations", 1]
    rc, _, stderr = run_cli(args, capsys)
    assert (rc, stderr) == (1, f"error: command line: {flag} = 'a' is not an integer\n")


def test_per_layer_flag_validation(net_path, tmp_path, capsys):
    rc, _, stderr = run_cli(["simulate", "--workload", net_path,
                             "--cores-per-layer", "1,2", "--frames", 2,
                             "--out", tmp_path / "z"], capsys)
    assert rc == 1 and "--cores-per-layer" in stderr
    rc, _, stderr = run_cli(["simulate", "--workload", net_path,
                             "--axis", "diagonal", "--frames", 2,
                             "--out", tmp_path / "z2"], capsys)
    assert rc == 1 and "axis" in stderr


def test_prm_clock_period_scales_every_time_constant(tmp_path, capsys):
    """clock_period in a .prm multiplies t_npe_op, t_hop and t_inject, so
    at 2.0 a drain-mode run takes exactly twice as long."""
    default = packaged_config("default_hw.prm")
    slow = tmp_path / "slow.prm"
    slow.write_text(default.read_text().replace("clock_period = 1.0",
                                                "clock_period = 2.0"))
    assert load_hw_config(slow).clock_period == 2.0
    latency = []
    for hw in (default, slow):
        rc, stdout, _ = run_cli(["simulate", "--workload",
                                 packaged_config("pilotnet_synth.net"), "--hw", hw,
                                 "--fps", 0, "--frames", 3, "--out", tmp_path / hw.stem],
                                capsys)
        assert rc == 0
        latency += [float(line.split(" = ")[1]) for line in stdout.splitlines()
                    if line.startswith("latency = ")]
    assert latency == [27870334.000000004, 55740668.00000001]


# --- compare ---

def write_signal(path, values, t0=0.0, dt=1.0):
    lines = ["timestamp,value"]
    for i, v in enumerate(values):
        lines.append(f"{t0 + i * dt},{v}")
    path.write_text("\n".join(lines) + "\n")


def test_compare_identity(tmp_path, capsys):
    sig = tmp_path / "a.csv"
    write_signal(sig, [0.1, 0.5, 0.9, 0.4, 0.2])
    rc, stdout, _ = run_cli(["compare", "--a", sig, "--b", sig], capsys)
    assert rc == 0
    assert "peak = 1.0" in stdout
    assert "shift_ms = 0.0" in stdout
    assert "distorted = False" in stdout


def test_compare_shift_and_thresholds(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    write_signal(a, base)
    write_signal(b, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # two samples later
    rc, stdout, _ = run_cli(["compare", "--a", a, "--b", b,
                             "--max-shift-ms", 5000], capsys)
    assert "shift_ms = 2000.0" in stdout
    assert rc == 0
    rc, stdout, _ = run_cli(["compare", "--a", a, "--b", b,
                             "--max-shift-ms", 1000], capsys)
    assert rc == 1
    assert "distorted = True" in stdout


def test_compare_rejects_nan_max_shift(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_signal(a, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    write_signal(b, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # shifted by 2000 ms
    rc, stdout, stderr = run_cli(["compare", "--a", a, "--b", b, "--min-peak",
                                  "0.5", "--max-shift-ms", "nan"], capsys)
    assert (rc, stdout, stderr) == (1, "", "error: max_shift_ms must be >= 0, "
                                           "got nan\n")


def test_compare_zero_energy_signal_fails(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_signal(a, [0.0, 0.0, 0.0])
    write_signal(b, [0.1, 0.2, 0.3])
    rc, _, stderr = run_cli(["compare", "--a", a, "--b", b], capsys)
    assert rc == 1
    assert "error:" in stderr


@pytest.mark.parametrize("rows, extra, named", [
    ("0.0,1.0\ninf,2.0\n", [], "end signal sample (inf, 2.0) is not finite"),
    ("0.0,1.0\n1.0,nan\n2.0,0.0\n", [], "end signal sample (1.0, nan) is not finite"),
    # the float count overflows to inf, so a missing bound fails on it
    ("0.0,1.0\n1e15,2.0\n", ["--dt", "1e-300"],
     "resampling interval 1e-300 over span 1000000000000000.0 needs more "
     "than 1000000 samples"),
], ids=["inf-timestamp", "nan-value", "tiny-dt"])
def test_non_finite_or_unbounded_signal_is_domain_error(tmp_path, capsys, rows,
                                                         extra, named):
    path = tmp_path / "s.csv"
    path.write_text("timestamp,value\n" + rows)
    rc, _, stderr = run_cli(["compare", "--a", path, "--b", path, *extra], capsys)
    assert (rc, stderr) == (1, f"error: {named}\n")


def test_signal_grid_bound_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fidelity, "MAX_SNAPSHOT_SAMPLES", 10)
    path = tmp_path / "s.csv"
    write_signal(path, [0.1, 0.5, 0.9])
    rc, _, stderr = run_cli(["compare", "--a", path, "--b", path, "--dt", "0.2"],
                            capsys)
    assert (rc, stderr) == (1, "error: resampling interval 0.2 over span 2.0 "
                               "needs more than 10 samples\n")
    rc, stdout, _ = run_cli(["compare", "--a", path, "--b", path, "--dt", "0.25"],
                            capsys)
    assert rc == 0 and "peak = " in stdout


# --- optimize ---

def test_optimize_ga_byte_identical_across_runs_and_workers(net_path, tmp_path,
                                                            capsys):
    opts = []
    for (tag, workers) in (("r1", 1), ("r2", 1), ("r3", 2)):
        rc, stdout, _ = run_cli(
            ["optimize", "--workload", net_path, "--algo", "ga",
             "--frames", 2, "--population", 6, "--generations", 3,
             "--c-max", 4, "--seed", 1, "--workers", workers,
             "--out", tmp_path / tag], capsys)
        assert rc == 0
        run_dir = next((tmp_path / tag / "toychain_app").iterdir())
        sum_dir = next(p for p in run_dir.iterdir() if "_sum_" in p.name)
        opts.append(((sum_dir / "energyOpt.csv").read_bytes(),
                     (sum_dir / "latOpt.csv").read_bytes()))
        assert "best_energy = " in stdout
    assert opts[0] == opts[1] == opts[2]


def test_optimize_nsga2_tree_and_front(net_path, tmp_path, capsys):
    rc, stdout, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "nsga2",
         "--frames", 2, "--population", 8, "--generations", 3,
         "--c-max", 4, "--seed", 0, "--out", tmp_path / "exp"], capsys)
    assert rc == 0
    assert "front_size = " in stdout
    assert "hypervolume = " in stdout
    root = tmp_path / "exp"
    assert (root / "index.csv").exists()
    run_dir = next((root / "toychain_app").iterdir())
    assert run_dir.name.startswith("NSGA2_0_")
    sum_dir = next(p for p in run_dir.iterdir() if "_sum_" in p.name)
    for name in ("algo.prm", "sim.prm", "energyOpt.csv", "latOpt.csv",
                 "pareto.csv", "plot_cores", "plot_interconnect"):
        assert (sum_dir / name).exists()
    assert (run_dir / "evaluations.csv").exists()


def test_optimize_pso_runs(net_path, tmp_path, capsys):
    rc, stdout, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "pso",
         "--frames", 2, "--population", 6, "--generations", 3,
         "--c-max", 4, "--seed", 2, "--out", tmp_path / "p"], capsys)
    assert rc == 0
    assert "best_genome = " in stdout


def test_optimize_with_npes_menu_gene(net_path, tmp_path, capsys):
    rc, stdout, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "ga",
         "--frames", 2, "--population", 6, "--generations", 2,
         "--c-max", 2, "--npes-menu", "1,2,4", "--seed", 3,
         "--out", tmp_path / "n"], capsys)
    assert rc == 0
    run_dir = next((tmp_path / "n" / "toychain_app").iterdir())
    header = (run_dir / "evaluations.csv").read_text().splitlines()[0]
    assert header.endswith(",npes")


def test_interrupted_optimize_finalizes_the_recorded_generations(
        net_path, tmp_path, capsys, monkeypatch):
    from neuromap import cli
    real = cli.attach

    def attach_then_interrupt(record, ctx):
        on_generation = real(record, ctx)

        def wrapped(gen, results, best):
            on_generation(gen, results, best)
            if gen == 1:
                raise KeyboardInterrupt
        return wrapped
    monkeypatch.setattr(cli, "attach", attach_then_interrupt)
    rc, stdout, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "ga",
         "--frames", 2, "--population", 6, "--generations", 5,
         "--c-max", 4, "--seed", 1, "--out", tmp_path / "i"], capsys)
    assert rc == 130
    run_dir = next((tmp_path / "i" / "toychain_app").iterdir())
    assert f"run_dir = {run_dir}" in stdout
    index = (tmp_path / "i" / "index.csv").read_text().splitlines()
    assert len(index) == 2 and index[1].startswith(run_dir.name + ",")
    sum_dir = next(p for p in run_dir.iterdir() if "_sum_" in p.name)
    for name in ("pareto.csv", "plot_cores"):
        assert (sum_dir / name).exists()
    rows = (sum_dir / "energyOpt.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]


def test_interrupt_outside_a_search_exits_130(net_path, tmp_path, capsys,
                                               monkeypatch):
    from neuromap import cli

    def interrupted(*_, **__):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "load_network", interrupted)
    rc, _, stderr = run_cli(["simulate", "--workload", net_path,
                             "--out", tmp_path / "s"], capsys)
    assert rc == 130
    assert stderr == "interrupted\n"


def test_optimize_bad_objective_name(net_path, tmp_path, capsys):
    rc, _, stderr = run_cli(
        ["optimize", "--workload", net_path, "--algo", "ga",
         "--objectives", "energy,power", "--out", tmp_path / "b"], capsys)
    assert rc == 1
    assert "power" in stderr


@pytest.mark.parametrize("algo", ["ga", "nsga2", "pso"])
def test_optimize_empty_objective_list(algo, net_path, tmp_path, capsys):
    rc, stdout, stderr = run_cli(
        ["optimize", "--workload", net_path, "--algo", algo,
         "--objectives", ",", "--out", tmp_path / "b"], capsys)
    assert rc == 1
    assert "no objectives given" in stderr
    assert stdout == ""
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("algo", ["ga", "nsga2", "pso"])
def test_optimize_zero_workers_fails_before_the_run_tree(algo, net_path, tmp_path,
                                                         capsys):
    rc, stdout, stderr = run_cli(
        ["optimize", "--workload", net_path, "--algo", algo, "--workers", 0,
         "--frames", 2, "--out", tmp_path / "w"], capsys)
    assert (rc, stdout, stderr) == (1, "", "error: workers must be >= 1\n")
    assert not (tmp_path / "w" / "toychain_app").exists()


@pytest.mark.parametrize("algo, flags, named", [
    ("nsga2", ["--objectives", "energy"], "nsga2 needs at least 2 objectives"),
    ("nsga2", ["--objectives", "energy,fidelity_penalty"],
     "fidelity_penalty needs a reference end signal"),
    ("nsga2", ["--objectives", "energy,energy"], "objective 'energy' given twice"),
    ("ga", ["--npes-menu", "0,4"], "npes_menu value 0: npes_per_core must be >= 1"),
    ("ga", ["--objectives", "latency"],
     "ga needs a nonzero weight_<objective> for one of latency"),
    ("pso", ["--objectives", "latency,area"],
     "pso needs a nonzero weight_<objective> for one of latency, area"),
    ("nsga2", ["--trace", "far.csv"],
     "trace event references input neuron 24, layer 0 has 24"),
    ("nsga2", ["--npes-menu", ","], "npes_menu has no entries"),
    ("nsga2", ["--c-max", "99999999999999999999"],
     "c_max must be < 2**63 - 1, got 99999999999999999999"),
    ("nsga2", ["--c-max", "9223372036854775807"],
     "c_max must be < 2**63 - 1, got 9223372036854775807"),
], ids=["single-objective", "fidelity-without-reference", "repeated-objective",
        "unusable-menu-value", "ga-unweighted-objective", "pso-unweighted-objectives",
        "trace-past-the-input-layer", "empty-menu", "c-max-past-int64",
        "c-max-at-int64-max"])
def test_optimize_search_errors_fail_before_the_run_tree(algo, flags, named, net_path,
                                                         tmp_path, capsys, monkeypatch):
    # far.csv fires the first neuron past the toy's 24 inputs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "far.csv").write_text(
        "# fps=0.0 frames=1\ntimestamp,neuron_id,payload_bits\n0.0,24,16\n")
    rc, stdout, stderr = run_cli(
        ["optimize", "--workload", net_path, "--algo", algo, *flags,
         "--frames", 2, "--out", tmp_path / "o"], capsys)
    assert (rc, stdout, stderr) == (1, "", f"error: {named}\n")
    assert not (tmp_path / "o" / "toychain_app").exists()


@pytest.mark.parametrize("algo, body, named", [
    ("ga", "eta_mutation = -1", "eta_mutation must be finite and >= 0, got -1.0"),
    ("pso", "omega = inf", "omega must be finite and >= 0, got inf"),
    ("pso", "c1 = nan", "c1 must be finite and >= 0, got nan"),
    ("ga", "weight_energy = nan", "weight_energy must be finite, got nan"),
    ("ga", "p_crossover = -1", "p_crossover must be finite and >= 0, got -1.0"),
    ("ga", "p_crossover = 1.5", "p_crossover must be in [0, 1], got 1.5"),
    ("nsga2", "p_mutation = 2", "p_mutation must be in [0, 1], got 2.0"),
    ("nsga2", "generations = 9223372036854775808",
     "generations must be < 2**63, got 9223372036854775808"),
], ids=["negative-eta", "infinite-omega", "nan-c1", "nan-weight",
        "negative-p-crossover", "p-crossover-above-1", "p-mutation-above-1",
        "generations-past-int64"])
def test_bad_algorithm_parameter_is_domain_error(net_path, tmp_path, capsys,
                                                 algo, body, named):
    path = tmp_path / "algo.prm"
    path.write_text(f"[algorithm]\n{body}\n")
    rc, _, stderr = run_cli(["optimize", "--workload", net_path, "--algo", algo,
                             "--params", path, "--frames", 2, "--population", 4,
                             "--generations", 1, "--out", tmp_path / "e"], capsys)
    assert (rc, stderr) == (1, f"error: {named}\n")
    assert not (tmp_path / "e").exists()


def test_population_grid_bound_in_process(net_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(optimize, "MAX_SNAPSHOT_SAMPLES", 10)
    path = tmp_path / "algo.prm"
    path.write_text("[algorithm]\noffspring = 11\n")
    for extra in (["--params", path], ["--population", 11]):
        rc, _, stderr = run_cli(["optimize", "--workload", net_path, "--algo",
                                 "nsga2", "--frames", 2, "--generations", 1,
                                 *extra, "--out", tmp_path / "e"], capsys)
        assert (rc, stderr) == (1, "error: population and offspring must be <= 10\n")
    assert not (tmp_path / "e").exists()


def test_env_out_root(net_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NEUROMAP_OUT_ROOT", str(tmp_path / "envroot"))
    rc, _, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "ga", "--frames", 2,
         "--population", 4, "--generations", 1, "--c-max", 2, "--seed", 0],
        capsys)
    assert rc == 0
    assert (tmp_path / "envroot" / "toychain_app").is_dir()


@pytest.mark.parametrize("flags, net_name, label", [
    (["--app", "../x"], "toychain", "../x"),
    (["--app", "a/b"], "toychain", "a/b"),
    ([], "../x", "../x"),
], ids=["app-up", "app-down", "net-name-up"])
def test_app_label_with_a_path_separator_fails_before_the_run_tree(
        tmp_path, capsys, flags, net_name, label):
    net = tmp_path / "toy.net"
    net.write_text(TOY_NET.replace("name = toychain", f"name = {net_name}"))
    before = sorted(tmp_path.rglob("*"))
    rc, stdout, stderr = run_cli(
        ["optimize", "--workload", net, "--algo", "ga", "--frames", 2,
         "--population", 4, "--generations", 1, "--c-max", 2, *flags,
         "--out", tmp_path / "o" / "p10"], capsys)
    assert (rc, stdout, stderr) == (
        1, "", f"error: app label {label!r} holds a path separator\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_app_label_with_a_comma_is_quoted_in_the_index(net_path, tmp_path, capsys):
    rc, _, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "ga", "--frames", 2,
         "--population", 4, "--generations", 1, "--c-max", 2, "--app", "a,b",
         "--out", tmp_path / "o"], capsys)
    assert rc == 0
    assert (tmp_path / "o" / "a,b_app").is_dir()
    with open(tmp_path / "o" / "index.csv", encoding="utf-8", newline="") as fh:
        assert [row["app"] for row in csv.DictReader(fh)] == ["a,b"]


# --- report ---

def test_report_cli(net_path, tmp_path, capsys):
    rc, _, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "ga", "--frames", 2,
         "--population", 6, "--generations", 2, "--c-max", 4, "--seed", 4,
         "--out", tmp_path / "e"], capsys)
    assert rc == 0
    run_dir = next((tmp_path / "e" / "toychain_app").iterdir())
    rc, stdout, _ = run_cli(["report", "--run", run_dir], capsys)
    assert rc == 0
    assert "plot_relative_energy" in stdout
    rc, _, stderr = run_cli(["report", "--run", run_dir,
                             "--group-key", "bogus"], capsys)
    assert rc == 1 and "bogus" in stderr
    rc, _, stderr = run_cli(["report"], capsys)
    assert rc == 1


EVAL_HEADER = ",".join(EVAL_FIXED_COLUMNS)


@pytest.mark.parametrize("text, named", [
    ("", ": empty file"),
    (EVAL_HEADER.replace("violation,", "") + "\n0,0\n", ": header lacks column 'violation'"),
    (EVAL_HEADER + "\n0,0\n", f":2: expected {len(EVAL_FIXED_COLUMNS)} fields, got 2"),
], ids=["empty", "header-without-violation", "short-row"])
@pytest.mark.parametrize("mode", ["run", "sweep"])
def test_report_on_a_malformed_evaluations_csv_is_domain_error(tmp_path, capsys, text,
                                                                named, mode):
    path = tmp_path / "evaluations.csv"
    path.write_text(text)
    args = (["--run", tmp_path] if mode == "run" else
            ["--sweep", f"a={tmp_path}", "--out", tmp_path / "sweep.csv"])
    rc, stdout, stderr = run_cli(["report", *args], capsys)
    assert (rc, stdout, stderr) == (1, "", f"error: {path}{named}\n")


@pytest.mark.parametrize("column, noun", [
    ("violation", "a number"), ("latency", "a number"), ("n_cores", "an integer"),
    ("cores_l0", "an integer"),
])
@pytest.mark.parametrize("mode", ["run", "sweep"])
def test_report_names_the_cell_that_does_not_parse(tmp_path, capsys, column, noun, mode):
    header = [*EVAL_FIXED_COLUMNS, "cores_l0"]
    cells = {"timestamp": "1.0", "violation": "0.0", "energy": "1.0", "latency": "1.0",
             "area": "1.0", "fidelity_penalty": "0.0", "error": "", column: "x"}
    path = tmp_path / "evaluations.csv"
    path.write_text(",".join(header) + "\n"
                    + ",".join(cells.get(c, "1") for c in header) + "\n")
    args = (["--run", tmp_path] if mode == "run" else
            ["--sweep", f"a={tmp_path}", "--out", tmp_path / "sweep.csv"])
    rc, stdout, stderr = run_cli(["report", *args], capsys)
    assert (rc, stdout, stderr) == (1, "", f"error: {path}:2: {column} = 'x' is not {noun}\n")


def test_report_sweep(net_path, tmp_path, capsys):
    dirs = {}
    for seed in (0, 1):
        rc, _, _ = run_cli(
            ["optimize", "--workload", net_path, "--algo", "ga",
             "--frames", 2, "--population", 4, "--generations", 1,
             "--c-max", 3, "--seed", seed, "--out", tmp_path / f"s{seed}"],
            capsys)
        assert rc == 0
        dirs[seed] = next((tmp_path / f"s{seed}" / "toychain_app").iterdir())
    out = tmp_path / "sweep.csv"
    rc, stdout, _ = run_cli(["report", "--sweep", f"run0={dirs[0]}",
                             f"run1={dirs[1]}", "--out", out], capsys)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "run,min_energy,relative_energy"
    assert len(lines) == 3
    rc, _, stderr = run_cli(["report", "--sweep", "nolabel"], capsys)
    assert rc == 1


def test_report_sweep_repeated_label_fails_before_reading_a_run(tmp_path, capsys):
    # neither run exists, so reading one would fail with another message
    out = tmp_path / "s.csv"
    rc, stdout, stderr = run_cli(
        ["report", "--sweep", f"a={tmp_path / 'RUN1'}", f"a={tmp_path / 'RUN2'}",
         "--out", out], capsys)
    assert (rc, stdout, stderr) == (1, "", "error: --sweep label 'a' given twice\n")
    assert not out.exists()


# --- shipped parameter files (Table defaults) ---

def test_shipped_algo_params():
    ga = load_algo_params(packaged_config("ga.prm"))
    assert ga.population == 30
    assert ga.eta_crossover == 3.0 and ga.eta_mutation == 3.0
    nsga2 = load_algo_params(packaged_config("nsga2.prm"))
    assert nsga2.population == 40
    assert nsga2.offspring == 10
    assert nsga2.eta_crossover == 3.0 and nsga2.eta_mutation == 3.0
    pso = load_algo_params(packaged_config("pso.prm"))
    assert pso.omega == 0.7 and pso.c1 == 1.5 and pso.c2 == 1.5


def test_shipped_default_hw_parses():
    hw = load_hw_config(packaged_config("default_hw.prm"))
    assert hw.npes_per_core == 1
    assert hw.mem_per_core == 16 * 2**20
    assert hw.p_static_core > 0


def test_run_echoes_load_back(net_path, tmp_path, capsys):
    rc, _, _ = run_cli(
        ["optimize", "--workload", net_path, "--algo", "nsga2",
         "--frames", 2, "--population", 4, "--generations", 1,
         "--c-max", 2, "--npes-menu", "1,2", "--out", tmp_path / "e"], capsys)
    assert rc == 0
    run_dir = next((tmp_path / "e" / "toychain_app").iterdir())
    sum_dir = next(p for p in run_dir.iterdir() if "_sum_" in p.name)
    assert load_algo_params(sum_dir / "algo.prm").algo == "nsga2"
    assert load_hw_config(sum_dir / "sim.prm") == load_hw_config(
        packaged_config("default_hw.prm"))


def test_shipped_pilotnet_workload_parses():
    model = load_network(packaged_config("pilotnet_synth.net"))
    assert [l.neurons for l in model.layers] == [
        39600, 72912, 23688, 5280, 3840, 1152, 100, 50, 10, 1]


# --- help text and entry point ---

def _sub_help(name):
    parser = build_parser()
    sub_action = parser._subparsers._group_actions[0]
    return sub_action.choices[name].format_help()


def test_help_lists_every_documented_flag():
    help_all = build_parser().format_help()
    assert "simulate" in help_all and "optimize" in help_all
    expected = {
        "simulate": ["--workload", "--hw", "--trace", "--fps", "--seed",
                     "--out", "--scheme", "--mapping", "--cores-per-layer",
                     "--axis", "--style", "--snapshot-every", "--frames"],
        "optimize": ["--workload", "--hw", "--trace", "--fps", "--algo",
                     "--params", "--seed", "--workers", "--out", "--scheme",
                     "--objectives", "--policy", "--npes-menu", "--c-max"],
        "compare": ["--a", "--b", "--dt", "--min-peak", "--max-shift-ms"],
        "report": ["--run", "--group-key", "--sweep", "--out"],
    }
    for sub, flags in expected.items():
        text = _sub_help(sub)
        for flag in flags:
            assert flag in text, f"{sub} help is missing {flag}"
    sim_help = _sub_help("simulate")
    assert "strict-area" in sim_help and "loose-area" in sim_help \
        and "strict-square" in sim_help


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "neuromap.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_packaging_metadata_matches_the_tree():
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    package = root / "src" / "neuromap"
    globs = meta["tool"]["setuptools"]["package-data"]["neuromap"]
    shipped = [p.relative_to(package) for p in (package / "configs").rglob("*")
               if p.is_file()]
    assert shipped
    for path in shipped:
        assert any(path.match(g) for g in globs), f"{path} is not package data"
    module, _, attr = meta["project"]["scripts"]["neuromap"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
