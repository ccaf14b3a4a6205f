"""Fuzz every input reader through the command line, in-process.

Each example starts from a valid file (.net, hardware .prm, algorithm
.prm, trace, mapping or end signal), drops, duplicates or truncates lines
and fields, then writes extreme values into some fields. The contract is
the one the CLI promises for malformed input: exit 0, or exit 1 with
stderr starting 'error:'. Any other exception escapes main and fails the
example with its traceback.

The replacement values are either cheap or far past every bound (2**63,
10**12), never a mid-sized count that is valid but costly to run. The
structural mutations run first, so they only shorten or repeat values of
the small valid files and cannot cut a huge value down to a mid-sized one.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neuromap.cli import main

NET = """[network]
name = fuzz
fps = 0
bw_states = 16
bw_outputs = 16
bw_weights = 8
edges = 0>1, 1>2

[layer]
kind = conv
channels = 2
height = 2
width = 3
weights = 0
biases = 0
rate = 0.8
snn = true

[layer]
kind = conv
channels = 2
height = 2
width = 3
neurons = 12
weights = 48
biases = 2
rate = 0.5
snn = true

[layer]
kind = dense
neurons = 4
weights = 48
biases = 4
rate = 0.5
snn = false
"""

HW = """[hardware]
npes_per_core = 2
mem_per_core = 16777216
clock_period = 1.0
flit_bits = 32
e_npe_op = 1.0
e_ctrl_event = 2.0
e_hop_per_flit = 0.6
e_inject = 1.2
p_static_core = 0.2
t_npe_op = 1.0
t_hop = 0.8
t_inject = 1.0
queue_depth = 1024
"""

ALGO = """[algorithm]
algo = {algo}
population = 4
generations = 2
offspring = 4
eta_crossover = 3.0
eta_mutation = 3.0
p_crossover = 0.9
p_mutation = 0.2
omega = 0.7
c1 = 1.5
c2 = 1.5
weight_energy = 1.0
weight_latency = 0.5
"""

TRACE = """# fps=30.0 frames=3
timestamp,neuron_id,payload_bits
0.0,1,16
0.0,7,16
0.06666666666666667,3,16
"""

# one core per layer of NET
MAPPING = """core_id,layer_id,axis,range_start,range_end,N_npc,N_wpc,N_bpc,N_tpc,M_pc_bits
0,0,layer,0,12,12,0,0,12,1536
1,1,channel,0,2,12,48,2,12,1936
2,2,layer,0,4,4,48,4,0,672
"""

SIGNAL = """timestamp,value
0.0,0.5
1.0,0.25
2.5,1.0
3.0,0.0
"""

VALUES = ("x", "", "nan", "inf", "-inf", "-1", "0", str(2**63), str(10**12))

# tokens of a line and the separators between them, alternating
_SEP = re.compile(r"([,=>\s]+)")


@st.composite
def mutated(draw, text: str) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        parts = _SEP.split(lines[i])
        k = 2 * draw(st.integers(0, len(parts) // 2))
        op = draw(st.sampled_from(("drop-line", "repeat-line", "cut-line",
                                   "drop-field", "repeat-field", "cut-field")))
        if op == "drop-line":
            del lines[i]
        elif op == "repeat-line":
            lines.insert(i, lines[i])
        elif op == "cut-line":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif op == "drop-field":
            lines[i] = "".join(parts[:max(k - 1, 0)] + parts[k + 1:])
        elif op == "repeat-field":
            lines[i] = "".join(parts[:k + 1] + [parts[k - 1] if k else " "] + parts[k:])
        else:
            parts[k] = parts[k][:draw(st.integers(0, len(parts[k])))]
            lines[i] = "".join(parts)
    for _ in range(draw(st.integers(0, 3))):
        # a value: a CSV field, or what follows a key or a grid name
        fielded = [i for i, line in enumerate(lines) if _SEP.search(line)]
        if not fielded:
            break
        i = draw(st.sampled_from(fielded))
        parts = _SEP.split(lines[i])
        first = 1 if "=" in lines[i] else 0
        parts[2 * draw(st.integers(first, len(parts) // 2))] = draw(st.sampled_from(VALUES))
        lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


def _run(args) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in args])
    flagged = args[0] == "compare" and "distorted = True" in out.getvalue()
    assert rc == 0 or (rc == 1 and (err.getvalue().startswith("error:") or flagged)), \
        (rc, err.getvalue())


FUZZ = settings(max_examples=75, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _simulate(**files):
    """neuromap simulate on NET, with each given file text written first."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, text in {"workload": NET, **files}.items():
            paths[name] = tmp / name
            paths[name].write_text(text)
        args = ["simulate", "--workload", paths["workload"], "--out", tmp / "out"]
        for name in ("hw", "trace", "mapping"):
            if name in paths:
                args += [f"--{name}", paths[name]]
        if "trace" not in paths:
            args += ["--frames", 2]
        _run(args)


@FUZZ
@given(mutated(NET))
def test_fuzzed_network_file(text):
    _simulate(workload=text)


@FUZZ
@given(mutated(HW))
def test_fuzzed_hardware_file(text):
    _simulate(hw=text)


@FUZZ
@given(mutated(TRACE))
def test_fuzzed_trace_file(text):
    _simulate(trace=text)


@FUZZ
@given(mutated(MAPPING))
def test_fuzzed_mapping_file(text):
    _simulate(mapping=text)


@FUZZ
@given(st.sampled_from(("ga", "nsga2", "pso")).flatmap(
    lambda algo: st.tuples(st.just(algo), mutated(ALGO.format(algo=algo)))))
def test_fuzzed_algorithm_file(case):
    # --generations bounds the run: a huge well-formed generation count is
    # honoured, not rejected, so the file's value is parsed and validated
    # but the flag sets the length
    algo, text = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "fuzz.net").write_text(NET)
        (tmp / "algo.prm").write_text(text)
        _run(["optimize", "--workload", tmp / "fuzz.net", "--algo", algo,
              "--params", tmp / "algo.prm", "--generations", 1, "--frames", 2,
              "--c-max", 2, "--out", tmp / "out"])


@FUZZ
@given(mutated(SIGNAL))
def test_fuzzed_end_signal_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        a.write_text(text)
        b.write_text(SIGNAL)
        _run(["compare", "--a", a, "--b", b])
