"""End-to-end acceptance checks: one test per shipped guarantee.

Each test states its tolerance and wall-clock budget inline and is
self-contained, so `pytest tests/test_acceptance.py -v` prints one
pass/fail line per guarantee:

1. mesh compression golden cases + exhaustive strict-area optimality,
2. per-core memory bound (hand value, monotonicity, cap respected),
3. correlation metric (self peak, impulse shift, quadratic oracle),
4. simulator accounting (exact linear energy, affine snapshots, XY hops),
5. search loops recover an exhaustively enumerated toy space,
6. desk-scale energy-improvement trend on the bundled workload,
7. byte-identical optimizer artifacts across runs and worker counts,
8. drain-mode timing invariance + the frame-interleaving knee.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from neuromap.analytics import (
    attach,
    finalize_run,
    open_run,
    report_run,
)
from neuromap.cli import packaged_config
from neuromap.fidelity import from_values, xcorr_curve, xcorr_score
from neuromap.mesh import compress, place
from neuromap.optimize import (
    ALGOS,
    RUNNERS,
    AlgoParams,
    EvalContext,
    GenomeSpace,
    ParetoArchive,
    dominance,
    evaluate,
    evaluate_batch,
    hypervolume_2d,
    run_ga,
    run_nsga2,
    scalarize,
)
from neuromap.partition import (
    AXES,
    LayerSplit,
    PartitionSpec,
    build_mapping,
    memory_per_core,
)
from neuromap.simcost import (
    HardwareConfig,
    _route_xy,
    load_hw_config,
    simulate,
    snapshot,
)
from neuromap.workload import EventTrace, Layer, NetworkModel, load_network, synth_trace
from helpers import colocate, uniform_spec
from test_analytics import _run_files

# interleaving knee of the 3-layer toy below, on a 0.01 fps grid: computed
# once by sweeping, then frozen as a regression value
KNEE_FPS = 0.04


def dense(n, lid, rate=1.0):
    return Layer(id=lid, kind="dense", channels=1, height=1, width=n,
                 weights=0, biases=0, is_snn=True, avg_event_rate=rate)


def conv(c, h, w, lid, rate=1.0, weights=0, biases=0):
    return Layer(id=lid, kind="conv", channels=c, height=h, width=w,
                 weights=weights, biases=biases, is_snn=True,
                 avg_event_rate=rate)


def chain_model(neuron_counts):
    layers = tuple(dense(n, i) for i, n in enumerate(neuron_counts))
    edges = tuple((i, i + 1) for i in range(len(neuron_counts) - 1))
    return NetworkModel(name="chain", layers=layers, edges=edges,
                        frame_rate_fps=0)


# --- 1. mesh compression ---

def test_mesh_golden_cases_and_exhaustive_strict_area_optimality():
    """Golden shapes, then every n <= 10,000 against a brute-force factor
    enumerator. Budget: 5 s."""
    t0 = time.monotonic()
    assert compress(30, "strict-area") == (5, 6)
    assert compress(31, "loose-area") == (4, 8)
    for n in range(1, 10_001):
        r, c = compress(n, "strict-area")
        assert r * c == n
        assert r <= c
        # brute force: walk every factor pair (d, n // d), keep the squarest
        best = 1
        d = 1
        while d * d <= n:
            if n % d == 0:
                best = d
            d += 1
        assert (r, c) == (best, n // best)
    assert time.monotonic() - t0 < 5.0


# --- 2. per-core memory bound ---

def test_memory_bound_hand_value_monotonicity_and_cap_never_exceeded():
    """Hand-computed 208,800-bit case exact; monotone in every count; zero
    case; and over 1,000 random feasible workloads no emitted core exceeds
    the budget it was built under."""
    assert memory_per_core(1000, 10000, 100, 1000, True, 16, 16, 8) == 208_800
    assert memory_per_core(0, 0, 0, 0, True, 16, 16, 8) == 0

    base = (1000, 10000, 100, 1000)
    m0 = memory_per_core(*base, True, 16, 16, 8)
    for i in range(4):
        args = list(base)
        args[i] += 7
        assert memory_per_core(*args, True, 16, 16, 8) > m0

    extent_of = {"layer": lambda l: 1, "channel": lambda l: l.channels,
                 "height": lambda l: l.height, "width": lambda l: l.width}
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n_layers = int(rng.integers(1, 4))
        layers = tuple(
            conv(int(rng.integers(1, 5)), int(rng.integers(1, 9)),
                 int(rng.integers(1, 9)), lid=i,
                 weights=int(rng.integers(0, 500)),
                 biases=int(rng.integers(0, 10)))
            for i in range(n_layers))
        edges = tuple((i, i + 1) for i in range(n_layers - 1))
        model = NetworkModel(name="rand", layers=layers, edges=edges)
        splits = []
        for layer in layers:
            axis = str(rng.choice(AXES))
            hi = max(1, extent_of[axis](layer))
            splits.append(LayerSplit(int(rng.integers(1, hi + 1)), axis))
        spec = PartitionSpec(tuple(splits))
        probe = build_mapping(model, spec, m_max=10**12, enforce_cap=False)
        cap = max(probe.memory_by_core().values())
        # cap == worst core of this very mapping, so it is feasible
        mapping = build_mapping(model, spec, m_max=cap)
        assert max(mapping.memory_by_core().values()) <= cap


# --- 3. correlation metric ---

def test_correlation_self_peak_impulse_shift_and_quadratic_oracle():
    """Self-correlation peaks at 1.0 +- 1e-9 with zero shift; impulse pairs
    recover their lag exactly; the FFT-free curve matches an O(n^2) oracle
    to 1e-9 for every length <= 64. Dataset-specific correlation magnitudes
    are deliberately not asserted, only the metric's algebra."""
    rng = np.random.default_rng(7)
    x = from_values(rng.normal(size=50).tolist(), 0.5)
    peak, shift = xcorr_score(x, x)
    assert abs(peak - 1.0) <= 1e-9
    assert shift == 0.0

    for lag in (-4, -1, 1, 3, 6):
        n = 24
        a = from_values([1.0 if i == 10 else 0.0 for i in range(n)], 0.01)
        b = from_values([1.0 if i == 10 + lag else 0.0 for i in range(n)], 0.01)
        p, shift_ms = xcorr_score(a, b, mean_center=False)
        assert p == pytest.approx(1.0, abs=1e-9)
        assert shift_ms == pytest.approx(lag * 0.01 * 1000.0, abs=1e-9)

    def oracle(xs, ys):
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        xc = [v - mx for v in xs]
        yc = [v - my for v in ys]
        denom = math.sqrt(sum(v * v for v in xc) * sum(v * v for v in yc))
        out = {}
        for lag in range(-(len(xc) - 1), len(yc)):
            s = sum(xc[i] * yc[i + lag] for i in range(len(xc))
                    if 0 <= i + lag < len(yc))
            out[lag] = s / denom
        return out

    for n in range(2, 65):
        xs = rng.normal(size=n).tolist()
        ys = rng.normal(size=n).tolist()
        lags, z = xcorr_curve(from_values(xs, 1.0), from_values(ys, 1.0))
        ref = oracle(xs, ys)
        for lag, v in zip(lags, z):
            assert abs(v - ref[int(lag)]) <= 1e-9


# --- 4. simulator accounting ---

def test_simulator_exact_energy_affine_snapshots_and_manhattan_hops():
    """Single-core constant-rate energy is exactly
    N * (e_ctrl_event + ceil(w / npes) * e_npe_op); cumulative per-core
    snapshots are affine within a frame; route length equals Manhattan
    distance on 10,000 random coordinate pairs."""
    hw = HardwareConfig(npes_per_core=4, e_npe_op=3.0, e_ctrl_event=7.0,
                        e_hop_per_flit=11.0, e_inject=13.0,
                        t_npe_op=5.0, t_hop=3.0, t_inject=2.0)

    model = chain_model([6, 9])
    events = []
    for f in range(3):
        for nid in range(6):
            events.append((float(f), nid, model.bitwidths.outputs))
    trace = EventTrace(events=tuple(events), fps=0, n_frames=3)
    mapping = colocate(
        build_mapping(model, uniform_spec(model), m_max=hw.mem_per_core), [{0, 1}])
    placement = place(1, compress(1, "strict-area"))
    report = simulate(model, mapping, placement, hw, trace)
    n_events = 18
    expected = n_events * (hw.e_ctrl_event
                           + math.ceil(9 / hw.npes_per_core) * hw.e_npe_op)
    assert report.total_energy == expected
    assert report.energy_interconnect == {}

    period = 100.0
    paced = EventTrace(
        events=tuple((f * period, nid, model.bitwidths.outputs)
                     for f in range(4) for nid in range(6)),
        fps=1.0 / period, n_frames=4)
    paced_report = simulate(model, mapping, placement, hw, paced)
    times, core_rows, _ = snapshot(paced_report, every=period)
    rows = core_rows[0]
    deltas = [b - a for a, b in zip(rows, rows[1:])]
    busy = [d for d in deltas if d > 0]
    assert len(set(round(d, 9) for d in busy)) == 1

    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        r0, c0, r1, c1 = (int(v) for v in rng.integers(0, 64, size=4))
        path = _route_xy((r0, c0), (r1, c1))
        assert len(path) - 1 == abs(r0 - r1) + abs(c0 - c1)
        assert path[0] == (r0, c0) and path[-1] == (r1, c1)


# --- 5. search loops on an enumerable space ---

def test_search_loops_recover_exhaustively_enumerated_space():
    """256-genome space: NSGA-II final archive lies on the true front with
    >= 95% of its hypervolume; GA hits the enumerated optimum within 50
    generations for seeds 0-4. Budget: 2 min."""
    t0 = time.monotonic()
    hw = HardwareConfig(npes_per_core=2, e_npe_op=1.0, e_ctrl_event=2.0,
                        e_hop_per_flit=0.5, e_inject=1.0, p_static_core=3.0,
                        t_npe_op=1.0, t_hop=1.0, t_inject=1.0)
    model = NetworkModel(
        name="toy2",
        layers=(conv(4, 2, 3, lid=0, rate=0.6), conv(4, 2, 3, lid=1, rate=0.6)),
        edges=((0, 1),), frame_rate_fps=0)
    trace = synth_trace(model, n_frames=2, fps=0, seed=3)
    ctx = EvalContext(model=model, trace=trace, base_hw=hw,
                      space=GenomeSpace(n_layers=2, c_max=4))

    lo, hi = ctx.space.bounds()
    genomes = [tuple(g) for g in itertools.product(
        *[range(int(a), int(b) + 1) for a, b in zip(lo, hi)])]
    assert len(genomes) == 256
    results = evaluate_batch(genomes, ctx, workers=8)

    names = ctx.objective_names
    truth = ParetoArchive(names)
    truth.update(r for r in results if r.feasible)
    true_pts = [r.objectives.as_tuple(names) for r in truth.members]
    ref = (max(p[0] for p in true_pts) * 1.1 + 1.0,
           max(p[1] for p in true_pts) * 1.1 + 1.0)
    true_hv = hypervolume_2d(true_pts, ref)

    params = AlgoParams(algo="nsga2", population=16, generations=40,
                        offspring=8)
    archive, hv_hist = run_nsga2(ctx, params, seed=0)
    got_pts = [r.objectives.as_tuple(names) for r in archive.members]
    assert hypervolume_2d(got_pts, ref) >= 0.95 * true_hv
    # no member of the true front beats an archive member
    pool = [*truth.members, *archive.members]
    dom = dominance([r.violation for r in pool],
                    [r.objectives.as_tuple(names) for r in pool])
    assert not dom[:len(truth.members), len(truth.members):].any()

    weights = {"energy": 1.0}
    target = min(scalarize(r, names, weights) for r in results if r.feasible)
    ga_params = AlgoParams(algo="ga", population=10, generations=50,
                           weights=weights)
    for seed in range(5):
        best, hist = run_ga(ctx, ga_params, seed=seed)
        assert hist[-1] == pytest.approx(target)
    assert time.monotonic() - t0 < 120.0


# --- 6. desk-scale energy-improvement trend ---

def test_desk_scale_search_beats_naive_mapping_and_front_table_is_monotone(tmp_path):
    """Bundled workload, shipped constants, 30 frames, pop 20, 15
    generations: the energy-best design improves >= 25% over the naive
    one-layer-per-core max-NPE mapping, and the exported front table is
    monotone (energy up, latency down) row to row. Budget: 15 min."""
    t0 = time.monotonic()
    npes_menu = (1, 2, 4, 8, 16, 32, 64)
    model = load_network(packaged_config("pilotnet_synth.net"))
    hw = load_hw_config(packaged_config("default_hw.prm"))
    trace = synth_trace(model, n_frames=30, fps=30.0, seed=7)
    space = GenomeSpace(n_layers=len(model.layers), c_max=16,
                        npes_menu=npes_menu)
    ctx = EvalContext(model=model, base_hw=hw, trace=trace, space=space)

    naive = tuple([1, 0] * len(model.layers) + [len(npes_menu) - 1])
    baseline = evaluate(naive, ctx)
    assert baseline.feasible

    params = AlgoParams(algo="nsga2", population=20, generations=15,
                        offspring=20)
    record = open_run(tmp_path, "pilotnet_synth", "nsga2", seed=1,
                      params=params, hw=hw, gene_names=space.gene_names())
    archive, hv_hist = run_nsga2(ctx, params, seed=1, workers=8,
                                 on_generation=attach(record, ctx))
    finalize_run(record)
    assert all(b >= a - 1e-12 for a, b in zip(hv_hist, hv_hist[1:]))

    front = [r for r in archive.front() if r.feasible]
    best = min(front, key=lambda r: r.objectives.energy)
    improvement = ((baseline.objectives.energy - best.objectives.energy)
                   / baseline.objectives.energy)
    assert improvement >= 0.25

    out = report_run(record.run_dir)
    lines = out["pareto"].read_text(encoding="utf-8").strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    pts = [(float(r[0]), float(r[1])) for r in rows]
    assert len(pts) >= 2
    worst_energy = max(e for e, _ in pts)
    prev_rel = None
    for (e1, l1), (e2, l2) in zip(pts, pts[1:]):
        assert (e2 > e1 and l2 < l1) or (e2 == e1 and l2 == l1)
    for e, _ in pts:
        rel = e / worst_energy
        if prev_rel is not None:
            assert rel >= prev_rel
        prev_rel = rel
    assert pts[-1][0] == worst_energy
    assert out["plot_relative_energy"].exists()
    assert time.monotonic() - t0 < 900.0


# --- 7. artifact determinism ---

def test_energy_opt_artifact_byte_identical_across_runs_and_worker_counts(tmp_path):
    """Same (seed, config) writes byte-identical energyOpt.csv: two fresh
    runs, and single-process vs 8-worker evaluation."""
    hw = HardwareConfig(npes_per_core=2, e_npe_op=1.0, e_ctrl_event=2.0,
                        e_hop_per_flit=0.5, e_inject=1.0, p_static_core=3.0,
                        t_npe_op=1.0, t_hop=1.0, t_inject=1.0)
    model = NetworkModel(
        name="toy2",
        layers=(conv(4, 2, 3, lid=0, rate=0.6), conv(4, 2, 3, lid=1, rate=0.6)),
        edges=((0, 1),), frame_rate_fps=0)
    trace = synth_trace(model, n_frames=2, fps=0, seed=3)
    space = GenomeSpace(n_layers=2, c_max=4)
    params = AlgoParams(algo="nsga2", population=8, generations=5,
                        offspring=8)

    def one_run(tag, workers):
        ctx = EvalContext(model=model, trace=trace, base_hw=hw, space=space)
        record = open_run(tmp_path / tag, "toy2", "nsga2", seed=5,
                          params=params, hw=hw,
                          gene_names=space.gene_names())
        run_nsga2(ctx, params, seed=5, workers=workers,
                  on_generation=attach(record, ctx))
        finalize_run(record)
        return (record.energy_opt_path.read_bytes(),
                record.latency_opt_path.read_bytes())

    first = one_run("a", 1)
    again = one_run("b", 1)
    fanned = one_run("c", 8)
    assert first == again == fanned
    assert first[0].startswith(b"generation,energy,latency,")


@pytest.mark.parametrize("algo", ALGOS)
def test_run_tree_byte_identical_across_worker_counts(tmp_path, algo):
    """One and two workers write the same run tree: reports, every snapshot
    directory, and evaluations.csv apart from its timestamps."""
    hw = HardwareConfig(npes_per_core=2, e_npe_op=1.0, e_ctrl_event=2.0,
                        e_hop_per_flit=0.5, e_inject=1.0, p_static_core=3.0,
                        t_npe_op=1.0, t_hop=1.0, t_inject=1.0)
    model = NetworkModel(
        name="toy2",
        layers=(conv(4, 2, 3, lid=0, rate=0.6), conv(4, 2, 3, lid=1, rate=0.6)),
        edges=((0, 1),), frame_rate_fps=0)
    ctx = EvalContext(model=model, trace=synth_trace(model, n_frames=2, fps=0, seed=3),
                      base_hw=hw, space=GenomeSpace(n_layers=2, c_max=4))
    params = AlgoParams(algo=algo, population=8, generations=5, offspring=8)
    trees = []
    for workers in (1, 2):
        record = open_run(tmp_path / str(workers), "toy2", algo, seed=5,
                          params=params, hw=hw,
                          gene_names=ctx.space.gene_names())
        RUNNERS[algo](ctx, params, seed=5, workers=workers,
                      on_generation=attach(record, ctx))
        finalize_run(record)
        trees.append(_run_files(record))
    assert trees[0] == trees[1]
    names = {name.rsplit("/", 1)[-1] for name in trees[0]}
    assert {"energyOpt.csv", "latOpt.csv", "pareto.csv", "plot_cores"} <= names
    assert any(name.startswith("Energy/") for name in trees[0])


# --- 8. drain-mode invariance and the interleaving knee ---

def test_drained_signal_ignores_timing_scale_and_interleaving_knee_holds():
    """At fps=0 the output value sequence is identical under any scaling of
    the timing constants. Sweeping fps upward on a 0.01 grid, the fidelity
    penalty is exactly 0.0 up to the knee and nonzero from KNEE_FPS on."""
    hw = HardwareConfig(npes_per_core=2, e_npe_op=1.0, e_ctrl_event=2.0,
                        e_hop_per_flit=0.5, e_inject=1.0, p_static_core=0.0,
                        t_npe_op=1.0, t_hop=1.0, t_inject=1.0,
                        queue_depth=1_000_000)
    model = NetworkModel(
        name="toy3",
        layers=(dense(6, 0), dense(9, 1), dense(4, 2)),
        edges=((0, 1), (1, 2)), frame_rate_fps=0)
    # middle layer split into 5 + 4 neurons: the uneven halves give the two
    # paths different service times, so frames can interleave across them
    spec = PartitionSpec((LayerSplit(1, "layer"), LayerSplit(2, "width"),
                          LayerSplit(1, "layer")))
    mapping = build_mapping(model, spec, m_max=10**9)
    n = mapping.n_cores_total
    placement = place(n, compress(n, "strict-area"))
    pattern = [6, 2, 5, 1, 4, 6, 3, 2]

    def trace_at(fps):
        events = []
        for f, count in enumerate(pattern):
            t = f / fps if fps > 0 else float(f)
            events.extend((t, nid, model.bitwidths.outputs)
                          for nid in range(count))
        return EventTrace(events=tuple(events), fps=fps,
                          n_frames=len(pattern))

    ref = [v for (_, v) in
           simulate(model, mapping, placement, hw, trace_at(0)).end_signal]
    assert len(ref) == len(pattern)
    for scale in (7.25, 0.125):
        scaled = simulate(model, mapping, placement,
                          replace(hw, clock_period=hw.clock_period * scale), trace_at(0))
        assert [v for (_, v) in scaled.end_signal] == ref

    ref_sig = from_values(ref, 1.0)
    penalties = {}
    for centi in range(1, 15):
        fps = centi / 100.0
        rep = simulate(model, mapping, placement, hw, trace_at(fps))
        values = [v for (_, v) in rep.end_signal]
        peak, shift_ms = xcorr_score(from_values(values, 1.0), ref_sig)
        penalties[fps] = (1.0 - peak) + 1e-3 * abs(shift_ms)

    below = [fps for fps in penalties if fps < KNEE_FPS]
    at_and_above = [fps for fps in penalties if fps >= KNEE_FPS]
    assert below and at_and_above
    for fps in below:
        assert penalties[fps] == 0.0
    for fps in at_and_above:
        assert penalties[fps] > 0.0
    first_nonzero = min(fps for fps, p in penalties.items() if p > 0.0)
    assert first_nonzero == KNEE_FPS
