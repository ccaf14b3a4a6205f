import re

import pytest

from neuromap.analytics import (
    EVAL_FIXED_COLUMNS,
    AnalyticsError,
    attach,
    finalize_run,
    list_runs,
    open_run,
    read_evaluations,
    record_evaluation,
    record_generation,
    relative_energy_table,
    report_run,
    sweep_report,
)
from neuromap.configio import parse_blocks_file
from neuromap.optimize import (
    AlgoParams,
    EvalContext,
    EvalResult,
    GenomeSpace,
    Objectives,
    load_algo_params,
    run_ga,
    simulate_genome,
)
from neuromap.simcost import HardwareConfig
from neuromap.workload import Layer, NetworkModel, synth_trace

HW = HardwareConfig(npes_per_core=2, e_npe_op=1.0, e_ctrl_event=2.0,
                    e_hop_per_flit=0.5, e_inject=1.0, p_static_core=3.0,
                    t_npe_op=1.0, t_hop=1.0, t_inject=1.0)

SNAPSHOT_FILES = {"summary.txt", "gui_setting.csv", "output_snapshot.csv",
                  "snapshots_cores.csv", "snapshots_interconnects.csv"}


def toy_ctx():
    layers = (
        Layer(id=0, kind="conv", channels=4, height=2, width=3, weights=0,
              biases=0, is_snn=True, avg_event_rate=0.8),
        Layer(id=1, kind="dense", channels=1, height=1, width=5, weights=120,
              biases=5, is_snn=True, avg_event_rate=0.5),
    )
    m = NetworkModel(name="toy", layers=layers, edges=((0, 1),))
    tr = synth_trace(m, n_frames=2, fps=0, seed=3)
    return EvalContext(model=m, trace=tr, base_hw=HW,
                       space=GenomeSpace(n_layers=2, c_max=4))


@pytest.fixture(scope="module")
def shared_report():
    return simulate_genome((1, 0, 1, 0), toy_ctx())


def mk_result(energy, latency, violation=0.0, genome=(1, 0, 1, 0),
              n_cores=2, mesh=(1, 2)):
    return EvalResult(genome=tuple(genome),
                      objectives=Objectives(energy, latency, 2.0, 0.0),
                      violation=violation, n_cores=n_cores, mesh_shape=mesh)


def open_toy_run(tmp_path, **kw):
    kw.setdefault("policy", "bests")
    return open_run(tmp_path / "experiments", "toy", kw.pop("algo", "ga"),
                    kw.pop("seed", 7), AlgoParams(algo="ga", weights={"energy": 1.0}),
                    HW, run_settings={"scheme": "strict-area", "fps": "0"},
                    gene_names=("cores_l0", "axis_l0", "cores_l1", "axis_l1"),
                    **kw)


def test_open_run_creates_tree_and_echoes(tmp_path):
    rec = open_toy_run(tmp_path)
    assert re.fullmatch(r"GA_7_\d{4}_\d{2}_\d{2}_\d{2}-\d{2}-\d{2}",
                        rec.run_dir.name)
    assert (rec.run_dir / "Energy").is_dir()
    assert (rec.run_dir / "Latency").is_dir()
    assert rec.sum_dir.name == f"GA_sum_{rec.run_dir.name.removeprefix('GA_7_')}"
    params = load_algo_params(rec.sum_dir / "algo.prm")
    assert params.algo == "ga"
    assert params.weights == {"energy": 1.0}
    blocks = dict(parse_blocks_file(rec.sum_dir / "sim.prm"))
    assert blocks["run"]["app"] == "toy"
    assert blocks["run"]["scheme"] == "strict-area"
    assert float(blocks["hardware"]["e_ctrl_event"]) == HW.e_ctrl_event
    assert int(blocks["hardware"]["npes_per_core"]) == HW.npes_per_core
    header, rows = read_evaluations(rec.run_dir)
    assert rows == []
    assert header == list(EVAL_FIXED_COLUMNS) + ["cores_l0", "axis_l0",
                                                 "cores_l1", "axis_l1"]


def test_open_run_rejects_bad_policy_and_duplicate(tmp_path):
    with pytest.raises(AnalyticsError):
        open_toy_run(tmp_path, policy="weekly")
    from datetime import datetime
    when = datetime(2026, 1, 2, 3, 4, 5)
    open_toy_run(tmp_path, when=when)
    with pytest.raises(AnalyticsError):
        open_toy_run(tmp_path, when=when)


def test_record_evaluation_appends_rows(tmp_path, shared_report):
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, mk_result(10.0, 5.0), report=shared_report)
    header, rows = read_evaluations(rec.run_dir)
    assert len(rows) == 1
    row = rows[0]
    assert row["eval_index"] == "0"
    assert row["generation"] == "0"
    assert float(row["energy"]) == 10.0
    assert float(row["latency"]) == 5.0
    assert row["cores_l0"] == "1"
    assert row["error"] == ""


def test_bests_policy_channels(tmp_path, shared_report):
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, mk_result(10.0, 5.0), report=shared_report)
    e_dirs = lambda: sorted(p.name for p in (rec.run_dir / "Energy").iterdir())
    l_dirs = lambda: sorted(p.name for p in (rec.run_dir / "Latency").iterdir())
    assert len(e_dirs()) == 1 and len(l_dirs()) == 1
    # improves latency only
    record_evaluation(rec, mk_result(12.0, 3.0), report=shared_report)
    assert len(e_dirs()) == 1 and len(l_dirs()) == 2
    # improves neither: row logged, no snapshots
    record_evaluation(rec, mk_result(12.0, 4.0), report=shared_report)
    assert len(e_dirs()) == 1 and len(l_dirs()) == 2
    _, rows = read_evaluations(rec.run_dir)
    assert len(rows) == 3
    # snapshot dirs carry the full file set and end with the eval index
    snap = (rec.run_dir / "Energy") / e_dirs()[0]
    assert {p.name for p in snap.iterdir()} == SNAPSHOT_FILES
    assert snap.name.endswith("_0")
    assert rec.best_energy.objectives.energy == 10.0
    assert rec.best_latency.objectives.latency == 3.0


def test_all_policy_snapshots_everything(tmp_path, shared_report):
    rec = open_toy_run(tmp_path, policy="all")
    for k in range(3):
        record_evaluation(rec, mk_result(10.0 + k, 5.0), report=shared_report)
    assert len(list((rec.run_dir / "Energy").iterdir())) == 3
    assert len(list((rec.run_dir / "Latency").iterdir())) == 3


def test_sampled_policy(tmp_path, shared_report):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=2)
    for k in range(5):
        record_evaluation(rec, mk_result(10.0 + k, 5.0), report=shared_report)
    assert len(list((rec.run_dir / "Energy").iterdir())) == 3  # 0, 2, 4
    assert len(list((rec.run_dir / "Latency").iterdir())) == 3


def test_infeasible_logged_never_snapshotted(tmp_path, shared_report):
    rec = open_toy_run(tmp_path, policy="all")
    record_evaluation(rec, mk_result(1e18, 1e18, violation=4096.0),
                      report=shared_report)
    _, rows = read_evaluations(rec.run_dir)
    assert len(rows) == 1
    assert float(rows[0]["violation"]) == 4096.0
    assert list((rec.run_dir / "Energy").iterdir()) == []
    assert rec.best_energy is None


def test_flagged_eval_needs_report_or_ctx(tmp_path):
    rec = open_toy_run(tmp_path)
    with pytest.raises(AnalyticsError):
        record_evaluation(rec, mk_result(10.0, 5.0))
    # with a context it re-simulates the genome on demand
    rec2 = open_toy_run(tmp_path, seed=8)
    record_evaluation(rec2, mk_result(10.0, 5.0), ctx=toy_ctx())
    snap = next((rec2.run_dir / "Energy").iterdir())
    assert {p.name for p in snap.iterdir()} == SNAPSHOT_FILES


def test_record_generation_running_bests(tmp_path, shared_report):
    rec = open_toy_run(tmp_path)
    record_generation(rec, 0)  # nothing feasible yet
    record_evaluation(rec, mk_result(10.0, 5.0), report=shared_report)
    record_generation(rec, 1)
    record_evaluation(rec, mk_result(8.0, 6.0, genome=(2, 0, 1, 0)),
                      report=shared_report)
    record_generation(rec, 2)
    lines = rec.energy_opt_path.read_text().splitlines()
    assert lines[0] == "generation,energy,latency,cores_l0,axis_l0,cores_l1,axis_l1"
    assert lines[1].startswith("0,inf,inf")
    assert lines[2] == "1,10.0,5.0,1,0,1,0"
    assert lines[3] == "2,8.0,6.0,2,0,1,0"
    lat = rec.latency_opt_path.read_text().splitlines()
    assert lat[2] == "1,10.0,5.0,1,0,1,0"
    assert lat[3] == "2,10.0,5.0,1,0,1,0"  # latency best unchanged
    # evaluations after a generation mark carry the next generation id
    _, rows = read_evaluations(rec.run_dir)
    assert [r["generation"] for r in rows] == ["1", "2"]


def test_ga_smoke_row_count_and_monotone_timestamps(tmp_path):
    ctx = toy_ctx()
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=1000)
    params = AlgoParams(algo="ga", population=6, generations=4,
                        weights={"energy": 1.0})
    run_ga(ctx, params, seed=0, on_generation=attach(rec, ctx))
    finalize_run(rec)
    _, rows = read_evaluations(rec.run_dir)
    assert len(rows) == 6 * 5  # initial population + 4 generations
    stamps = [float(r["timestamp"]) for r in rows]
    assert all(a <= b for a, b in zip(stamps, stamps[1:]))
    gens = [int(r["generation"]) for r in rows]
    assert gens == sorted(gens) and gens[0] == 0 and gens[-1] == 4
    opt_lines = rec.energy_opt_path.read_text().splitlines()
    assert len(opt_lines) == 1 + 5
    energies = [float(l.split(",")[1]) for l in opt_lines[1:]]
    assert all(a >= b for a, b in zip(energies, energies[1:]))


def test_opt_csvs_byte_identical_across_runs_and_workers(tmp_path):
    ctx = toy_ctx()
    params = AlgoParams(algo="ga", population=8, generations=3,
                        weights={"energy": 1.0})
    outs = []
    for (tag, workers) in (("a", 1), ("b", 1), ("c", 2)):
        rec = open_run(tmp_path / tag, "toy", "ga", 5, params, HW,
                       gene_names=ctx.space.gene_names(),
                       policy="sampled", sample_every=10**9)
        run_ga(ctx, params, seed=5, workers=workers,
               on_generation=attach(rec, ctx))
        finalize_run(rec)
        outs.append((rec.energy_opt_path.read_bytes(),
                     rec.latency_opt_path.read_bytes()))
    assert outs[0] == outs[1] == outs[2]


def test_report_single_point_relative_one(tmp_path, shared_report):
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, mk_result(42.0, 7.0), report=shared_report)
    out = report_run(rec.run_dir)
    lines = out["plot_relative_energy"].read_text().splitlines()
    assert lines == ["n_cores,energy,relative_energy", "2,42.0,1.0"]


def test_report_linear_core_sweep_monotone(tmp_path, shared_report):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    for c in (3, 1, 4, 2, 5):
        record_evaluation(rec, mk_result(100.0 * c, 10.0 / c, n_cores=c,
                                         genome=(c, 0, 1, 0), mesh=(1, c)),
                          report=shared_report)
    out = report_run(rec.run_dir)
    lines = out["plot_relative_energy"].read_text().splitlines()[1:]
    keys = [int(l.split(",")[0]) for l in lines]
    rels = [float(l.split(",")[2]) for l in lines]
    assert keys == [1, 2, 3, 4, 5]
    assert rels == [0.2, 0.4, 0.6, 0.8, 1.0]
    # plot_cores aggregates per distinct core count
    plot = out["plot_cores"].read_text().splitlines()
    assert plot[0] == "n_cores,count,min_energy,mean_energy,min_latency,mean_latency"
    assert len(plot) == 6
    assert plot[1].startswith("1,1,100.0,100.0,10.0,10.0")
    inter = out["plot_interconnect"].read_text().splitlines()
    assert inter[1].split(",")[0] == "1x1"


def test_report_idempotent_byte_identical(tmp_path, shared_report):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    for c in (2, 1, 3):
        record_evaluation(rec, mk_result(50.0 * c, 9.0 - c, n_cores=c,
                                         genome=(c, 0, 1, 0), mesh=(1, c)),
                          report=shared_report)
    first = {k: p.read_bytes() for k, p in report_run(rec.run_dir).items()}
    second = {k: p.read_bytes() for k, p in report_run(rec.run_dir).items()}
    assert first == second


def test_report_group_by_gene_column(tmp_path, shared_report):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    for (g, e) in (((1, 0, 1, 0), 30.0), ((1, 0, 1, 1), 20.0),
                   ((1, 0, 1, 1), 25.0)):
        record_evaluation(rec, mk_result(e, 5.0, genome=g),
                          report=shared_report)
    out = report_run(rec.run_dir, group_key="axis_l1")
    lines = out["plot_relative_energy"].read_text().splitlines()
    assert lines[0] == "axis_l1,energy,relative_energy"
    assert lines[1] == "0,30.0,1.0"
    assert lines[2] == "1,20.0," + repr(20.0 / 30.0)


def test_relative_energy_table_rejects_unknown_key():
    with pytest.raises(AnalyticsError):
        relative_energy_table([{"energy": "1.0", "violation": "0.0"}], "bogus")


def test_pareto_csv_holds_non_dominated_rows(tmp_path, shared_report):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    pts = [(4.0, 1.0, (1, 0, 1, 0)), (1.0, 4.0, (1, 0, 1, 1)),
           (2.0, 2.0, (1, 0, 1, 2)), (3.0, 3.0, (1, 0, 1, 3)),
           (2.0, 2.0, (1, 0, 1, 2))]  # exact duplicate collapses
    for (e, l, g) in pts:
        record_evaluation(rec, mk_result(e, l, genome=g),
                          report=shared_report)
    out = report_run(rec.run_dir)
    lines = out["pareto"].read_text().splitlines()
    assert lines[0] == "energy,latency,cores_l0,axis_l0,cores_l1,axis_l1"
    got = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert got == [("1.0", "4.0"), ("2.0", "2.0"), ("4.0", "1.0")]

    # against a brute-force front: ties, a point shared by two genomes, a
    # repeated genome and an infeasible row that beats every feasible one
    more = [(2.0, 3.0, (1, 0, 1, 4)), (1.0, 4.0, (1, 1, 1, 1)),
            (0.5, 9.0, (1, 1, 1, 2)), (4.0, 1.0, (1, 0, 1, 0))]
    for (e, l, g) in more:
        record_evaluation(rec, mk_result(e, l, genome=g),
                          report=shared_report)
    record_evaluation(rec, mk_result(0.1, 0.1, violation=3.0,
                                     genome=(2, 0, 1, 0)))
    rows = pts + more
    brute = {(e, l, g) for (e, l, g) in rows
             if not any(e2 <= e and l2 <= l and (e2, l2) != (e, l)
                        for (e2, l2, _) in rows)}
    lines = report_run(rec.run_dir)["pareto"].read_text().splitlines()[1:]
    got = [(float(f[0]), float(f[1]), tuple(int(v) for v in f[2:]))
           for f in (l.split(",") for l in lines)]
    assert len(got) == len(set(got)) and set(got) == brute
    assert [p[:2] for p in got] == sorted(p[:2] for p in got)


def test_finalize_appends_index_and_closes(tmp_path, shared_report):
    root = tmp_path / "experiments"
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, mk_result(10.0, 5.0), report=shared_report)
    finalize_run(rec)
    runs = list_runs(root)
    assert len(runs) == 1
    assert runs[0]["run_id"] == rec.run_dir.name
    assert runs[0]["app"] == "toy"
    assert float(runs[0]["best_energy"]) == 10.0
    assert int(runs[0]["n_evaluations"]) == 1
    from pathlib import Path
    assert Path(runs[0]["path"]).is_dir()
    with pytest.raises(AnalyticsError):
        record_evaluation(rec, mk_result(1.0, 1.0), report=shared_report)
    with pytest.raises(AnalyticsError):
        finalize_run(rec)
    # second run appends a second row
    rec2 = open_toy_run(tmp_path, seed=8)
    record_evaluation(rec2, mk_result(12.0, 5.0), report=shared_report)
    finalize_run(rec2)
    assert len(list_runs(root)) == 2


def test_finalize_without_feasible_evaluation_indexes_inf(tmp_path):
    root = tmp_path / "experiments"
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, mk_result(1e18, 1e18, violation=512.0))
    record_generation(rec, 0)
    finalize_run(rec)
    assert rec.closed
    runs = list_runs(root)
    assert [(r["run_id"], r["n_evaluations"], r["best_energy"],
             r["best_latency"]) for r in runs] == [
        (rec.run_dir.name, "1", "inf", "inf")]
    # no reports without a feasible row; the Opt traces are still there
    assert not (rec.sum_dir / "pareto.csv").exists()
    assert rec.energy_opt_path.read_text().splitlines()[1].startswith("0,inf,inf")


def test_sweep_report_relative_to_worst(tmp_path, shared_report):
    recs = {}
    for (label, energy) in (("fps30", 60.0), ("fps0", 40.0)):
        rec = open_toy_run(tmp_path, seed=len(recs))
        record_evaluation(rec, mk_result(energy, 5.0), report=shared_report)
        finalize_run(rec)
        recs[label] = rec.run_dir
    out = tmp_path / "sweep.csv"
    sweep_report(recs, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "run,min_energy,relative_energy"
    body = dict((l.split(",")[0], float(l.split(",")[2])) for l in lines[1:])
    assert body["fps30"] == 1.0
    assert body["fps0"] == pytest.approx(40.0 / 60.0)


def test_report_errors(tmp_path, shared_report):
    rec = open_toy_run(tmp_path)
    with pytest.raises(AnalyticsError):
        report_run(rec.run_dir)  # no rows at all
    record_evaluation(rec, mk_result(1e18, 1e18, violation=7.0),
                      report=shared_report)
    with pytest.raises(AnalyticsError):
        report_run(rec.run_dir)  # rows, but none feasible
    with pytest.raises(AnalyticsError):
        read_evaluations(tmp_path / "nowhere")


def test_list_runs_empty_root(tmp_path):
    assert list_runs(tmp_path) == []
