import csv
import re
from dataclasses import replace
from pathlib import Path

import pytest

from neuromap import analytics
from neuromap.analytics import (
    EVAL_FIXED_COLUMNS,
    AnalyticsError,
    attach,
    finalize_run,
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
    evaluate,
    load_algo_params,
    run_ga,
    run_nsga2,
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


@pytest.fixture
def snap_ctx(monkeypatch, shared_report):
    """A context under which every flagged evaluation snapshots
    shared_report, carrying the evaluation's own energy and latency,
    instead of re-simulating its genome."""
    flagged = []
    channels = analytics._channels

    def noting(record, result, idx):
        out = channels(record, result, idx)
        if out:
            flagged.append(result.objectives)
        return out

    def stand_in(genome, ctx):
        obj = flagged.pop(0)
        return replace(shared_report, total_energy=obj.energy,
                       latency_end_to_end=obj.latency)
    monkeypatch.setattr(analytics, "_channels", noting)
    monkeypatch.setattr(analytics, "simulate_genome", stand_in)
    return toy_ctx()


def list_runs(root) -> list[dict[str, str]]:
    """Master index rows, oldest first (empty list when absent)."""
    path = Path(root) / "index.csv"
    if not path.exists():
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


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


def test_open_run_rejects_bad_policy_and_duplicate(tmp_path, monkeypatch):
    with pytest.raises(AnalyticsError):
        open_toy_run(tmp_path, policy="weekly")
    # two runs opened within one second share a stamp
    monkeypatch.setattr(analytics, "_stamp", lambda: "2026_01_02_03-04-05")
    open_toy_run(tmp_path)
    with pytest.raises(AnalyticsError):
        open_toy_run(tmp_path)


def test_record_evaluation_appends_rows(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, [mk_result(10.0, 5.0)], ctx=snap_ctx)
    header, rows = read_evaluations(rec.run_dir)
    assert len(rows) == 1
    row = rows[0]
    assert row["eval_index"] == 0
    assert row["generation"] == 0
    assert row["energy"] == 10.0
    assert row["latency"] == 5.0
    assert row["cores_l0"] == 1
    assert row["error"] == ""


def test_bests_policy_channels(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, [mk_result(10.0, 5.0)], ctx=snap_ctx)
    e_dirs = lambda: sorted(p.name for p in (rec.run_dir / "Energy").iterdir())
    l_dirs = lambda: sorted(p.name for p in (rec.run_dir / "Latency").iterdir())
    assert len(e_dirs()) == 1 and len(l_dirs()) == 1
    # improves latency only
    record_evaluation(rec, [mk_result(12.0, 3.0)], ctx=snap_ctx)
    assert len(e_dirs()) == 1 and len(l_dirs()) == 2
    # improves neither: row logged, no snapshots
    record_evaluation(rec, [mk_result(12.0, 4.0)], ctx=snap_ctx)
    assert len(e_dirs()) == 1 and len(l_dirs()) == 2
    _, rows = read_evaluations(rec.run_dir)
    assert len(rows) == 3
    # snapshot dirs carry the full file set and end with the eval index
    snap = (rec.run_dir / "Energy") / e_dirs()[0]
    assert {p.name for p in snap.iterdir()} == SNAPSHOT_FILES
    assert snap.name.endswith("_0")
    assert rec.best_energy.objectives.energy == 10.0
    assert rec.best_latency.objectives.latency == 3.0


def test_doubly_flagged_snapshot_is_written_once(tmp_path, monkeypatch):
    writes = []
    real = analytics.write_run_files

    def counted(report, outdir, **kw):
        writes.append(outdir)
        real(report, outdir, **kw)
    monkeypatch.setattr(analytics, "write_run_files", counted)
    rec = open_toy_run(tmp_path)
    # the first feasible evaluation flags both channels; its snapshot
    # comes from a re-simulation with the log on
    ctx = toy_ctx()
    record_evaluation(rec, [evaluate((1, 0, 1, 0), ctx)], ctx=ctx)
    (energy,) = (rec.run_dir / "Energy").iterdir()
    (latency,) = (rec.run_dir / "Latency").iterdir()
    assert len(writes) == 1
    assert energy.name == latency.name
    assert {p.name for p in latency.iterdir()} == SNAPSHOT_FILES
    for name in SNAPSHOT_FILES:
        assert (latency / name).read_bytes() == (energy / name).read_bytes()
    # the log was on: the last snapshot row sums to the total energy
    total = float((energy / "summary.txt").read_text().splitlines()[0]
                  .split(" = ")[1])
    last = [float(v) for name in ("snapshots_cores.csv",
                                  "snapshots_interconnects.csv")
            for v in (energy / name).read_text().splitlines()[-1].split(",")[1:]]
    assert sum(last) == pytest.approx(total, rel=1e-9)


def test_all_policy_snapshots_everything(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path, policy="all")
    for k in range(3):
        record_evaluation(rec, [mk_result(10.0 + k, 5.0)], ctx=snap_ctx)
    assert len(list((rec.run_dir / "Energy").iterdir())) == 3
    assert len(list((rec.run_dir / "Latency").iterdir())) == 3


def test_sampled_policy(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=2)
    for k in range(5):
        record_evaluation(rec, [mk_result(10.0 + k, 5.0)], ctx=snap_ctx)
    assert len(list((rec.run_dir / "Energy").iterdir())) == 3  # 0, 2, 4
    assert len(list((rec.run_dir / "Latency").iterdir())) == 3


def test_infeasible_logged_never_snapshotted(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path, policy="all")
    record_evaluation(rec, [mk_result(1e18, 1e18, violation=4096.0)],
                      ctx=snap_ctx)
    _, rows = read_evaluations(rec.run_dir)
    assert len(rows) == 1
    assert float(rows[0]["violation"]) == 4096.0
    assert list((rec.run_dir / "Energy").iterdir()) == []
    assert rec.best_energy is None


def test_flagged_eval_needs_report_or_ctx(tmp_path):
    # the context re-simulates a flagged genome on demand
    rec = open_toy_run(tmp_path)
    ctx = toy_ctx()
    record_evaluation(rec, [evaluate((1, 0, 1, 0), ctx)], ctx=ctx)
    snap = next((rec.run_dir / "Energy").iterdir())
    assert {p.name for p in snap.iterdir()} == SNAPSHOT_FILES


@pytest.mark.parametrize("field", ["total_energy", "latency_end_to_end"])
def test_a_snapshot_that_re_simulates_differently_is_an_error(tmp_path, monkeypatch,
                                                               field):
    ctx = toy_ctx()
    result = evaluate((1, 0, 1, 0), ctx)
    report = simulate_genome(result.genome, ctx)
    changed = replace(report, **{field: getattr(report, field) * 2})
    monkeypatch.setattr(analytics, "simulate_genome", lambda genome, ctx: changed)
    rec = open_toy_run(tmp_path)
    with pytest.raises(AnalyticsError, match=r"^evaluation 0 re-simulates to "
                       r"\(energy, latency\) \(.+\), not \(.+\)$"):
        record_evaluation(rec, [result], ctx=ctx)
    assert [list((rec.run_dir / c).iterdir()) for c in ("Energy", "Latency")] == [[], []]


def test_record_generation_running_bests(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path)
    record_generation(rec, 0)  # nothing feasible yet
    record_evaluation(rec, [mk_result(10.0, 5.0)], ctx=snap_ctx)
    record_generation(rec, 1)
    record_evaluation(rec, [mk_result(8.0, 6.0, genome=(2, 0, 1, 0))],
                      ctx=snap_ctx)
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
    assert [r["generation"] for r in rows] == [1, 2]


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


def _run_files(rec) -> dict:
    """Every file of a finished run by its path under the run directory,
    with the timestamps (evaluations.csv's column, the directory stamps)
    dropped."""
    out = {}
    for path in sorted(rec.run_dir.rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(rec.run_dir))
            out[re.sub(r"\d{4}_\d{2}_\d{2}_\d{2}-\d{2}-\d{2}", "", rel)] = (
                path.read_bytes())
    col = EVAL_FIXED_COLUMNS.index("timestamp")
    out["evaluations.csv"] = [line.split(",")[:col] + line.split(",")[col + 1:]
                              for line in out["evaluations.csv"].decode().splitlines()]
    return out


@pytest.mark.parametrize("policy", ["bests", "all", "sampled"])
def test_generation_at_once_matches_one_by_one_recording(tmp_path, policy):
    ctx = toy_ctx()
    params = AlgoParams(algo="nsga2", population=6, generations=3, offspring=6)
    recs = [open_run(tmp_path / tag, "toy", "nsga2", 3, params, HW,
                     gene_names=ctx.space.gene_names(), policy=policy,
                     sample_every=4) for tag in ("gen", "one")]
    at_once = attach(recs[0], ctx)

    def on_generation(gen, results, archive):
        at_once(gen, results, archive)
        for r in results:
            record_evaluation(recs[1], [r], ctx=ctx)
        record_generation(recs[1], gen)
    run_nsga2(ctx, params, seed=3, on_generation=on_generation)
    for rec in recs:
        finalize_run(rec)
    gen, one = (_run_files(rec) for rec in recs)
    assert len(gen["evaluations.csv"]) == 1 + 6 * 4
    assert any(name.startswith("Latency/") for name in gen)
    assert gen == one


def test_report_single_point_relative_one(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, [mk_result(42.0, 7.0)], ctx=snap_ctx)
    out = report_run(rec.run_dir)
    lines = out["plot_relative_energy"].read_text().splitlines()
    assert lines == ["n_cores,energy,relative_energy", "2,42.0,1.0"]


def test_report_linear_core_sweep_monotone(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    for c in (3, 1, 4, 2, 5):
        record_evaluation(rec, [mk_result(100.0 * c, 10.0 / c, n_cores=c,
                                          genome=(c, 0, 1, 0), mesh=(1, c))],
                          ctx=snap_ctx)
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


def test_report_idempotent_byte_identical(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    for c in (2, 1, 3):
        record_evaluation(rec, [mk_result(50.0 * c, 9.0 - c, n_cores=c,
                                          genome=(c, 0, 1, 0), mesh=(1, c))],
                          ctx=snap_ctx)
    first = {k: p.read_bytes() for k, p in report_run(rec.run_dir).items()}
    second = {k: p.read_bytes() for k, p in report_run(rec.run_dir).items()}
    assert first == second


def test_report_group_by_gene_column(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    for (g, e) in (((1, 0, 1, 0), 30.0), ((1, 0, 1, 1), 20.0),
                   ((1, 0, 1, 1), 25.0)):
        record_evaluation(rec, [mk_result(e, 5.0, genome=g)],
                          ctx=snap_ctx)
    out = report_run(rec.run_dir, group_key="axis_l1")
    lines = out["plot_relative_energy"].read_text().splitlines()
    assert lines[0] == "axis_l1,energy,relative_energy"
    assert lines[1] == "0,30.0,1.0"
    assert lines[2] == "1,20.0," + repr(20.0 / 30.0)


def test_relative_energy_table_rejects_unknown_key():
    with pytest.raises(AnalyticsError):
        relative_energy_table([{"energy": "1.0", "violation": "0.0"}], "bogus")


def test_pareto_csv_holds_non_dominated_rows(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path, policy="sampled", sample_every=10**9)
    pts = [(4.0, 1.0, (1, 0, 1, 0)), (1.0, 4.0, (1, 0, 1, 1)),
           (2.0, 2.0, (1, 0, 1, 2)), (3.0, 3.0, (1, 0, 1, 3)),
           (2.0, 2.0, (1, 0, 1, 2))]  # exact duplicate collapses
    for (e, l, g) in pts:
        record_evaluation(rec, [mk_result(e, l, genome=g)],
                          ctx=snap_ctx)
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
        record_evaluation(rec, [mk_result(e, l, genome=g)],
                          ctx=snap_ctx)
    record_evaluation(rec, [mk_result(0.1, 0.1, violation=3.0,
                                      genome=(2, 0, 1, 0))], ctx=snap_ctx)
    rows = pts + more
    brute = {(e, l, g) for (e, l, g) in rows
             if not any(e2 <= e and l2 <= l and (e2, l2) != (e, l)
                        for (e2, l2, _) in rows)}
    lines = report_run(rec.run_dir)["pareto"].read_text().splitlines()[1:]
    got = [(float(f[0]), float(f[1]), tuple(int(v) for v in f[2:]))
           for f in (l.split(",") for l in lines)]
    assert len(got) == len(set(got)) and set(got) == brute
    assert [p[:2] for p in got] == sorted(p[:2] for p in got)


def test_finalize_appends_index_and_closes(tmp_path, snap_ctx):
    root = tmp_path / "experiments"
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, [mk_result(10.0, 5.0)], ctx=snap_ctx)
    finalize_run(rec)
    runs = list_runs(root)
    assert len(runs) == 1
    assert runs[0]["run_id"] == rec.run_dir.name
    assert runs[0]["app"] == "toy"
    assert float(runs[0]["best_energy"]) == 10.0
    assert int(runs[0]["n_evaluations"]) == 1
    assert Path(runs[0]["path"]).is_dir()
    with pytest.raises(AnalyticsError):
        record_evaluation(rec, [mk_result(1.0, 1.0)], ctx=snap_ctx)
    with pytest.raises(AnalyticsError):
        finalize_run(rec)
    # second run appends a second row
    rec2 = open_toy_run(tmp_path, seed=8)
    record_evaluation(rec2, [mk_result(12.0, 5.0)], ctx=snap_ctx)
    finalize_run(rec2)
    assert len(list_runs(root)) == 2


def test_finalize_without_feasible_evaluation_indexes_inf(tmp_path):
    root = tmp_path / "experiments"
    rec = open_toy_run(tmp_path)
    record_evaluation(rec, [mk_result(1e18, 1e18, violation=512.0)], ctx=toy_ctx())
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


def test_run_stopped_before_its_first_generation_keeps_header_only_files(tmp_path):
    rec = open_toy_run(tmp_path)
    finalize_run(rec)
    genes = b"cores_l0,axis_l0,cores_l1,axis_l1\r\n"
    assert rec.energy_opt_path.read_bytes() == b"generation,energy,latency," + genes
    assert rec.latency_opt_path.read_bytes() == b"generation,energy,latency," + genes
    assert rec.evaluations_path.read_bytes() == (
        ",".join(EVAL_FIXED_COLUMNS).encode() + b"," + genes)
    assert [r["n_evaluations"] for r in list_runs(tmp_path / "experiments")] == ["0"]


def test_sweep_report_relative_to_worst(tmp_path, snap_ctx):
    recs = {}
    for (label, energy) in (("fps30", 60.0), ("fps0", 40.0)):
        rec = open_toy_run(tmp_path, seed=len(recs))
        record_evaluation(rec, [mk_result(energy, 5.0)], ctx=snap_ctx)
        finalize_run(rec)
        recs[label] = rec.run_dir
    out = tmp_path / "sweep.csv"
    sweep_report(recs, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "run,min_energy,relative_energy"
    body = dict((l.split(",")[0], float(l.split(",")[2])) for l in lines[1:])
    assert body["fps30"] == 1.0
    assert body["fps0"] == pytest.approx(40.0 / 60.0)


def test_report_errors(tmp_path, snap_ctx):
    rec = open_toy_run(tmp_path)
    with pytest.raises(AnalyticsError):
        report_run(rec.run_dir)  # no rows at all
    record_evaluation(rec, [mk_result(1e18, 1e18, violation=7.0)],
                      ctx=snap_ctx)
    with pytest.raises(AnalyticsError):
        report_run(rec.run_dir)  # rows, but none feasible
    with pytest.raises(AnalyticsError):
        read_evaluations(tmp_path / "nowhere")


def test_list_runs_empty_root(tmp_path):
    assert list_runs(tmp_path) == []
