"""Command-line front end: simulate one mapping, run a search, compare
end signals, regenerate reports.

Output roots resolve in order: --out flag, NEUROMAP_OUT_ROOT environment
variable, then ./runs (simulate) or ./experiments (optimize). Exit codes:
0 success, 1 domain or I/O failure (and a flagged distortion for
`compare`), 2 usage errors (argparse), 130 interrupted (Ctrl-C); an
interrupted `optimize` first finalizes the generations it recorded.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .analytics import (
    SNAPSHOT_POLICIES,
    _stamp,
    attach,
    finalize_run,
    open_run,
    report_run,
    sweep_report,
)
from .configio import convert
from .fidelity import distortion_flag, load_end_signal, xcorr_score
from .mesh import SCHEMES, compress, place
from .optimize import ALGOS, RUNNERS, EvalContext, GenomeSpace, check_search, load_algo_params
from .partition import (
    AXES,
    STYLES,
    LayerSplit,
    PartitionSpec,
    build_mapping,
    load_mapping,
)
from .simcost import (
    HardwareConfig,
    load_hw_config,
    simulate,
    write_run_files,
)
from .workload import load_network, load_trace, packaged_config, retime_trace, synth_trace


class CliError(ValueError):
    pass


def _out_root(args, default_leaf: str) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("NEUROMAP_OUT_ROOT")
    if env:
        return Path(env)
    return Path.cwd() / default_leaf


def _load_hw(args) -> HardwareConfig:
    path = args.hw or packaged_config("default_hw.prm")
    return load_hw_config(path)


def _build_trace(args, model):
    # the seed also seeds the search; numpy's own message names no flag
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    fps = args.fps if args.fps is not None else float(model.frame_rate_fps)
    if args.trace:
        trace = load_trace(args.trace)
        if args.fps is not None and args.fps != trace.fps:
            trace = retime_trace(trace, fps)
        return trace
    return synth_trace(model, n_frames=args.frames, fps=fps, seed=args.seed)


def _parse_per_layer(raw: str, n_layers: int, kind: str, cast):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) == 1:
        parts = parts * n_layers
    if len(parts) != n_layers:
        raise CliError(f"--{kind} needs 1 or {n_layers} comma-separated "
                       f"values, got {len(parts)}")
    return [convert(p, cast, "command line", f"--{kind}", CliError) for p in parts]


def _spec_from_flags(args, model) -> PartitionSpec:
    n = len(model.layers)
    cores = _parse_per_layer(args.cores_per_layer, n, "cores-per-layer", int)
    axes = _parse_per_layer(args.axis, n, "axis", str)
    return PartitionSpec(tuple(
        LayerSplit(n_cores=c, axis=a, style=args.style)
        for c, a in zip(cores, axes)))


def cmd_simulate(args) -> int:
    model = load_network(args.workload)
    hw = _load_hw(args)
    trace = _build_trace(args, model)
    if args.mapping:
        mapping = load_mapping(args.mapping)
    else:
        spec = _spec_from_flags(args, model)
        mapping = build_mapping(model, spec, m_max=hw.mem_per_core,
                                enforce_cap=False)
    n = mapping.n_cores_total
    placement = place(n, compress(n, args.scheme))
    report = simulate(model, mapping, placement, hw, trace)
    outdir = _out_root(args, "runs")
    if not args.out:
        outdir = outdir / f"sim_{_stamp()}"
    settings = {"workload": str(args.workload), "scheme": args.scheme,
                "fps": repr(trace.fps), "frames": str(trace.n_frames),
                "seed": str(args.seed), "cores": str(n)}
    write_run_files(report, outdir, settings=settings,
                    snapshot_every=args.snapshot_every)
    print(f"run_dir = {outdir}")
    print(f"cores = {n} mesh = {placement.rows}x{placement.cols}")
    print(f"total_energy = {report.total_energy!r}")
    print(f"latency = {report.latency_end_to_end!r}")
    print(f"throughput = {report.throughput!r}")
    return 0


def _parse_menu(raw: str | None):
    if not raw:
        return None
    return tuple(convert(p.strip(), int, "command line", "--npes-menu", CliError)
                 for p in raw.split(",") if p.strip())


def cmd_optimize(args) -> int:
    model = load_network(args.workload)
    hw = _load_hw(args)
    trace = _build_trace(args, model)
    params_path = args.params or packaged_config(f"{args.algo}.prm")
    params = load_algo_params(params_path)
    overrides = {"algo": args.algo}
    if args.generations is not None:
        overrides["generations"] = args.generations
    if args.population is not None:
        overrides["population"] = args.population
    params = replace(params, **overrides)

    objective_names = tuple(p.strip() for p in args.objectives.split(",")
                            if p.strip())
    space = GenomeSpace(n_layers=len(model.layers), c_max=args.c_max,
                        npes_menu=_parse_menu(args.npes_menu))
    ctx = EvalContext(model=model, trace=trace, base_hw=hw, space=space,
                      scheme=args.scheme, objective_names=objective_names)
    check_search(args.algo, ctx, params, args.workers)

    root = _out_root(args, "experiments")
    app = args.app or model.name
    run_settings = {"workload": str(args.workload), "scheme": args.scheme,
                    "fps": repr(trace.fps), "frames": str(trace.n_frames),
                    "workers": str(args.workers),
                    "objectives": ",".join(objective_names),
                    "c_max": str(args.c_max),
                    "npes_menu": args.npes_menu or ""}
    record = open_run(root, app, args.algo, args.seed, params, hw,
                      run_settings=run_settings,
                      gene_names=space.gene_names(), policy=args.policy,
                      sample_every=args.sample_every)
    try:
        found, history = RUNNERS[args.algo](
            ctx, params, seed=args.seed, workers=args.workers,
            on_generation=attach(record, ctx))
    except KeyboardInterrupt:
        # keep what the finished generations recorded, reports and all
        finalize_run(record)
        print(f"run_dir = {record.run_dir}")
        return 130
    finalize_run(record)
    print(f"run_dir = {record.run_dir}")
    if args.algo == "nsga2":
        print(f"front_size = {len(found.members)}")
        print(f"hypervolume = {history[-1]!r}")
        for member in found.front()[:10]:
            print(f"  energy = {member.objectives.energy!r} "
                  f"latency = {member.objectives.latency!r} "
                  f"genome = {member.genome}")
    else:
        print(f"best_energy = {found.objectives.energy!r}")
        print(f"best_latency = {found.objectives.latency!r}")
        print(f"best_genome = {found.genome}")
        print(f"best_scalar = {history[-1]!r}")
    return 0


def cmd_compare(args) -> int:
    sig_a = load_end_signal(args.a, args.dt)
    sig_b = load_end_signal(args.b, args.dt)
    peak, shift_ms = xcorr_score(sig_a, sig_b)
    flagged = distortion_flag(peak, shift_ms, min_peak=args.min_peak,
                              max_shift_ms=args.max_shift_ms)
    print(f"peak = {peak!r}")
    print(f"shift_ms = {shift_ms!r}")
    print(f"distorted = {flagged}")
    return 1 if flagged else 0


def cmd_report(args) -> int:
    if args.sweep:
        if not args.out:
            raise CliError("--sweep needs --out FILE for the table")
        runs = {}
        for item in args.sweep:
            if "=" not in item:
                raise CliError(f"--sweep entries are LABEL=RUN_DIR, got {item!r}")
            label, path = item.split("=", 1)
            if label in runs:
                raise CliError(f"--sweep label {label!r} given twice")
            runs[label] = Path(path)
        sweep_report(runs, args.out)
        print(f"wrote {args.out}")
        return 0
    if not args.run:
        raise CliError("report needs --run DIR or --sweep LABEL=DIR ...")
    out = report_run(args.run, group_key=args.group_key)
    for name in sorted(out):
        print(f"{name} = {out[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuromap",
        description="Map event-driven network workloads onto a multicore "
                    "mesh: simulate, optimize, compare, report.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--workload", required=True,
                       help="network description file (.net)")
        p.add_argument("--hw", default=None,
                       help="hardware config .prm (default: shipped baseline)")
        p.add_argument("--trace", default=None,
                       help="input event trace csv (default: synthesize)")
        p.add_argument("--frames", type=int, default=10,
                       help="frames to synthesize when no --trace (default 10)")
        p.add_argument("--fps", type=float, default=None,
                       help="frame rate; 0 = event-driven (default: workload's)")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
        p.add_argument("--scheme", choices=SCHEMES, default="strict-area",
                       help="mesh compression scheme (default strict-area)")
        p.add_argument("--out", default=None,
                       help="output directory root (default $NEUROMAP_OUT_ROOT)")

    sim = sub.add_parser("simulate", help="simulate one mapping")
    common_io(sim)
    sim.add_argument("--mapping", default=None,
                     help="mapping csv produced by save_mapping")
    sim.add_argument("--cores-per-layer", default="1",
                     help="cores per layer: one int or comma list (default 1)")
    sim.add_argument("--axis", default="layer",
                     help=f"partition axis per layer, from {AXES} (default layer)")
    sim.add_argument("--style", choices=STYLES, default="homogeneous",
                     help="partition style (default homogeneous)")
    sim.add_argument("--snapshot-every", type=float, default=None,
                     help="snapshot sample interval (default: duration/50)")
    sim.set_defaults(func=cmd_simulate)

    opt = sub.add_parser("optimize", help="search mappings/architectures")
    common_io(opt)
    opt.add_argument("--algo", choices=ALGOS, required=True,
                     help="search algorithm")
    opt.add_argument("--params", default=None,
                     help="algorithm .prm (default: shipped per-algo file)")
    opt.add_argument("--workers", type=int, default=1,
                     help="parallel evaluation processes (default 1)")
    opt.add_argument("--generations", type=int, default=None,
                     help="override generations from the params file")
    opt.add_argument("--population", type=int, default=None,
                     help="override population from the params file")
    opt.add_argument("--c-max", type=int, default=8,
                     help="max cores per layer gene bound (default 8)")
    opt.add_argument("--npes-menu", default=None,
                     help="comma ints enabling an NPE-count gene, e.g. 1,2,4,8")
    opt.add_argument("--objectives", default="energy,latency",
                     help="comma objectives (default energy,latency)")
    opt.add_argument("--policy", choices=SNAPSHOT_POLICIES,
                     default="bests", help="snapshot policy (default bests)")
    opt.add_argument("--sample-every", type=int, default=10,
                     help="snapshot stride for --policy sampled (default 10)")
    opt.add_argument("--app", default=None,
                     help="application label for the run tree (default: "
                          "workload name)")
    opt.set_defaults(func=cmd_optimize)

    cmp_ = sub.add_parser("compare", help="cross-correlate two end signals")
    cmp_.add_argument("--a", required=True, help="first output_snapshot.csv")
    cmp_.add_argument("--b", required=True, help="second output_snapshot.csv")
    cmp_.add_argument("--dt", type=float, default=1.0,
                      help="resample interval (default 1.0)")
    cmp_.add_argument("--min-peak", type=float, default=0.85,
                      help="distortion threshold on the peak (default 0.85)")
    cmp_.add_argument("--max-shift-ms", type=float, default=100.0,
                      help="distortion threshold on |shift| in ms (default 100)")
    cmp_.set_defaults(func=cmd_compare)

    rep = sub.add_parser("report", help="regenerate report files for a run")
    rep.add_argument("--run", default=None, help="run directory")
    rep.add_argument("--group-key", default="n_cores",
                     help="evaluations.csv column for the relative-energy "
                          "table (default n_cores)")
    rep.add_argument("--sweep", nargs="+", default=None,
                     metavar="LABEL=RUN_DIR",
                     help="cross-run relative-energy table instead")
    rep.add_argument("--out", default=None,
                     help="output file for --sweep")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size asked for; a bare one is empty
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
