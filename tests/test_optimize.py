import itertools
import math
import re
import signal
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromap import optimize
from neuromap.configio import ConfigFormatError
from neuromap.mesh import compress, place
from neuromap.optimize import (
    ALGOS,
    PENALTY_BASE,
    RUNNERS,
    STRUCTURAL_VIOLATION,
    AlgoParams,
    EvalContext,
    EvalResult,
    GenomeSpace,
    Objectives,
    OptimizeError,
    ParetoArchive,
    _reflect,
    check_search,
    crowding_distance,
    decode,
    decode_model,
    evaluate,
    evaluate_batch,
    hypervolume_2d,
    load_algo_params,
    non_dominated_sort,
    polynomial_mutation,
    rank_key,
    retime_trace,
    run_ga,
    run_nsga2,
    run_pso,
    sbx_crossover,
    scalarize,
    simulate_genome,
)
from neuromap.partition import AXES, LayerSplit, PartitionError, build_mapping
from neuromap.simcost import HardwareConfig, SimError, simulate
from neuromap.workload import (
    Bitwidths,
    EventTrace,
    Layer,
    NetworkModel,
    WorkloadError,
    synth_trace,
)


def toy_model(width2=5):
    layers = (
        Layer(id=0, kind="conv", channels=4, height=2, width=3, weights=0,
              biases=0, is_snn=True, avg_event_rate=0.8),
        Layer(id=1, kind="conv", channels=4, height=2, width=3, weights=96,
              biases=4, is_snn=True, avg_event_rate=0.5),
        Layer(id=2, kind="dense", channels=1, height=1, width=width2,
              weights=24 * width2, biases=width2, is_snn=True,
              avg_event_rate=0.5),
    )
    return NetworkModel(name="toy", layers=layers, edges=((0, 1), (1, 2)))


HW = HardwareConfig(npes_per_core=2, e_npe_op=1.0, e_ctrl_event=2.0,
                    e_hop_per_flit=0.5, e_inject=1.0, p_static_core=3.0,
                    t_npe_op=1.0, t_hop=1.0, t_inject=1.0)


@pytest.fixture(scope="module")
def ctx():
    m = toy_model()
    tr = synth_trace(m, n_frames=3, fps=0, seed=1)
    return EvalContext(model=m, trace=tr, base_hw=HW,
                       space=GenomeSpace(n_layers=3, c_max=4))


def full_space(n_layers=3, c_max=4):
    return GenomeSpace(
        n_layers=n_layers, c_max=c_max,
        npes_menu=(1, 2, 4), fps_menu=(0.0, 30.0),
        scheme_menu=("strict-area", "loose-area", "strict-square"))


# --- genome space ---

def test_gene_count_and_bounds():
    space = full_space()
    assert space.n_genes == 2 * 3 + 3
    lo, hi = space.bounds()
    assert list(lo[:6]) == [1, 0, 1, 0, 1, 0]
    assert list(hi[:6]) == [4, 3, 4, 3, 4, 3]
    assert list(hi[6:]) == [2, 1, 2]
    names = space.gene_names()
    assert names[:2] == ["cores_l0", "axis_l0"]
    assert names[6:] == ["npes", "fps", "scheme"]


def test_sample_within_bounds():
    space = full_space()
    rng = np.random.default_rng(3)
    lo, hi = space.bounds()
    for _ in range(200):
        g = space.sample(rng)
        space.validate_genome(g)
        assert all(a <= v <= b for v, a, b in zip(g, lo, hi))


def test_space_rejects_duplicate_menu_entries():
    with pytest.raises(OptimizeError):
        GenomeSpace(n_layers=1, npes_menu=(2, 2))


@pytest.mark.parametrize("name", list(optimize.MENU_GENES))
def test_space_rejects_an_empty_menu(name):
    with pytest.raises(OptimizeError, match=f"^{name} has no entries$"):
        GenomeSpace(n_layers=1, **{name: ()})


def test_every_menu_field_has_a_gene_row():
    # a *_menu field without a MENU_GENES row would be accepted and ignored
    names = {f.name for f in fields(GenomeSpace)}
    assert names == {"n_layers", "c_max", *optimize.MENU_GENES}


def test_unknown_scheme_is_rejected_at_construction():
    with pytest.raises(OptimizeError, match="scheme_menu"):
        GenomeSpace(n_layers=1, scheme_menu=("strict-area", "bogus"))


def test_validate_genome_rejects_bad_length_and_range():
    space = GenomeSpace(n_layers=2, c_max=4)
    with pytest.raises(OptimizeError):
        space.validate_genome((1, 0, 1))
    with pytest.raises(OptimizeError):
        space.validate_genome((5, 0, 1, 0))
    with pytest.raises(OptimizeError):
        space.validate_genome((1, 4, 1, 0))


# --- decode ---

def test_decode_takes_what_the_genes_index_1000_random_genomes():
    m = toy_model()
    space = full_space()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        g = space.sample(rng)
        spec, hw, scheme, fps = decode(g, m, HW, space)
        assert [(s.n_cores, s.axis) for s in spec.splits] == [
            (g[2 * i], AXES[g[2 * i + 1]]) for i in range(3)]
        menus = [getattr(space, name) for name in optimize.MENU_GENES]
        assert [menu[v] for menu, v in zip(menus, g[6:])] == [
            hw.npes_per_core, fps, scheme]


def test_decode_semantics():
    m = toy_model()
    space = full_space()
    g = (2, 1, 3, 2, 1, 0,   # per-layer genes
         2,  # npes -> 4
         1,  # fps -> 30.0
         1)  # scheme -> loose-area
    assert decode_model(g, m, space) is m
    spec, hw, scheme, fps = decode(g, m, HW, space)
    assert [s.n_cores for s in spec.splits] == [2, 3, 1]
    assert [s.axis for s in spec.splits] == ["channel", "height", "layer"]
    assert hw.npes_per_core == 4
    assert hw.e_npe_op == HW.e_npe_op * 4
    assert hw.p_static_core == HW.p_static_core * 4
    assert fps == 30.0
    assert scheme == "loose-area"


def test_decode_defaults_without_menus():
    m = toy_model()
    space = GenomeSpace(n_layers=3, c_max=4)
    spec, hw, scheme, fps = decode((1, 0, 1, 0, 1, 0), m, HW, space,
                                   default_scheme="strict-square")
    assert hw == HW
    assert scheme == "strict-square"
    assert fps is None
    assert decode_model((1, 0, 1, 0, 1, 0), m, space) is m


# --- variation operators ---

@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=-50, max_value=50),
       st.integers(min_value=0, max_value=60))
def test_reflect_stays_in_bounds(x, lo, span):
    hi = lo + span
    v = _reflect(float(x), lo, hi)
    assert lo <= v <= hi


def test_reflect_identity_inside_bounds():
    for v in range(1, 9):
        assert _reflect(float(v), 1, 8) == v
    assert _reflect(0.0, 1, 8) == 2
    assert _reflect(9.0, 1, 8) == 7
    assert _reflect(5.0, 3, 3) == 3


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=4, max_size=4),
       st.lists(st.integers(min_value=1, max_value=8), min_size=4, max_size=4),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100)
def test_sbx_children_within_bounds(a, b, seed):
    lo = np.array([1, 1, 1, 1])
    hi = np.array([8, 8, 8, 8])
    rng = np.random.default_rng(seed)
    c1, c2 = sbx_crossover(tuple(a), tuple(b), lo, hi, eta=3.0, rng=rng)
    for child in (c1, c2):
        assert all(1 <= v <= 8 for v in child)


def test_sbx_identical_parents_pass_through():
    lo = np.array([1, 0])
    hi = np.array([8, 3])
    rng = np.random.default_rng(0)
    c1, c2 = sbx_crossover((3, 2), (3, 2), lo, hi, eta=3.0, rng=rng)
    assert c1 == (3, 2) and c2 == (3, 2)


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=5, max_size=5),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100)
def test_mutation_within_bounds(g, seed):
    lo = np.array([1] * 5)
    hi = np.array([8] * 5)
    rng = np.random.default_rng(seed)
    out = polynomial_mutation(tuple(g), lo, hi, eta=3.0, rng=rng, p_gene=1.0)
    assert all(1 <= v <= 8 for v in out)


def test_operators_deterministic_per_seed():
    lo = np.array([1] * 6)
    hi = np.array([9] * 6)
    a, b = (1, 5, 9, 2, 4, 7), (9, 3, 1, 8, 6, 2)
    out1 = sbx_crossover(a, b, lo, hi, 3.0, np.random.default_rng(42))
    out2 = sbx_crossover(a, b, lo, hi, 3.0, np.random.default_rng(42))
    assert out1 == out2
    m1 = polynomial_mutation(a, lo, hi, 3.0, np.random.default_rng(7), 1.0)
    m2 = polynomial_mutation(a, lo, hi, 3.0, np.random.default_rng(7), 1.0)
    assert m1 == m2


# --- evaluation ---

def test_evaluate_matches_direct_pipeline(ctx):
    g = (2, 1, 2, 2, 1, 0)
    res = evaluate(g, ctx)
    assert res.feasible
    spec, hw, scheme, _ = decode(g, ctx.model, ctx.base_hw, ctx.space)
    mapping = build_mapping(ctx.model, spec, m_max=hw.mem_per_core)
    placement = place(mapping.n_cores_total,
                      compress(mapping.n_cores_total, scheme))
    report = simulate(ctx.model, mapping, placement, hw, ctx.trace)
    assert res.objectives.energy == report.total_energy
    assert res.objectives.latency == report.latency_end_to_end
    assert res.n_cores == mapping.n_cores_total
    assert res.objectives.area == float(placement.rows * placement.cols)
    assert simulate_genome(g, ctx) == report


def test_evaluate_memory_violation(ctx):
    small_hw = replace(HW, mem_per_core=3000)
    small_ctx = replace(ctx, base_hw=small_hw)
    res = evaluate((1, 0, 1, 0, 1, 0), small_ctx)
    assert res.violation > 0
    assert res.objectives.energy >= PENALTY_BASE
    assert res.objectives.energy == PENALTY_BASE + res.violation
    # violation equals the worst core's overshoot in bits
    spec, hw, _, _ = decode((1, 0, 1, 0, 1, 0), ctx.model, small_hw, ctx.space)
    mapping = build_mapping(ctx.model, spec, m_max=hw.mem_per_core)
    worst = max(mapping.memory_by_core().values())
    assert res.violation == float(worst - 3000)


@settings(max_examples=80, deadline=None)
@given(neurons=st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                        max_size=4),
       cap=st.integers(min_value=0, max_value=3000), data=st.data())
def test_over_budget_is_the_filter_and_evaluate_reads_it(neurons, cap, data):
    layers = tuple(
        Layer(id=i, kind="dense", channels=1, height=1, width=n,
              weights=0 if i == 0 else neurons[i - 1] * n, biases=0 if i == 0 else n,
              is_snn=True, avg_event_rate=0.5)
        for i, n in enumerate(neurons))
    model = NetworkModel(name="chain", layers=layers,
                         edges=tuple((i, i + 1) for i in range(len(neurons) - 1)))
    space = GenomeSpace(n_layers=len(neurons), c_max=4)
    genome = tuple(data.draw(st.integers(min_value=int(a), max_value=int(b)))
                   for a, b in zip(*space.bounds()))
    ctx = EvalContext(model=model, trace=synth_trace(model, n_frames=2, fps=0, seed=0),
                      base_hw=HardwareConfig(mem_per_core=cap), space=space)
    res = evaluate(genome, ctx)
    spec, _, _, _ = decode(genome, model, ctx.base_hw, space)
    try:
        mapping = build_mapping(model, spec, m_max=cap)
    except PartitionError:
        assert res.violation == STRUCTURAL_VIOLATION
        return
    bits = mapping.memory_by_core()
    over = [(c, bits[c]) for c in sorted(bits) if bits[c] > cap]
    assert mapping.over_budget(cap) == over
    assert res.violation == (float(max(b for _, b in over) - cap) if over else 0.0)


def test_evaluate_structural_failure_is_penalty_not_crash():
    m = toy_model(width2=5)
    tr = synth_trace(m, n_frames=2, fps=0, seed=0)
    space = GenomeSpace(n_layers=3, c_max=8)
    ctx = EvalContext(model=m, trace=tr, base_hw=HW, space=space)
    # 8 width-wise parts of a 5-wide dense layer cannot be built
    res = evaluate((1, 0, 1, 0, 8, 3), ctx)
    assert res.violation == STRUCTURAL_VIOLATION
    assert res.error is not None
    assert not res.feasible


def test_evaluate_sim_error_is_penalty(shallow_ctx):
    # a trace that no design can replay fails the context instead (see
    # test_context_no_genome_can_use_is_rejected); congestion is per design
    res = evaluate((1, 0, 2, 0, 2, 0, 0, 1, 0), shallow_ctx)
    assert res.violation == STRUCTURAL_VIOLATION
    assert res.error == "core 3 inbox exceeded depth 2"


def test_evaluate_never_raises_across_space(ctx):
    rng = np.random.default_rng(5)
    space = full_space()
    full_ctx = EvalContext(model=ctx.model, trace=ctx.trace, base_hw=HW,
                           space=space)
    for _ in range(60):
        res = evaluate(space.sample(rng), full_ctx)
        assert isinstance(res, EvalResult)


def test_fidelity_penalty_objective(ctx):
    base = evaluate((1, 0, 1, 0, 1, 0), ctx)
    ref_report = simulate_genome((1, 0, 1, 0, 1, 0), ctx)
    ref_values = tuple(v for (_, v) in ref_report.end_signal)
    fctx = EvalContext(model=ctx.model, trace=ctx.trace, base_hw=HW,
                       space=ctx.space, reference=ref_values,
                       objective_names=("energy", "fidelity_penalty"))
    same = evaluate((1, 0, 1, 0, 1, 0), fctx)
    assert abs(same.objectives.fidelity_penalty) < 1e-9
    assert same.objectives.energy == base.objectives.energy
    # a mismatched reference costs fidelity
    shifted = tuple([0.0, 0.0] + list(ref_values))
    fctx2 = EvalContext(model=ctx.model, trace=ctx.trace, base_hw=HW,
                        space=ctx.space, reference=shifted,
                        objective_names=("energy", "fidelity_penalty"))
    moved = evaluate((1, 0, 1, 0, 1, 0), fctx2)
    assert moved.objectives.fidelity_penalty > 0


def test_unknown_objective_rejected(ctx):
    with pytest.raises(OptimizeError):
        EvalContext(model=ctx.model, trace=ctx.trace, base_hw=HW,
                    space=ctx.space, objective_names=("energy", "power"))


@pytest.mark.parametrize("names", [("energy", "energy"),
                                   ("energy", "latency", "energy")])
def test_repeated_objective_rejected(ctx, names):
    with pytest.raises(OptimizeError, match="^objective 'energy' given twice$"):
        replace(ctx, objective_names=names)


@pytest.mark.parametrize("menu, value, named", [
    ("npes_menu", 0, "npes_per_core must be >= 1"),
    ("fps_menu", -1.0, "trace fps must be >= 0 and finite, got -1.0"),
    ("fps_menu", math.nan, "trace fps must be >= 0 and finite, got nan"),
])
def test_hardware_menu_value_no_design_can_use_is_rejected(ctx, menu, value, named):
    space = replace(ctx.space, **{menu: (4, value)})
    with pytest.raises(OptimizeError) as exc:
        replace(ctx, space=space)
    assert str(exc.value) == f"{menu} value {value!r}: {named}"


@pytest.mark.parametrize("change, named", [
    ({"space": GenomeSpace(n_layers=2, c_max=4)},
     "genome space covers 2 layers, model has 3"),
    ({"scheme": "bogus"}, "unknown scheme 'bogus', expected one of "
                          "('strict-area', 'loose-area', 'strict-square')"),
    ({"trace": EventTrace(events=((0.0, 3, 16), (0.0, 24, 16)), fps=0.0, n_frames=1)},
     "trace event references input neuron 24, layer 0 has 24"),
], ids=["space-of-another-model", "unknown-scheme", "trace-past-the-input-layer"])
def test_context_no_genome_can_use_is_rejected(ctx, change, named):
    with pytest.raises(OptimizeError) as exc:
        replace(ctx, **change)
    assert str(exc.value) == named


def test_fidelity_objective_without_reference_rejected(ctx):
    with pytest.raises(OptimizeError, match="^fidelity_penalty needs a reference"):
        EvalContext(model=ctx.model, trace=ctx.trace, base_hw=HW, space=ctx.space,
                    objective_names=("energy", "fidelity_penalty"))


def test_check_search_names_what_cannot_run(ctx):
    params = AlgoParams(weights={"energy": 1.0})
    with pytest.raises(OptimizeError, match="^workers must be >= 1$"):
        check_search("ga", ctx, params, 0)
    one = replace(ctx, objective_names=("energy",))
    with pytest.raises(OptimizeError, match="^nsga2 needs at least 2 objectives$"):
        check_search("nsga2", one, params, 1)
    check_search("ga", one, params, 1)
    check_search("nsga2", ctx, params, 2)
    unweighted = replace(ctx, objective_names=("latency", "area"))
    with pytest.raises(OptimizeError, match="^pso needs a nonzero weight_<objective> "
                                            "for one of latency, area$"):
        check_search("pso", unweighted, params, 1)
    check_search("nsga2", unweighted, params, 1)


def test_retime_trace_preserves_content():
    m = toy_model()
    tr = synth_trace(m, n_frames=4, fps=30.0, seed=2)
    re0 = retime_trace(tr, 0.0)
    assert re0.fps == 0.0
    assert len(re0.events) == len(tr.events)
    assert [e[1:] for e in re0.events] == [e[1:] for e in tr.events]
    bursts = re0.frames()
    assert [b[0][0] for b in bursts] == list(map(float, range(len(bursts))))
    re2 = retime_trace(re0, 30.0)
    assert [e[1:] for e in re2.events] == [e[1:] for e in tr.events]
    assert re2.frames()[1][0][0] == pytest.approx(1 / 30.0)


# --- batch evaluation ---

def test_batch_empty(ctx):
    assert evaluate_batch([], ctx, workers=1) == []
    assert evaluate_batch([], ctx, workers=4) == []


def test_batch_lets_a_bug_propagate(ctx, monkeypatch):
    """Only domain errors become penalties; anything else is a bug and
    stops the batch."""
    def broken(*_, **__):
        raise RuntimeError("simulator bug")
    monkeypatch.setattr(optimize, "simulate", broken)
    with pytest.raises(RuntimeError, match="simulator bug"):
        evaluate_batch([(1, 0, 1, 0, 1, 0)], ctx, workers=1)


def test_batch_order_preserving(ctx):
    rng = np.random.default_rng(11)
    genomes = [ctx.space.sample(rng) for _ in range(16)]
    batch = evaluate_batch(genomes, ctx, workers=1)
    assert [r.genome for r in batch] == genomes
    assert batch == [evaluate(g, ctx) for g in genomes]


def test_batch_workers_1_vs_8_identical(ctx):
    rng = np.random.default_rng(12)
    genomes = [ctx.space.sample(rng) for _ in range(24)]
    seq = evaluate_batch(genomes, ctx, workers=1)
    par = evaluate_batch(genomes, ctx, workers=8)
    assert seq == par


def test_batch_rejects_bad_worker_count(ctx):
    with pytest.raises(OptimizeError):
        evaluate_batch([(1, 0, 1, 0, 1, 0)], ctx, workers=0)


def count_evaluations(monkeypatch) -> list:
    """Genomes passed to optimize.evaluate in this process, in call order."""
    calls = []
    real = optimize.evaluate

    def counted(genome, ctx):
        calls.append(tuple(genome))
        return real(genome, ctx)
    monkeypatch.setattr(optimize, "evaluate", counted)
    return calls


def count_simulations(monkeypatch) -> list:
    """Design keys of the designs that scoring simulated in this process,
    in call order; snapshot re-simulations keep the log and are skipped."""
    keys = []
    real = optimize.simulate

    def counted(*design, log=True):
        if not log:
            keys.append(optimize._design_key(optimize._Design(*design)))
        return real(*design, log=log)
    monkeypatch.setattr(optimize, "simulate", counted)
    return keys


def design_key_of(genome, ctx):
    return optimize._design_key(optimize._realize(genome, ctx))


def test_batch_memo_dispatches_each_new_genome_once(ctx, monkeypatch):
    calls = count_evaluations(monkeypatch)
    dispatched = []

    class InlinePool:
        """ProcessPoolExecutor stand-in: maps in this process and records
        what each batch dispatched."""

        def __init__(self, max_workers):
            pass

        def map(self, fn, items, chunksize):
            dispatched.append(list(items))
            return map(fn, dispatched[-1])

        def shutdown(self, cancel_futures):
            pass
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    a, b, c = (1, 0, 1, 0, 1, 0), (2, 1, 1, 0, 1, 0), (1, 0, 2, 3, 1, 0)
    memo = {}
    batches = [[a, b, a], [b, c, c, a], [c, b]]
    got = [evaluate_batch(batch, ctx, workers=4, memo=memo) for batch in batches]
    # misses only, deduplicated in first-seen order; no pool once all hit
    assert dispatched == [[a, b], [c]]
    assert calls == [a, b, c]
    assert memo.keys() == {a, b, c}
    for batch, results in zip(batches, got):
        assert [r.genome for r in results] == batch
        assert results == [evaluate(g, ctx) for g in batch]


def test_pool_has_no_more_workers_than_chunks(ctx, monkeypatch):
    """The pool forks all its workers at its first task, so a batch gets no
    more of them than it has chunks of new designs to score."""
    sizes = []

    class InlinePool:
        """ProcessPoolExecutor stand-in: records its size, maps in this
        process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items, chunksize):
            return map(fn, items)

        def shutdown(self, cancel_futures):
            pass
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    designs = {}
    for g in itertools.product(range(1, 5), range(4), repeat=3):
        try:
            designs.setdefault(design_key_of(g, ctx), g)
        except optimize._DOMAIN_ERRORS:
            continue
    genomes = list(designs.values())
    assert len(genomes) >= 23
    evaluate_batch(genomes[:3], ctx, workers=8)
    # 20 new designs make 3 chunks of at most 8
    evaluate_batch(genomes[3:23], ctx, workers=2)
    evaluate_batch(genomes[3:23], ctx, workers=8)
    assert sizes == [1, 2, 3]


POOL_MODULES = ("concurrent.futures", "multiprocessing", "socket", "logging")


def test_one_worker_batch_loads_no_pool_modules():
    """The CLI and a one-worker batch import none of the pool machinery;
    only a pool of two or more workers does."""
    probe = (
        "import sys\n"
        "import neuromap.cli\n"
        "from neuromap.optimize import EvalContext, GenomeSpace, evaluate_batch\n"
        "from neuromap.simcost import load_hw_config\n"
        "from neuromap.workload import load_network, packaged_config, synth_trace\n"
        "model = load_network(packaged_config('pilotnet_synth.net'))\n"
        "ctx = EvalContext(model=model, trace=synth_trace(model, 2, 30.0, seed=7),\n"
        "                  base_hw=load_hw_config(packaged_config('default_hw.prm')),\n"
        "                  space=GenomeSpace(n_layers=len(model.layers), c_max=4))\n"
        "[result] = evaluate_batch([(1, 0) * len(model.layers)], ctx, workers=1)\n"
        "assert result.violation == 0.0, result\n"
        f"print([m for m in {POOL_MODULES!r} if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_pool_workers_run_with_sigint_blocked(ctx, monkeypatch):
    """A Ctrl-C stops only the parent: every worker forks with SIGINT
    blocked, and the parent's own mask comes back."""
    def worker_mask(genome, design, ctx):
        blocked = signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, [])
        return optimize._penalty_result(genome, 1.0, f"SIGINT blocked: {blocked}")
    monkeypatch.setattr(optimize, "_score", worker_mask)
    before = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    assert signal.SIGINT not in before
    genomes = [(1, 0, 1, 0, 1, 0), (2, 1, 1, 0, 1, 0), (1, 0, 2, 3, 1, 0)]
    results = evaluate_batch(genomes, ctx, workers=2)
    assert [r.error for r in results] == ["SIGINT blocked: True"] * len(genomes)
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == before


def test_batch_without_memo_evaluates_each_genome_once(ctx, monkeypatch):
    """Each distinct design is simulated once: a2 differs from a only in
    the axis of one-core layers, so it shares a's simulation."""
    sims = count_simulations(monkeypatch)
    a, b, a2 = (1, 0, 1, 0, 1, 0), (2, 1, 1, 0, 1, 0), (1, 3, 1, 2, 1, 1)
    assert design_key_of(a2, ctx) == design_key_of(a, ctx)
    results = evaluate_batch([a, b, a, a2, a], ctx, workers=1)
    assert sims == [design_key_of(a, ctx), design_key_of(b, ctx)]
    assert [r.genome for r in results] == [a, b, a, a2, a]
    assert results[0] is results[2] is results[4]
    assert repr(results[3]) == repr(evaluate(a2, ctx))


def test_batch_memo_stores_nothing_for_a_bug(ctx, monkeypatch):
    def broken(*_, **__):
        raise RuntimeError("simulator bug")
    monkeypatch.setattr(optimize, "simulate", broken)
    memo = {}
    with pytest.raises(RuntimeError, match="simulator bug"):
        evaluate_batch([(1, 0, 1, 0, 1, 0)], ctx, memo=memo)
    assert memo == {}


@pytest.mark.parametrize("algo", ["ga", "nsga2", "pso"])
def test_search_evaluates_each_distinct_genome_once(small_ctx, tmp_path,
                                                    monkeypatch, algo):
    from neuromap.analytics import attach, open_run, read_evaluations
    runner, params = {
        "ga": (run_ga, AlgoParams(algo="ga", population=6, generations=8,
                                  weights={"energy": 1.0})),
        "nsga2": (run_nsga2, AlgoParams(algo="nsga2", population=10,
                                        generations=10, offspring=10)),
        "pso": (run_pso, AlgoParams(algo="pso", population=6, generations=8,
                                    weights={"energy": 1.0})),
    }[algo]
    sims = count_simulations(monkeypatch)
    record = open_run(tmp_path, "toy2", algo, 5, params, HW,
                      gene_names=small_ctx.space.gene_names())
    on_gen = attach(record, small_ctx)
    seen = []

    def on_generation(gen, results, best):
        seen.extend(results)
        on_gen(gen, results, best)
    runner(small_ctx, params, seed=5, on_generation=on_generation)
    simulated = list(sims)
    distinct = {r.genome for r in seen}
    assert len(seen) > len(distinct)  # the run does revisit genomes
    # each distinct design of a feasible genome is simulated once
    feasible = {r.genome for r in seen if r.feasible}
    designs = {design_key_of(g, small_ctx) for g in feasible}
    assert len(designs) < len(feasible)  # and genomes do share designs
    assert len(simulated) == len(designs) and set(simulated) == designs
    for r in seen:
        assert r == evaluate(r.genome, small_ctx)
    # one row per evaluation, repeats included
    _, rows = read_evaluations(record.run_dir)
    assert len(rows) == len(seen)
    genes = small_ctx.space.gene_names()
    assert [tuple(int(row[g]) for g in genes) for row in rows] == [
        r.genome for r in seen]


@pytest.fixture(scope="module")
def desk_ctx():
    """The desk workload's model, hardware and NPE menu, on two frames."""
    from neuromap.simcost import load_hw_config
    from neuromap.workload import load_network, packaged_config
    model = load_network(packaged_config("pilotnet_synth.net"))
    return EvalContext(
        model=model, trace=synth_trace(model, n_frames=2, fps=30.0, seed=7),
        base_hw=load_hw_config(packaged_config("default_hw.prm")),
        space=GenomeSpace(n_layers=len(model.layers), c_max=16,
                          npes_menu=(1, 2, 4, 8, 16, 32, 64)))


@pytest.fixture(scope="module")
def full_ctx():
    m = toy_model()
    return EvalContext(model=m, trace=synth_trace(m, n_frames=2, fps=0, seed=1),
                       base_hw=HW, space=full_space())


@pytest.fixture(scope="module")
def shallow_ctx():
    """The full menu with two-deep link and inbox queues at 30 fps, where
    many toy designs congest."""
    m = toy_model()
    return EvalContext(model=m, trace=synth_trace(m, n_frames=2, fps=30.0, seed=1),
                       base_hw=replace(HW, queue_depth=2), space=full_space())


def test_batch_simulates_a_congested_design_once(shallow_ctx, monkeypatch):
    """An infeasible design is shared like a feasible one: a2 differs from
    a only in the axis of its one-core first layer."""
    menus = (0, 1, 0)
    a, a2 = (1, 0, 2, 0, 2, 0, *menus), (1, 3, 2, 0, 2, 0, *menus)
    key = design_key_of(a, shallow_ctx)
    assert design_key_of(a2, shallow_ctx) == key
    sims = count_simulations(monkeypatch)
    results = evaluate_batch([a, a2], shallow_ctx)
    assert sims == [key]
    assert results[0].error == "core 3 inbox exceeded depth 2"
    assert [repr(r) for r in results] == [repr(evaluate(g, shallow_ctx))
                                          for g in (a, a2)]


@st.composite
def _aliasing_batches(draw, space):
    """Two batches over a few base genomes, each in up to three variants
    that differ only in the axis genes of one-core layers: such a layer
    keys alike on every axis, so the variants share a design."""
    lo, hi = space.bounds()
    n = 2 * space.n_layers
    genes = [st.sampled_from((1, 1, 2, int(hi[i]))) if i < n and i % 2 == 0
             else st.integers(int(lo[i]), int(hi[i])) for i in range(len(lo))]
    axes = st.lists(st.integers(0, int(hi[1])), min_size=space.n_layers,
                    max_size=space.n_layers)
    pool = []
    for base in draw(st.lists(st.tuples(*genes), min_size=1, max_size=3)):
        for axis_genes in draw(st.lists(axes, min_size=1, max_size=3)):
            g = list(base)
            for layer, axis in enumerate(axis_genes):
                if g[2 * layer] == 1:
                    g[2 * layer + 1] = axis
            pool.append(tuple(g))
    return [draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
            for _ in range(2)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("space_ctx", ["full_ctx", "desk_ctx", "shallow_ctx"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_batch_results_equal_fresh_evaluate(request, space_ctx, workers, data):
    ctx = request.getfixturevalue(space_ctx)
    memo, designs = {}, {}
    for batch in data.draw(_aliasing_batches(ctx.space)):
        got = evaluate_batch(batch, ctx, workers, memo, designs)
        assert [repr(r) for r in got] == [repr(evaluate(g, ctx)) for g in batch]
    for key, r in designs.items():
        assert key == design_key_of(r.genome, ctx)
        assert repr(r) == repr(evaluate(r.genome, ctx))


# --- ranking, dominance, archive, hypervolume ---

def _mk(energy, latency, violation=0.0, genome=None):
    if genome is None:
        genome = (int(energy * 10) % 97, int(latency * 10) % 89)
    return EvalResult(genome=tuple(genome),
                      objectives=Objectives(energy, latency, 1.0, 0.0),
                      violation=violation, n_cores=1, mesh_shape=(1, 1))


NAMES = ("energy", "latency")


def _dominance(*results):
    return optimize.dominance([r.violation for r in results],
                              [r.objectives.as_tuple(NAMES) for r in results]).tolist()


def test_feasibility_first_dominance():
    feas_bad = _mk(1e9, 1e9)
    infeas_good = _mk(1.0, 1.0, violation=5.0)
    worse_violation = _mk(1.0, 1.0, violation=9.0)
    assert _dominance(feas_bad, infeas_good, worse_violation) == [
        [False, True, True],
        [False, False, True],
        [False, False, False]]


def test_pareto_dominance_rules():
    a, b, c, twin = _mk(1.0, 2.0), _mk(2.0, 1.0), _mk(1.0, 1.0), _mk(1.0, 2.0)
    # only c beats anyone: it beats a, b and a's twin
    assert _dominance(a, b, c, twin) == [
        [False, False, False, False],
        [False, False, False, False],
        [True, True, False, True],
        [False, False, False, False]]


def test_rank_key_orders_feasible_first():
    feas = _mk(100.0, 100.0)
    infeas = _mk(0.0, 0.0, violation=1.0)
    w = {"energy": 1.0}
    assert rank_key(feas, NAMES, w) < rank_key(infeas, NAMES, w)
    assert scalarize(feas, NAMES, {"energy": 1.0, "latency": 0.5}) == 150.0


def test_archive_prunes_dominated_and_dedups():
    arch = ParetoArchive(NAMES)
    steps = [(_mk(3.0, 3.0, genome=(1,)), [(1,)]),
             (_mk(1.0, 4.0, genome=(2,)), [(1,), (2,)]),
             (_mk(3.0, 3.0, genome=(1,)), [(1,), (2,)]),  # duplicate genome
             (_mk(4.0, 4.0, genome=(3,)), [(1,), (2,)]),  # dominated
             (_mk(2.0, 2.0, genome=(4,)), [(2,), (4,)])]  # kills (3,3)
    for res, members in steps:
        arch.update([res])
        assert [m.genome for m in arch.members] == members
    arch.check_invariant()
    front = arch.front()
    assert front[0].objectives.energy <= front[-1].objectives.energy


def test_archive_infeasible_only_keeps_least_violating():
    arch = ParetoArchive(NAMES)
    arch.update([_mk(1.0, 1.0, violation=9.0, genome=(1,))])
    arch.update([_mk(5.0, 5.0, violation=2.0, genome=(2,))])
    assert [m.genome for m in arch.members] == [(2,)]
    arch.update([_mk(7.0, 7.0, genome=(3,))])
    assert [m.genome for m in arch.members] == [(3,)]


def test_hypervolume_hand_case():
    pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
    assert hypervolume_2d(pts, (4.0, 4.0)) == pytest.approx(6.0)
    # points at or beyond the reference contribute nothing
    assert hypervolume_2d(pts + [(4.0, 0.5), (0.5, 4.0)], (4.0, 4.0)) == \
        pytest.approx(6.0)
    # a strictly interior extension grows the area by its own rectangle
    assert hypervolume_2d(pts + [(3.5, 0.5)], (4.0, 4.0)) == pytest.approx(6.25)
    assert hypervolume_2d([], (1.0, 1.0)) == 0.0
    # dominated points add nothing
    assert hypervolume_2d(pts + [(2.5, 2.5)], (4.0, 4.0)) == pytest.approx(6.0)


def test_non_dominated_sort_fronts():
    res = [_mk(1.0, 3.0), _mk(3.0, 1.0), _mk(2.0, 2.0),
           _mk(3.0, 3.0), _mk(4.0, 4.0)]
    fronts = non_dominated_sort(res, NAMES)
    assert sorted(fronts[0]) == [0, 1, 2]
    assert fronts[1] == [3]
    assert fronts[2] == [4]


def test_crowding_distance_boundaries_infinite():
    res = [_mk(1.0, 4.0), _mk(2.0, 3.0), _mk(3.0, 2.0), _mk(4.0, 1.0)]
    dist = crowding_distance(res, [0, 1, 2, 3], NAMES)
    assert dist[0] == np.inf and dist[3] == np.inf
    assert 0 < dist[1] < np.inf and 0 < dist[2] < np.inf


# --- the one dominance matrix against the pairwise reference ---

def _pairwise_dominates(a, b, names):
    """Reference: the feasibility-first rule, one pair at a time."""
    if a.violation == 0.0 and b.violation > 0.0:
        return True
    if a.violation > 0.0:
        return b.violation > 0.0 and a.violation < b.violation
    va = a.objectives.as_tuple(names)
    vb = b.objectives.as_tuple(names)
    return all(x <= y for x, y in zip(va, vb)) and any(
        x < y for x, y in zip(va, vb))


def _pairwise_sort(results, names):
    """Reference: fronts from a Python walk over every pair."""
    n = len(results)
    dominated_by = [[] for _ in range(n)]
    count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if _pairwise_dominates(results[i], results[j], names):
                dominated_by[i].append(j)
                count[j] += 1
            elif _pairwise_dominates(results[j], results[i], names):
                dominated_by[j].append(i)
                count[i] += 1
    fronts = [[i for i in range(n) if count[i] == 0]]
    while fronts[-1]:
        nxt = []
        for i in fronts[-1]:
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
    fronts.pop()
    return fronts


def _pairwise_archive(results, names):
    """Reference: members after adding results one by one."""
    members = []
    for res in results:
        if any(m.genome == res.genome for m in members):
            continue
        if any(_pairwise_dominates(m, res, names) for m in members):
            continue
        members = [m for m in members
                   if not _pairwise_dominates(res, m, names)]
        members.append(res)
    return members


@st.composite
def _result_streams(draw):
    """0-90 results drawn from a few genomes. A genome always maps to the
    same violation and objectives (small integers, so ties are common),
    as evaluate guarantees; each occurrence is a fresh object."""
    kinds = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                    st.sampled_from((0.0, 0.0, 1.0, 3.0))),
                          min_size=1, max_size=40))
    picks = draw(st.lists(st.integers(0, len(kinds) - 1), max_size=90))
    return [_mk(float(kinds[k][0]), float(kinds[k][1]),
                violation=kinds[k][2], genome=(k,)) for k in picks]


@given(results=_result_streams())
@settings(max_examples=150, deadline=None)
def test_dominance_and_sort_match_pairwise_reference(results):
    dom = optimize.dominance([r.violation for r in results],
                             [r.objectives.as_tuple(NAMES) for r in results])
    assert dom.tolist() == [[_pairwise_dominates(a, b, NAMES) for b in results]
                            for a in results]
    fronts = non_dominated_sort(results, NAMES)
    assert fronts == _pairwise_sort(results, NAMES)
    assert all(type(i) is int for front in fronts for i in front)


@given(results=_result_streams(), cuts=st.lists(st.integers(0, 90), max_size=6))
@settings(max_examples=150, deadline=None)
def test_archive_update_in_chunks_matches_sequential_add(results, cuts):
    bounds = sorted({0, len(results), *(c for c in cuts if c < len(results))})
    chunked = ParetoArchive(NAMES)
    for lo, hi in zip(bounds, bounds[1:]):
        chunked.update(results[lo:hi])
        chunked.check_invariant()
    one_by_one = ParetoArchive(NAMES)
    for r in results:
        one_by_one.update([r])
    expected = _pairwise_archive(results, NAMES)
    assert [id(m) for m in chunked.members] == [id(m) for m in expected]
    assert [id(m) for m in one_by_one.members] == [id(m) for m in expected]


def test_ranking_accepts_empty_input():
    assert non_dominated_sort([], NAMES) == []
    assert optimize.dominance([], []).shape == (0, 0)
    arch = ParetoArchive(NAMES)
    arch.update([])
    arch.update(r for r in [_mk(1.0, 1.0, violation=2.0)] if r.feasible)
    assert arch.members == []
    arch.check_invariant()


# --- search loops against exhaustive enumeration ---

@pytest.fixture(scope="module")
def small_ctx():
    """256-genome space, fully enumerable."""
    m = toy_model()
    layers = (m.layers[0], m.layers[1])
    m2 = NetworkModel(name="toy2", layers=layers, edges=((0, 1),))
    tr = synth_trace(m2, n_frames=2, fps=0, seed=3)
    return EvalContext(model=m2, trace=tr, base_hw=HW,
                       space=GenomeSpace(n_layers=2, c_max=4))


@pytest.fixture(scope="module")
def enum_results(small_ctx):
    lo, hi = small_ctx.space.bounds()
    ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
    genomes = [tuple(g) for g in itertools.product(*ranges)]
    assert len(genomes) == 256
    return evaluate_batch(genomes, small_ctx, workers=8)


def test_ga_finds_enumerated_optimum_seeds_0_to_4(small_ctx, enum_results):
    w = {"energy": 1.0}
    target = min(scalarize(r, small_ctx.objective_names, w)
                 for r in enum_results if r.feasible)
    params = AlgoParams(algo="ga", population=10, generations=50, weights=w)
    for seed in range(5):
        best, hist = run_ga(small_ctx, params, seed=seed)
        assert hist == sorted(hist, reverse=True) or all(
            a >= b for a, b in zip(hist, hist[1:]))
        assert hist[-1] == pytest.approx(target)


def test_pso_finds_enumerated_optimum(small_ctx, enum_results):
    w = {"energy": 1.0}
    target = min(scalarize(r, small_ctx.objective_names, w)
                 for r in enum_results if r.feasible)
    params = AlgoParams(algo="pso", population=10, generations=60, weights=w)
    for seed in range(3):
        best, hist = run_pso(small_ctx, params, seed=seed)
        assert all(a >= b for a, b in zip(hist, hist[1:]))
        assert hist[-1] == pytest.approx(target)


def test_nsga2_recovers_true_front(small_ctx, enum_results):
    truth = ParetoArchive(NAMES)
    truth.update(r for r in enum_results if r.feasible)
    true_pts = [r.objectives.as_tuple(NAMES) for r in truth.members]
    ref = (max(p[0] for p in true_pts) * 1.1 + 1.0,
           max(p[1] for p in true_pts) * 1.1 + 1.0)
    true_hv = hypervolume_2d(true_pts, ref)

    params = AlgoParams(algo="nsga2", population=16, generations=40,
                        offspring=8)
    archive, hv_hist = run_nsga2(small_ctx, params, seed=0)
    assert all(b >= a - 1e-12 for a, b in zip(hv_hist, hv_hist[1:]))
    got_pts = [r.objectives.as_tuple(NAMES) for r in archive.members]
    assert hypervolume_2d(got_pts, ref) >= 0.95 * true_hv
    # archive members genuinely belong to the global front
    true_set = {r.genome for r in truth.members}
    by_genome = {r.genome: r for r in enum_results}
    for m in archive.members:
        assert not any(_pairwise_dominates(by_genome[g], m, NAMES)
                       for g in true_set)


def test_nsga2_requires_two_objectives(small_ctx):
    params = AlgoParams(algo="nsga2", population=8, generations=2)
    ctx1 = EvalContext(model=small_ctx.model, trace=small_ctx.trace,
                       base_hw=HW, space=small_ctx.space,
                       objective_names=("energy",))
    with pytest.raises(OptimizeError):
        run_nsga2(ctx1, params, seed=0)


def test_single_feasible_genome_gives_archive_of_one():
    """With c_max=1 every layer has one core, which keys alike on every
    axis, so every genome decodes to one design and the archive holds
    that design alone."""
    m = toy_model()
    tr = synth_trace(m, n_frames=2, fps=0, seed=4)
    space = GenomeSpace(n_layers=3, c_max=1)
    lo, hi = space.bounds()
    assert lo[0::2].tolist() == hi[0::2].tolist() == [1, 1, 1]
    ctx = EvalContext(model=m, trace=tr, base_hw=HW, space=space)
    genomes = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    assert len({design_key_of(g, ctx) for g in genomes}) == 1
    params = AlgoParams(algo="nsga2", population=4, generations=3, offspring=2)
    archive, _ = run_nsga2(ctx, params, seed=0)
    assert len({r.objectives for r in archive.members}) == 1
    assert all(r.feasible for r in archive.members)


def test_runs_deterministic_per_seed(small_ctx):
    params = AlgoParams(algo="ga", population=8, generations=5,
                        weights={"energy": 1.0})
    b1, h1 = run_ga(small_ctx, params, seed=9)
    b2, h2 = run_ga(small_ctx, params, seed=9)
    assert b1 == b2 and h1 == h2
    pa = AlgoParams(algo="nsga2", population=8, generations=5, offspring=4)
    a1, v1 = run_nsga2(small_ctx, pa, seed=9)
    a2, v2 = run_nsga2(small_ctx, pa, seed=9)
    assert [m.genome for m in a1.members] == [m.genome for m in a2.members]
    assert v1 == v2


# Every genome each loop evaluates, in order, and its final history at seed
# 11. The values are frozen: a change to the variation operators, to the
# order of RNG draws or to the selection schemes moves them.
PINNED_STREAMS = {
    "ga": ("1041 3230 2023 3030 4342 2342 4033 2041 1020 2133 2030 2021 3030 "
           "2041 3010 2021 1031 2041 2041 2031",
           [4748.0, 3960.0, 3960.0, 3960.0]),
    "nsga2": ("1041 3230 2023 3030 4342 4112 3030 4122 1042 1010 1333 3330 1132 "
              "3033 1130 3030 1210 2233 1130 1010 1120",
              [1734788.8, 1912260.7999999998, 1960341.5999999999, 2004821.6]),
    "pso": ("1041 3230 2023 3030 2040 3230 2032 3030 3041 3140 2031 2040 3042 "
            "2240 2020 1030",
            [4748.0, 4612.0, 4612.0, 4180.0]),
}


@pytest.mark.parametrize("algo", sorted(PINNED_STREAMS))
def test_search_streams_are_pinned(small_ctx, algo):
    runner, params = {
        "ga": (run_ga, AlgoParams(algo="ga", population=5, generations=3,
                                  weights={"energy": 1.0})),
        "nsga2": (run_nsga2, AlgoParams(algo="nsga2", population=6,
                                        generations=3, offspring=5)),
        "pso": (run_pso, AlgoParams(algo="pso", population=4, generations=3,
                                    weights={"energy": 1.0})),
    }[algo]
    seen = []
    _, history = runner(small_ctx, params, seed=11,
                        on_generation=lambda gen, results, best: seen.extend(
                            r.genome for r in results))
    genomes, want_history = PINNED_STREAMS[algo]
    assert " ".join("".join(map(str, g)) for g in seen) == genomes
    assert history == want_history


@pytest.mark.parametrize("generations", [0, 4])
@pytest.mark.parametrize("algo", ALGOS)
def test_on_generation_callback_sees_every_generation(small_ctx, algo, generations,
                                                      monkeypatch):
    """One callback per generation 0..G and one evaluated batch for each, so
    the loop never steps past the last generation; workers are checked before
    anything is simulated."""
    batches, simulated = [], []

    def counted_batch(genomes, *args):
        batches.append(len(genomes))
        return evaluate_batch(genomes, *args)

    def counted_simulate(*args, **kwargs):
        simulated.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(optimize, "evaluate_batch", counted_batch)
    monkeypatch.setattr(optimize, "simulate", counted_simulate)
    params = AlgoParams(algo=algo, population=6, generations=generations,
                        offspring=4, weights={"energy": 1.0})
    with pytest.raises(OptimizeError, match="^workers must be >= 1$"):
        RUNNERS[algo](small_ctx, params, 0, 0)
    assert simulated == []
    seen = []
    RUNNERS[algo](small_ctx, params, 0, 1,
                  lambda gen, results, best: seen.append((gen, len(results))))
    assert [g for (g, _) in seen] == list(range(generations + 1))
    assert seen[0][1] == 6
    assert len([n for n in batches if n]) == generations + 1


# --- parameter files ---

def test_load_algo_params_round_trip(tmp_path):
    p = tmp_path / "ga.prm"
    p.write_text("[algorithm]\n"
                 "algo = ga\n"
                 "population = 12\n"
                 "generations = 7\n"
                 "offspring = 5\n"
                 "eta_crossover = 2.5\n"
                 "p_mutation = 0.2\n"
                 "weight_energy = 1.0\n"
                 "weight_latency = 0.25\n")
    params = load_algo_params(p)
    assert params.algo == "ga"
    assert params.population == 12
    assert params.generations == 7
    assert params.offspring == 5
    assert params.eta_crossover == 2.5
    assert params.p_mutation == 0.2
    assert params.weights == {"energy": 1.0, "latency": 0.25}


def test_load_algo_params_missing_section(tmp_path):
    p = tmp_path / "bad.prm"
    p.write_text("[hardware]\nnpes_per_core = 4\n")
    with pytest.raises(OptimizeError):
        load_algo_params(p)


@pytest.mark.parametrize("line", ["populaton = 3", "weight_enrgy = 1.0",
                                  "weights = 1.0"])
def test_load_algo_params_rejects_unknown_key(tmp_path, line):
    p = tmp_path / "typo.prm"
    p.write_text(f"[algorithm]\nalgo = ga\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(ConfigFormatError, match=f"typo.prm: unknown key '{key}'"):
        load_algo_params(p)


def test_algo_params_validation():
    with pytest.raises(OptimizeError):
        AlgoParams(algo="sa")
    with pytest.raises(OptimizeError):
        AlgoParams(population=0)


@pytest.mark.parametrize("valid, field, bad, error, message", [
    (HardwareConfig(), "npes_per_core", 0, SimError, "npes_per_core must be >= 1"),
    (AlgoParams(), "population", 0, OptimizeError,
     "population >= 1 and generations >= 0 required"),
    (LayerSplit(), "n_cores", 0, PartitionError, "n_cores must be >= 1"),
    (toy_model().layers[0], "avg_event_rate", 1.5, WorkloadError,
     "layer 0: binary-spike layers need avg_event_rate <= 1, got 1.5"),
    (Bitwidths(), "weights", 0, WorkloadError,
     "bw_weights must be one of (4, 8, 16), got 0"),
], ids=["HardwareConfig", "AlgoParams", "LayerSplit", "Layer", "Bitwidths"])
def test_building_a_config_checks_it(valid, field, bad, error, message):
    """Construction and dataclasses.replace, the menus' path, both reject
    the bad field; no later call is needed to find it."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        type(valid)(**{**vars(valid), field: bad})
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        replace(valid, **{field: bad})
