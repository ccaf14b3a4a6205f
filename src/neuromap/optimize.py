"""Integer-genome search over mappings and architecture parameters.

A genome is (n_cores, axis) per layer plus optional global menu genes
(NPEs, frame rate, mesh scheme). Decoding never clamps:
a gene of value v gives v cores or entry v of its menu. Structurally
impossible genomes surface as constraint violations during evaluation,
not as decode errors. Constraint handling is feasibility-first: any
memory-bound violator ranks below every feasible candidate.

The NPE count scales per-op energy and static power linearly (the base
config expresses per-lane costs), so more NPEs buy time, not free energy.
"""

from __future__ import annotations

import math
import signal
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from functools import partial, reduce
from operator import add

import numpy as np

from .configio import MAX_SNAPSHOT_SAMPLES, check_numbers, convert, entry_key, get_numbers, read_section
from .fidelity import FidelityError, from_values, xcorr_score
from .mesh import SCHEMES, MeshError, compress, place
from .partition import (
    AXES,
    LayerSplit,
    PartitionError,
    PartitionSpec,
    build_mapping,
    flat_range,
)
from .simcost import CostReport, HardwareConfig, SimError, input_ids, simulate
from .workload import EventTrace, NetworkModel, WorkloadError, retime_trace

PENALTY_BASE = 1e18
STRUCTURAL_VIOLATION = 1e12

# the fidelity penalty reads end signals as one sample per SIGNAL_DT ms and
# adds SHIFT_WEIGHT per ms of shift to 1 - peak
SHIFT_WEIGHT = 1e-3
SIGNAL_DT = 1.0


class OptimizeError(ValueError):
    pass


# Optional architecture genes, in gene order; a space carries one gene per
# non-None menu, and every GenomeSpace menu field has a row here. Each entry
# is menu field -> (decoded slot it sets, apply(slot value, menu value) ->
# slot value). The slots are "hw", "scheme" and "fps". The NPE row
# scales e_npe_op and p_static_core from the base's per-lane figures.
MENU_GENES = {
    "npes_menu": ("hw", lambda hw, n: replace(
        hw, npes_per_core=int(n), e_npe_op=hw.e_npe_op * int(n),
        p_static_core=hw.p_static_core * int(n))),
    "fps_menu": ("fps", lambda _, v: float(v)),
    "scheme_menu": ("scheme", lambda _, v: str(v)),
}


@dataclass(frozen=True)
class GenomeSpace:
    """Bounds and menus defining the integer search space."""

    n_layers: int
    c_max: int = 16
    npes_menu: tuple[int, ...] | None = None
    fps_menu: tuple[float, ...] | None = None
    scheme_menu: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_layers < 1 or self.c_max < 1:
            raise OptimizeError("n_layers and c_max must be >= 1")
        # sample() draws below c_max + 1, which must fit an int64
        if self.c_max >= 2**63 - 1:
            raise OptimizeError(f"c_max must be < 2**63 - 1, got {self.c_max}")
        for name in MENU_GENES:
            menu = getattr(self, name)
            if menu is not None and not menu:
                raise OptimizeError(f"{name} has no entries")
            if menu is not None and len(set(menu)) != len(menu):
                raise OptimizeError(f"{name} entries must be unique")
        if any(s not in SCHEMES for s in self.scheme_menu or ()):
            raise OptimizeError(f"scheme_menu entries must be among {SCHEMES}")

    def _menus(self) -> list[tuple[str, tuple]]:
        return [(name, getattr(self, name)) for name in MENU_GENES
                if getattr(self, name) is not None]

    @property
    def n_genes(self) -> int:
        return 2 * self.n_layers + len(self._menus())

    def gene_names(self) -> list[str]:
        names = []
        for i in range(self.n_layers):
            names += [f"cores_l{i}", f"axis_l{i}"]
        names += [name.removesuffix("_menu") for (name, _) in self._menus()]
        return names

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = [], []
        for _ in range(self.n_layers):
            lo += [1, 0]
            hi += [self.c_max, len(AXES) - 1]
        for (_, menu) in self._menus():
            lo.append(0)
            hi.append(len(menu) - 1)
        return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        lo, hi = self.bounds()
        return tuple(int(v) for v in rng.integers(lo, hi + 1))

    def validate_genome(self, genome) -> None:
        lo, hi = self.bounds()
        if len(genome) != self.n_genes:
            raise OptimizeError(f"genome has {len(genome)} genes, "
                                f"space needs {self.n_genes}")
        for g, a, b in zip(genome, lo, hi):
            if not (a <= g <= b):
                raise OptimizeError(f"gene {g} outside [{a}, {b}]")


def decode(genome, model: NetworkModel, base_hw: HardwareConfig,
           space: GenomeSpace, default_scheme: str = "strict-area"):
    """(PartitionSpec, HardwareConfig, scheme, fps_override).

    fps_override is None unless the space carries an fps gene. NPE count
    scales e_npe_op and p_static_core relative to the base's per-lane
    figures.
    """
    space.validate_genome(genome)
    splits = []
    for i in range(space.n_layers):
        n_cores = int(genome[2 * i])
        axis = AXES[int(genome[2 * i + 1])]
        splits.append(LayerSplit(n_cores=n_cores, axis=axis))
    slots = {"hw": base_hw, "scheme": default_scheme, "fps": None}
    for pos, (name, menu) in enumerate(space._menus(), 2 * space.n_layers):
        slot, apply = MENU_GENES[name]
        slots[slot] = apply(slots[slot], menu[int(genome[pos])])
    return PartitionSpec(tuple(splits)), slots["hw"], slots["scheme"], slots["fps"]


def decode_model(genome, model: NetworkModel, space: GenomeSpace) -> NetworkModel:
    """The model itself: no gene changes it."""
    return model


@dataclass(frozen=True)
class Objectives:
    """What a search minimizes; the fields are the one list of objectives."""

    energy: float
    latency: float
    area: float
    fidelity_penalty: float

    def as_tuple(self, names) -> tuple[float, ...]:
        return tuple([getattr(self, n) for n in names])


OBJECTIVE_NAMES = tuple(f.name for f in fields(Objectives))


@dataclass(frozen=True)
class EvalContext:
    model: NetworkModel
    trace: EventTrace
    base_hw: HardwareConfig
    space: GenomeSpace
    scheme: str = "strict-area"
    objective_names: tuple[str, ...] = ("energy", "latency")
    reference: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.objective_names:
            raise OptimizeError("no objectives given")
        for i, n in enumerate(self.objective_names):
            if n not in OBJECTIVE_NAMES:
                raise OptimizeError(f"unknown objective {n!r}")
            if n in self.objective_names[:i]:
                raise OptimizeError(f"objective {n!r} given twice")
        if "fidelity_penalty" in self.objective_names and self.reference is None:
            raise OptimizeError("fidelity_penalty needs a reference end signal")
        # a context or menu value that no design can use fails here, not as
        # a penalty or an error on every genome; the hardware, the model and
        # the trace check theirs when built
        if self.space.n_layers != len(self.model.layers):
            raise OptimizeError(f"genome space covers {self.space.n_layers} layers, "
                                f"model has {len(self.model.layers)}")
        try:
            compress(1, self.scheme)
            input_ids(self.model, self.trace)
        except (MeshError, SimError) as exc:
            raise OptimizeError(str(exc)) from None
        base = {"hw": self.base_hw, "fps": None}
        for name, menu in self.space._menus():
            slot, apply = MENU_GENES[name]
            for v in menu if slot in base else ():
                try:
                    value = apply(base[slot], v)
                    if slot == "fps":
                        retime_trace(self.trace, value)
                except (SimError, WorkloadError) as exc:
                    raise OptimizeError(f"{name} value {v!r}: {exc}") from None


@dataclass(frozen=True)
class EvalResult:
    genome: tuple[int, ...]
    objectives: Objectives
    violation: float
    n_cores: int
    mesh_shape: tuple[int, int]
    error: str | None = None

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def _penalty_result(genome, violation: float, error: str | None = None) -> EvalResult:
    v = PENALTY_BASE + violation
    return EvalResult(genome=tuple(genome),
                      objectives=Objectives(*[v] * len(OBJECTIVE_NAMES)),
                      violation=violation, n_cores=0, mesh_shape=(0, 0),
                      error=error)


def fidelity_penalty_of(end_signal, ctx: EvalContext) -> float:
    if ctx.reference is None:
        return 0.0
    values = [v for (_, v) in end_signal]
    try:
        peak, shift_ms = xcorr_score(from_values(values, SIGNAL_DT),
                                     from_values(ctx.reference, SIGNAL_DT))
    except FidelityError:
        return 1.0
    return (1.0 - peak) + SHIFT_WEIGHT * abs(shift_ms)


# a decoded, mapped and placed genome, in simulate()'s argument order
_Design = namedtuple("_Design", "model mapping placement hw trace")

# the errors a structurally impossible genome raises; any other is a bug
_DOMAIN_ERRORS = (PartitionError, SimError)


def _realize(genome, ctx: EvalContext) -> _Design:
    """decode -> map -> retime -> compress -> place; a split that cannot be
    built raises PartitionError. The design may overflow a core's memory."""
    spec, hw, scheme, fps_override = decode(genome, ctx.model, ctx.base_hw,
                                            ctx.space, ctx.scheme)
    mapping = build_mapping(ctx.model, spec, m_max=hw.mem_per_core,
                            enforce_cap=False)
    trace = ctx.trace
    if fps_override is not None and fps_override != trace.fps:
        trace = retime_trace(trace, fps_override)
    n = mapping.n_cores_total
    placement = place(n, compress(n, scheme))
    return _Design(ctx.model, mapping, placement, hw, trace)


def _design_key(design: _Design) -> tuple:
    """Everything of a design that its simulation and objectives read
    beyond its EvalContext, whose model every design shares: two designs
    of one context with one key score alike.

    A partition is keyed by its flat-neuron range when its neurons are
    contiguous in flat order, so a one-core layer keys alike on every
    axis; any other partition keys as (axis, start, end).
    """
    model, mapping, placement, hw, trace = design
    layers = model.layers
    parts = tuple(
        (a.core_id, a.layer_id,
         flat_range(layers[a.layer_id], a.axis, a.range_start, a.range_end)
         or (a.axis, a.range_start, a.range_end))
        for a in mapping.assignments)
    return (parts, hw, placement.rows, placement.cols, placement.coords,
            trace.fps)


def _score(genome, design: _Design, ctx: EvalContext) -> EvalResult:
    """memory check -> simulate -> objectives of one realized design."""
    cap = design.hw.mem_per_core
    over = design.mapping.over_budget(cap)
    if over:
        return _penalty_result(genome, float(max(b for _, b in over) - cap))
    try:
        report = simulate(*design, log=False)
    except _DOMAIN_ERRORS as exc:
        return _penalty_result(genome, STRUCTURAL_VIOLATION, str(exc))
    shape = (design.placement.rows, design.placement.cols)
    obj = Objectives(
        energy=report.total_energy,
        latency=report.latency_end_to_end,
        area=float(shape[0] * shape[1]),
        fidelity_penalty=fidelity_penalty_of(report.end_signal, ctx),
    )
    return EvalResult(genome=tuple(genome), objectives=obj, violation=0.0,
                      n_cores=design.mapping.n_cores_total, mesh_shape=shape)


def evaluate(genome, ctx: EvalContext) -> EvalResult:
    """decode -> map -> compress -> place -> simulate -> score; the batch
    of one.

    Infeasible or failing candidates come back as penalty objectives with
    a positive violation; they never raise. A memory overflow's violation
    is the worst core's bits past the cap. The result is a pure function of
    (genome, ctx), and the simulation keeps no charge log.
    """
    return evaluate_batch([genome], ctx)[0]


def simulate_genome(genome, ctx: EvalContext) -> CostReport:
    """Full CostReport for one genome (for snapshot materialization)."""
    return simulate(*_realize(genome, ctx))


def evaluate_batch(genomes, ctx: EvalContext, workers: int = 1,
                   memo: dict | None = None,
                   designs: dict | None = None) -> list[EvalResult]:
    """Order-preserving batch evaluation, identical for any worker count.

    memo (genome -> EvalResult) and designs (design key -> EvalResult) are
    one per search run; fresh ones when not given. Each genome not in the
    memo is realized once, in first-seen order, and each design key not
    in designs is scored once, feasible or not, in this process or by a
    pool mapping evaluate(). Every genome of a design shares its result:
    the key holds all that scoring reads, and scoring's errors name only
    what the key holds.
    """
    if workers < 1:
        raise OptimizeError("workers must be >= 1")
    memo = {} if memo is None else memo
    designs = {} if designs is None else designs
    genomes = [tuple(g) for g in genomes]
    keys = {}       # genome -> design key
    todo = {}       # design key -> (genome, design), to be scored
    for g in dict.fromkeys(genomes):
        if g in memo:
            continue
        try:
            design = _realize(g, ctx)
        except _DOMAIN_ERRORS as exc:
            memo[g] = _penalty_result(g, STRUCTURAL_VIOLATION, str(exc))
            continue
        keys[g] = key = _design_key(design)
        if key not in designs:
            todo.setdefault(key, (g, design))
    if workers == 1 or not todo:
        scored = [_score(g, design, ctx) for g, design in todo.values()]
    else:
        # imported here, so a one-worker run never loads the pool modules
        from concurrent.futures import ProcessPoolExecutor

        # the workers fork with SIGINT blocked, so a Ctrl-C stops only this
        # process, which then waits for the running tasks alone
        chunk = 8  # genomes per task; the pool forks all its workers up front
        pool = ProcessPoolExecutor(max_workers=min(workers, math.ceil(len(todo) / chunk)))
        try:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                results = pool.map(partial(evaluate, ctx=ctx),
                                   [g for g, _ in todo.values()], chunksize=chunk)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            scored = list(results)
        finally:
            pool.shutdown(cancel_futures=True)
    designs.update(zip(todo, scored))
    for g, key in keys.items():
        memo[g] = replace(designs[key], genome=g)
    return [memo[g] for g in genomes]


# --- integer variation operators ---

def _reflect(x: float, lo: int, hi: int) -> int:
    """Round to int and fold back into [lo, hi] by boundary reflection."""
    v = int(round(x))
    if hi <= lo:
        return lo
    span = hi - lo
    d = (v - lo) % (2 * span)
    if d > span:
        d = 2 * span - d
    return lo + d


def sbx_crossover(a, b, lo, hi, eta: float,
                  rng: np.random.Generator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Simulated binary crossover in real space, rounded and reflected;
    each gene crosses with probability 1/2."""
    c1, c2 = list(a), list(b)
    for i in range(len(a)):
        if rng.random() > 0.5 or a[i] == b[i]:
            continue
        x1, x2 = sorted((float(a[i]), float(b[i])))
        u = rng.random()
        beta = (2 * u) ** (1 / (eta + 1)) if u <= 0.5 else \
            (1 / (2 * (1 - u))) ** (1 / (eta + 1))
        y1 = 0.5 * ((x1 + x2) - beta * (x2 - x1))
        y2 = 0.5 * ((x1 + x2) + beta * (x2 - x1))
        if rng.random() < 0.5:
            y1, y2 = y2, y1
        c1[i] = _reflect(y1, int(lo[i]), int(hi[i]))
        c2[i] = _reflect(y2, int(lo[i]), int(hi[i]))
    return tuple(c1), tuple(c2)


def polynomial_mutation(g, lo, hi, eta: float, rng: np.random.Generator,
                        p_gene: float | None = None) -> tuple[int, ...]:
    """Polynomial mutation in real space, rounded and reflected."""
    out = list(g)
    p = (1.0 / len(g)) if p_gene is None else p_gene
    for i in range(len(g)):
        if rng.random() > p or hi[i] <= lo[i]:
            continue
        span = float(hi[i] - lo[i])
        u = rng.random()
        if u < 0.5:
            delta = (2 * u) ** (1 / (eta + 1)) - 1
        else:
            delta = 1 - (2 * (1 - u)) ** (1 / (eta + 1))
        out[i] = _reflect(float(g[i]) + delta * span, int(lo[i]), int(hi[i]))
    return tuple(out)


# --- ranking helpers ---

def scalarize(res: EvalResult, names, weights: dict[str, float]) -> float:
    vec = res.objectives.as_tuple(names)
    # a left fold from int 0, as sum() adds before Python 3.12
    return reduce(add, (weights.get(n, 0.0) * v for n, v in zip(names, vec)), 0)


def rank_key(res: EvalResult, names, weights) -> tuple[float, float]:
    """Feasibility-first total order for single-objective selection."""
    return (res.violation, scalarize(res, names, weights))


def dominance(violation, objectives) -> np.ndarray:
    """dom[i, j]: candidate i dominates candidate j, for n candidates given
    as n violations and an n x k objective matrix. Feasibility-first: a
    feasible candidate (violation 0) dominates every infeasible one, the
    smaller of two violations wins, and two feasible candidates compare by
    Pareto dominance (no objective worse, one better)."""
    v = np.asarray(violation, dtype=np.float64)
    bad = v > 0.0
    no_worse = np.ones((len(v), len(v)), dtype=bool)
    better = np.zeros_like(no_worse)
    for col in np.asarray(objectives, dtype=np.float64).T:
        no_worse &= col[:, None] <= col[None, :]
        better |= col[:, None] < col[None, :]
    pareto = no_worse & better & ~bad[:, None] & ~bad[None, :]
    return pareto | (bad[None, :] & (~bad[:, None] | (v[:, None] < v[None, :])))


def _dominance_of(results, names) -> np.ndarray:
    return dominance([r.violation for r in results],
                     [r.objectives.as_tuple(names) for r in results])


class ParetoArchive:
    """Elitist archive of mutually non-dominated results."""

    def __init__(self, names):
        self.names = tuple(names)
        self.members: list[EvalResult] = []

    def update(self, results) -> None:
        """Keep the non-dominated of members + results, the first of each
        genome, in arrival order. That equals adding them one at a time
        because a genome always evaluates to the same result."""
        first = {}
        for r in (*self.members, *results):
            first.setdefault(r.genome, r)
        pool = list(first.values())
        beaten = _dominance_of(pool, self.names).any(axis=0)
        self.members = [r for r, b in zip(pool, beaten) if not b]

    def check_invariant(self) -> None:
        if _dominance_of(self.members, self.names).any():
            raise AssertionError("archive holds a dominated member")

    def front(self) -> list[EvalResult]:
        return sorted(self.members,
                      key=lambda r: r.objectives.as_tuple(self.names))


def hypervolume_2d(points, ref: tuple[float, float]) -> float:
    """Dominated area between a 2D minimization front and a reference point."""
    pts = sorted(p for p in points if p[0] < ref[0] and p[1] < ref[1])
    hv = 0.0
    prev_y = ref[1]
    for (x, y) in pts:
        if y < prev_y:
            hv += (ref[0] - x) * (prev_y - y)
            prev_y = y
    return hv


def non_dominated_sort(results, names) -> list[list[int]]:
    """Indices grouped into fronts, best first. A front lists the
    candidates whose last dominator sits in the front before it, ordered
    by that dominator's position there, then by index."""
    dom = _dominance_of(results, names)
    count = dom.sum(axis=0)
    front = np.flatnonzero(count == 0)
    fronts = []
    while front.size:
        fronts.append(front.tolist())
        beats = dom[front]
        count -= beats.sum(axis=0)
        freed = np.flatnonzero((count == 0) & beats.any(axis=0))
        last = len(front) - 1 - beats[::-1, freed].argmax(axis=0)
        front = freed[np.argsort(last, kind="stable")]
    return fronts


def crowding_distance(results, idxs, names) -> dict[int, float]:
    dist = {i: 0.0 for i in idxs}
    vec = {i: results[i].objectives.as_tuple(names) for i in idxs}
    for m in range(len(names)):
        ordered = sorted(idxs, key=lambda i: vec[i][m])
        vals = [vec[i][m] for i in ordered]
        span = vals[-1] - vals[0]
        dist[ordered[0]] = math.inf
        dist[ordered[-1]] = math.inf
        if span <= 0:
            continue
        for p in range(1, len(ordered) - 1):
            dist[ordered[p]] += (vals[p + 1] - vals[p - 1]) / span
    return dist


# --- algorithm parameter bundle ---

@dataclass(frozen=True)
class AlgoParams:
    """Search settings. Construction, dataclasses.replace included, raises
    OptimizeError for a value no search can use."""

    algo: str = "nsga2"
    population: int = 40
    generations: int = 30
    offspring: int = 10
    eta_crossover: float = 3.0
    eta_mutation: float = 3.0
    p_crossover: float = 0.9
    p_mutation: float | None = None  # None -> 1/n_genes
    omega: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    weights: dict[str, float] = field(default_factory=lambda: {"energy": 1.0})

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise OptimizeError(f"unknown algorithm {self.algo!r}")
        if self.population < 1 or self.generations < 0:
            raise OptimizeError("population >= 1 and generations >= 0 required")
        if self.offspring < 1:
            raise OptimizeError("offspring must be >= 1")
        check_numbers(self, OptimizeError)
        # both size a list of genomes bred or sampled up front
        if max(self.population, self.offspring) > MAX_SNAPSHOT_SAMPLES:
            raise OptimizeError(f"population and offspring must be <= "
                                f"{MAX_SNAPSHOT_SAMPLES}")
        for name in ("p_crossover", "p_mutation"):
            p = getattr(self, name)
            if p is not None and p > 1:
                raise OptimizeError(f"{name} must be in [0, 1], got {p!r}")
        for key, w in sorted(self.weights.items()):
            if not math.isfinite(w):
                raise OptimizeError(f"weight_{key} must be finite, got {w!r}")


def load_algo_params(path) -> AlgoParams:
    """AlgoParams from the first [algorithm] section; absent keys keep the
    dataclass defaults, weight_<objective> keys fill the weights."""
    weight_keys = {entry_key("weights", name): name for name in OBJECTIVE_NAMES}
    fields_ = read_section(path, "algorithm", {f.name for f in fields(AlgoParams)}
                           - {"weights"} | weight_keys.keys(), OptimizeError)
    kwargs = get_numbers(fields_, AlgoParams(), str(path))
    if "algo" in fields_:
        kwargs["algo"] = fields_["algo"]
    weights = {weight_keys[key]: convert(fields_[key], float, str(path), key)
               for key in fields_ if key in weight_keys}
    if weights:
        kwargs["weights"] = weights
    return AlgoParams(**kwargs)


# --- search ---

def _tournament(rng, pop_results, keys) -> EvalResult:
    """Binary tournament; keys[i] is pop_results[i]'s rank_key."""
    i, j = rng.integers(0, len(pop_results), size=2)
    return pop_results[int(i) if keys[i] <= keys[j] else int(j)]


def check_search(algo: str, ctx: EvalContext, params: AlgoParams,
                 workers: int) -> None:
    """Raise OptimizeError where algo's search would before its first
    evaluation, so a caller can check before it opens a run directory."""
    evaluate_batch([], ctx, workers)  # the empty batch checks workers
    if algo == "nsga2" and len(ctx.objective_names) < 2:
        raise OptimizeError("nsga2 needs at least 2 objectives")
    # ga and pso rank by the weighted sum alone, which is 0 for every genome
    # when no objective of the search carries a weight
    if algo != "nsga2" and not any(params.weights.get(n, 0.0)
                                   for n in ctx.objective_names):
        raise OptimizeError(f"{algo} needs a nonzero weight_<objective> for one "
                            f"of {', '.join(ctx.objective_names)}")


def _breed(rng, results, n_children: int, lo, hi, params: AlgoParams,
           names) -> list[tuple[int, ...]]:
    """Tournament -> SBX -> polynomial mutation until n_children exist."""
    keys = [rank_key(r, names, params.weights) for r in results]
    children: list[tuple[int, ...]] = []
    while len(children) < n_children:
        p1 = _tournament(rng, results, keys)
        p2 = _tournament(rng, results, keys)
        if rng.random() < params.p_crossover:
            c1, c2 = sbx_crossover(p1.genome, p2.genome, lo, hi,
                                   params.eta_crossover, rng)
        else:
            c1, c2 = p1.genome, p2.genome
        for child in (c1, c2):
            if len(children) < n_children:
                children.append(polynomial_mutation(
                    child, lo, hi, params.eta_mutation, rng, params.p_mutation))
    return children


def _ga(ctx: EvalContext, params: AlgoParams, rng, batch, results):
    """Elitist generational GA on the scalarized objective.

    Yields the best result and its scalar, the best so far."""
    lo, hi = ctx.space.bounds()
    names, weights = ctx.objective_names, params.weights
    rank = partial(rank_key, names=names, weights=weights)
    best = min(results, key=rank)
    child_results = results
    while True:
        yield child_results, best, scalarize(best, names, weights)
        child_results = batch(_breed(rng, results, params.population, lo, hi,
                                     params, names))
        results = sorted(results + child_results, key=rank)[:params.population]
        best = min(best, results[0], key=rank)


def _nsga2(ctx: EvalContext, params: AlgoParams, rng, batch, results):
    """(mu=population, lambda=offspring) NSGA-II with an elitist archive.

    Yields the archive and its hypervolume. The hypervolume reference is
    fixed from the first generation's worst feasible corner, so the
    elitist archive makes the history non-decreasing.
    """
    lo, hi = ctx.space.bounds()
    names = ctx.objective_names
    archive = ParetoArchive(names)
    archive.update(r for r in results if r.feasible)
    feas = [r.objectives.as_tuple(names)[:2] for r in results if r.feasible]
    if feas:
        ref = (max(v[0] for v in feas) * 1.1 + 1.0,
               max(v[1] for v in feas) * 1.1 + 1.0)
    else:
        ref = (PENALTY_BASE, PENALTY_BASE)
    child_results = results
    while True:
        yield child_results, archive, hypervolume_2d(
            [r.objectives.as_tuple(names)[:2] for r in archive.members], ref)
        child_results = batch(_breed(rng, results, params.offspring, lo, hi,
                                     params, names))
        archive.update(r for r in child_results if r.feasible)
        archive.check_invariant()
        # survival: whole fronts while they fit, then the most crowded-apart
        cands, results = results + child_results, []
        for front in non_dominated_sort(cands, names):
            if len(results) + len(front) <= params.population:
                results.extend(cands[i] for i in front)
            else:
                dist = crowding_distance(cands, front, names)
                ranked = sorted(front, key=lambda i: -dist[i])
                results.extend(cands[i] for i in
                               ranked[:params.population - len(results)])
                break


def _pso(ctx: EvalContext, params: AlgoParams, rng, batch, results):
    """Integer PSO: real-valued velocities, positions rounded and reflected.

    Yields the global best and its scalar."""
    lo, hi = ctx.space.bounds()
    names, weights = ctx.objective_names, params.weights
    rank = partial(rank_key, names=names, weights=weights)
    n = params.population
    dim = ctx.space.n_genes
    pos = np.array([r.genome for r in results], dtype=np.int64)
    vel = np.zeros((n, dim), dtype=np.float64)
    pbest = list(results)
    gbest = min(results, key=rank)
    while True:
        yield results, gbest, scalarize(gbest, names, weights)
        r1 = rng.random((n, dim))
        r2 = rng.random((n, dim))
        pb = np.array([p.genome for p in pbest], dtype=np.float64)
        gb = np.array(gbest.genome, dtype=np.float64)
        vel = (params.omega * vel + params.c1 * r1 * (pb - pos)
               + params.c2 * r2 * (gb - pos))
        genomes = [tuple(_reflect(float(x), int(a), int(b))
                         for x, a, b in zip(row, lo, hi)) for row in pos + vel]
        pos = np.array(genomes, dtype=np.int64)
        results = batch(genomes)
        pbest = [min(p, r, key=rank) for p, r in zip(pbest, results)]
        gbest = min([gbest, *results], key=rank)


_STEPS = {"ga": _ga, "nsga2": _nsga2, "pso": _pso}


def run_search(algo: str, ctx: EvalContext, params: AlgoParams, seed: int,
               workers: int = 1, on_generation=None):
    """Search with algo's step, a generator (ctx, params, rng, batch, the
    first population's results) that yields once per generation (results
    evaluated this generation, best result or archive, progress). Each of
    generations 0..params.generations reaches on_generation(gen, results,
    best or archive).

    Returns (best result or archive, progress history per generation).
    """
    check_search(algo, ctx, params, workers)
    rng = np.random.default_rng(seed)
    pop = [ctx.space.sample(rng) for _ in range(params.population)]
    memo, designs = {}, {}  # the genome and design memos of evaluate_batch

    def batch(genomes) -> list[EvalResult]:
        return evaluate_batch(genomes, ctx, workers, memo, designs)

    steps = _STEPS[algo](ctx, params, rng, batch, batch(pop))
    history = []
    # the range goes first, so zip never asks for a step past the last
    for gen, (results, found, progress) in zip(range(params.generations + 1),
                                               steps):
        history.append(progress)
        if on_generation:
            on_generation(gen, results, found)
    return found, history


RUNNERS = {algo: partial(run_search, algo) for algo in _STEPS}
ALGOS = tuple(RUNNERS)
run_ga, run_nsga2, run_pso = RUNNERS.values()
