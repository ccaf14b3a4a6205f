"""Integer-genome search over mappings and architecture parameters.

A genome is (n_cores, axis) per layer plus optional global menu genes
(NPEs, weight bit-width, memory, clock, flit width, frame rate, mesh
scheme). Decoding never clamps, so encode(decode(g)) == g; structurally
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial, reduce
from operator import add

import numpy as np

from .configio import MAX_SNAPSHOT_SAMPLES, check_numbers, convert, get_numbers, read_section
from .fidelity import FidelityError, from_values, xcorr_score
from .mesh import SCHEMES, compress, place
from .partition import (
    AXES,
    LayerSplit,
    PartitionError,
    PartitionSpec,
    build_mapping,
    flat_range,
)
from .simcost import CostReport, HardwareConfig, SimError, simulate
from .workload import EventTrace, NetworkModel, retime_trace

PENALTY_BASE = 1e18
STRUCTURAL_VIOLATION = 1e12

OBJECTIVE_NAMES = ("energy", "latency", "area", "fidelity_penalty")

# fidelity penalty per ms of end-signal shift, on top of 1 - peak
SHIFT_WEIGHT = 1e-3


class OptimizeError(ValueError):
    pass


# Optional architecture genes, in gene order; a space carries one gene per
# non-None menu. Each entry is GenomeSpace menu field -> (decoded slot it
# sets, apply(slot value, menu value, base hw) -> slot value, read(slot
# value) -> menu value). The slots are "hw", "model", "scheme" and "fps".
MENU_GENES = {
    "npes_menu": ("hw", lambda hw, n, base: replace(
        hw, npes_per_core=int(n), e_npe_op=base.e_npe_op * int(n),
        p_static_core=base.p_static_core * int(n)),
        lambda hw: hw.npes_per_core),
    "bw_weights_menu": ("model", lambda m, bw, _: replace(
        m, bitwidths=replace(m.bitwidths, weights=int(bw))),
        lambda m: m.bitwidths.weights),
    "mem_menu": ("hw", lambda hw, v, _: replace(hw, mem_per_core=int(v)),
                 lambda hw: hw.mem_per_core),
    "clock_menu": ("hw", lambda hw, v, _: replace(
        hw.scaled_times(float(v)), clock_period=float(v)),
        lambda hw: hw.clock_period),
    "flit_menu": ("hw", lambda hw, v, _: replace(hw, flit_bits=int(v)),
                  lambda hw: hw.flit_bits),
    "fps_menu": ("fps", lambda _, v, __: float(v), lambda fps: fps),
    "scheme_menu": ("scheme", lambda _, v, __: str(v), lambda s: s),
}


@dataclass(frozen=True)
class GenomeSpace:
    """Bounds and menus defining the integer search space."""

    n_layers: int
    c_max: int = 16
    axes_menu: tuple[str, ...] = AXES
    npes_menu: tuple[int, ...] | None = None
    bw_weights_menu: tuple[int, ...] | None = None
    mem_menu: tuple[int, ...] | None = None
    clock_menu: tuple[float, ...] | None = None
    flit_menu: tuple[int, ...] | None = None
    fps_menu: tuple[float, ...] | None = None
    scheme_menu: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_layers < 1 or self.c_max < 1:
            raise OptimizeError("n_layers and c_max must be >= 1")
        if not self.axes_menu or any(a not in AXES for a in self.axes_menu):
            raise OptimizeError(f"axes_menu entries must be among {AXES}")
        for name in ("axes_menu", *MENU_GENES):
            menu = getattr(self, name)
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
            hi += [self.c_max, len(self.axes_menu) - 1]
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


def _apply_menus(genome, space: GenomeSpace, slots: dict,
                 base_hw: HardwareConfig | None = None) -> dict:
    """Apply the genome's menu genes to the given slots; others are skipped."""
    for pos, (name, menu) in enumerate(space._menus(), 2 * space.n_layers):
        slot, apply, _ = MENU_GENES[name]
        if slot in slots:
            slots[slot] = apply(slots[slot], menu[int(genome[pos])], base_hw)
    return slots


def decode(genome, model: NetworkModel, base_hw: HardwareConfig,
           space: GenomeSpace, default_scheme: str = "strict-area"):
    """(PartitionSpec, HardwareConfig, scheme, fps_override).

    fps_override is None unless the space carries an fps gene. Clock menu
    values multiply every base time constant. NPE count scales e_npe_op
    and p_static_core relative to the base's per-lane figures. The weight
    bit-width gene is left to decode_model.
    """
    space.validate_genome(genome)
    splits = []
    for i in range(space.n_layers):
        n_cores = int(genome[2 * i])
        axis = space.axes_menu[int(genome[2 * i + 1])]
        splits.append(LayerSplit(n_cores=n_cores, axis=axis))
    slots = _apply_menus(genome, space, {"hw": base_hw, "scheme": default_scheme,
                                         "fps": None}, base_hw)
    return PartitionSpec(tuple(splits)), slots["hw"], slots["scheme"], slots["fps"]


def decode_model(genome, model: NetworkModel, space: GenomeSpace) -> NetworkModel:
    """Model with the genome's weight bit-width applied, if that gene exists."""
    return _apply_menus(genome, space, {"model": model})["model"]


def encode(spec: PartitionSpec, hw: HardwareConfig, scheme: str,
           fps_override: float | None, base_hw: HardwareConfig,
           space: GenomeSpace, model: NetworkModel | None = None) -> tuple[int, ...]:
    """Inverse of decode for genomes within bounds."""
    genes: list[int] = []
    for split in spec.splits:
        genes.append(split.n_cores)
        genes.append(space.axes_menu.index(split.axis))
    slots = {"hw": hw, "scheme": scheme, "fps": fps_override, "model": model}
    for (name, menu) in space._menus():
        slot, _, read = MENU_GENES[name]
        if slot == "model" and model is None:
            raise OptimizeError(f"encoding a {name.removesuffix('_menu')} "
                                "gene needs the model")
        genes.append(menu.index(read(slots[slot])))
    return tuple(genes)


@dataclass(frozen=True)
class Objectives:
    energy: float
    latency: float
    area: float
    fidelity_penalty: float

    def as_tuple(self, names) -> tuple[float, ...]:
        return tuple([getattr(self, n) for n in names])


@dataclass(frozen=True)
class EvalContext:
    model: NetworkModel
    trace: EventTrace
    base_hw: HardwareConfig
    space: GenomeSpace
    scheme: str = "strict-area"
    objective_names: tuple[str, ...] = ("energy", "latency")
    reference: tuple[float, ...] | None = None
    signal_dt: float = 1.0

    def __post_init__(self):
        if not self.objective_names:
            raise OptimizeError("no objectives given")
        for n in self.objective_names:
            if n not in OBJECTIVE_NAMES:
                raise OptimizeError(f"unknown objective {n!r}")


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
                      objectives=Objectives(v, v, v, v),
                      violation=violation, n_cores=0, mesh_shape=(0, 0),
                      error=error)


def fidelity_penalty_of(end_signal, ctx: EvalContext) -> float:
    if ctx.reference is None:
        return 0.0
    values = [v for (_, v) in end_signal]
    try:
        peak, shift_ms = xcorr_score(from_values(values, ctx.signal_dt),
                                     from_values(ctx.reference, ctx.signal_dt))
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
    model = decode_model(genome, ctx.model, ctx.space)
    spec, hw, scheme, fps_override = decode(genome, model, ctx.base_hw,
                                            ctx.space, ctx.scheme)
    mapping = build_mapping(model, spec, m_max=hw.mem_per_core,
                            enforce_cap=False)
    trace = ctx.trace
    if fps_override is not None and fps_override != trace.fps:
        trace = retime_trace(trace, fps_override)
    n = mapping.n_cores_total
    placement = place(n, compress(n, scheme))
    return _Design(model, mapping, placement, hw, trace)


def _design_key(design: _Design) -> tuple:
    """Everything of a design that its simulation and objectives read,
    given one EvalContext: two designs with one key score alike.

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
    return (parts, layers, model.bitwidths, hw, placement.rows,
            placement.cols, placement.coords, trace.fps)


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
    (genome, ctx), and the simulation keeps no cost_log.
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
        # the workers fork with SIGINT blocked, so a Ctrl-C stops only this
        # process, which then waits for the running tasks alone
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                results = pool.map(partial(evaluate, ctx=ctx),
                                   [g for g, _ in todo.values()], chunksize=8)
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


def sbx_crossover(a, b, lo, hi, eta: float, rng: np.random.Generator,
                  p_var: float = 0.5) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Simulated binary crossover in real space, rounded and reflected."""
    c1, c2 = list(a), list(b)
    for i in range(len(a)):
        if rng.random() > p_var or a[i] == b[i]:
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


def dominates(a: EvalResult, b: EvalResult, names) -> bool:
    """Feasibility-first Pareto dominance of a over b."""
    return bool(_dominance_of((a, b), names)[0, 1])


class ParetoArchive:
    """Elitist archive of mutually non-dominated results."""

    def __init__(self, names):
        self.names = tuple(names)
        self.members: list[EvalResult] = []

    def add(self, res: EvalResult) -> bool:
        """Offer one result; True when it joins the archive."""
        if any(m.genome == res.genome for m in self.members):
            return False
        self.update([res])
        return self.members[-1] is res

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

    def validate(self) -> None:
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
    weight_keys = {f"weight_{name}" for name in OBJECTIVE_NAMES}
    fields_ = read_section(path, "algorithm", {f.name for f in fields(AlgoParams)}
                           - {"weights"} | weight_keys, OptimizeError)
    kwargs = get_numbers(fields_, AlgoParams(), str(path))
    if "algo" in fields_:
        kwargs["algo"] = fields_["algo"]
    weights = {key.removeprefix("weight_"): convert(fields_[key], float, str(path), key)
               for key in fields_ if key in weight_keys}
    if weights:
        kwargs["weights"] = weights
    params = AlgoParams(**kwargs)
    params.validate()
    return params


# --- search loops ---

def _tournament(rng, pop_results, keys) -> EvalResult:
    """Binary tournament; keys[i] is pop_results[i]'s rank_key."""
    i, j = rng.integers(0, len(pop_results), size=2)
    return pop_results[int(i) if keys[i] <= keys[j] else int(j)]


def _initial_population(ctx: EvalContext, params: AlgoParams, seed: int,
                        workers: int):
    """Validated params, the seeded RNG, the run's batch evaluator (with
    the run's genome and design memos) and the evaluated first population."""
    params.validate()
    rng = np.random.default_rng(seed)
    pop = [ctx.space.sample(rng) for _ in range(params.population)]
    memo: dict[tuple[int, ...], EvalResult] = {}
    designs: dict[tuple, EvalResult] = {}

    def batch(genomes) -> list[EvalResult]:
        return evaluate_batch(genomes, ctx, workers, memo, designs)
    return rng, batch, batch(pop)


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


def run_ga(ctx: EvalContext, params: AlgoParams, seed: int, workers: int = 1,
           on_generation=None) -> tuple[EvalResult, list[float]]:
    """Elitist generational GA on the scalarized objective.

    Returns (best result, best-so-far history per generation).
    """
    rng, batch, results = _initial_population(ctx, params, seed, workers)
    lo, hi = ctx.space.bounds()
    names, weights = ctx.objective_names, params.weights
    best = min(results, key=lambda r: rank_key(r, names, weights))
    history = [scalarize(best, names, weights)]
    if on_generation:
        on_generation(0, results, best)
    for gen in range(1, params.generations + 1):
        offspring = _breed(rng, results, params.population, lo, hi, params,
                           names)
        child_results = batch(offspring)
        merged = results + child_results
        merged.sort(key=lambda r: rank_key(r, names, weights))
        results = merged[:params.population]
        gen_best = results[0]
        if rank_key(gen_best, names, weights) < rank_key(best, names, weights):
            best = gen_best
        history.append(scalarize(best, names, weights))
        if on_generation:
            on_generation(gen, child_results, best)
    return best, history


def run_nsga2(ctx: EvalContext, params: AlgoParams, seed: int, workers: int = 1,
              on_generation=None) -> tuple[ParetoArchive, list[float]]:
    """(mu=population, lambda=offspring) NSGA-II with an elitist archive.

    Returns (archive, hypervolume history). The hypervolume reference is
    fixed from the first generation's worst feasible corner, so the
    elitist archive makes the history non-decreasing.
    """
    if len(ctx.objective_names) < 2:
        raise OptimizeError("nsga2 needs at least 2 objectives")
    rng, batch, results = _initial_population(ctx, params, seed, workers)
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
    history = [hypervolume_2d([r.objectives.as_tuple(names)[:2]
                               for r in archive.members], ref)]
    if on_generation:
        on_generation(0, results, archive)

    def survival(cands: list[EvalResult]) -> list[EvalResult]:
        fronts = non_dominated_sort(cands, names)
        keep: list[EvalResult] = []
        for front in fronts:
            if len(keep) + len(front) <= params.population:
                keep.extend(cands[i] for i in front)
            else:
                dist = crowding_distance(cands, front, names)
                ranked = sorted(front, key=lambda i: -dist[i])
                keep.extend(cands[i] for i in
                            ranked[:params.population - len(keep)])
                break
        return keep

    for gen in range(1, params.generations + 1):
        offspring = _breed(rng, results, params.offspring, lo, hi, params,
                           names)
        child_results = batch(offspring)
        archive.update(r for r in child_results if r.feasible)
        archive.check_invariant()
        results = survival(results + child_results)
        history.append(hypervolume_2d([r.objectives.as_tuple(names)[:2]
                                       for r in archive.members], ref))
        if on_generation:
            on_generation(gen, child_results, archive)
    return archive, history


def run_pso(ctx: EvalContext, params: AlgoParams, seed: int, workers: int = 1,
            on_generation=None) -> tuple[EvalResult, list[float]]:
    """Integer PSO: real-valued velocities, positions rounded and reflected."""
    rng, batch, results = _initial_population(ctx, params, seed, workers)
    lo, hi = ctx.space.bounds()
    names, weights = ctx.objective_names, params.weights
    n = params.population
    dim = ctx.space.n_genes
    pos = np.array([r.genome for r in results], dtype=np.int64)
    vel = np.zeros((n, dim), dtype=np.float64)
    pbest = list(results)
    gbest = min(results, key=lambda r: rank_key(r, names, weights))
    history = [scalarize(gbest, names, weights)]
    if on_generation:
        on_generation(0, results, gbest)
    for gen in range(1, params.generations + 1):
        r1 = rng.random((n, dim))
        r2 = rng.random((n, dim))
        pb = np.stack([np.array(p.genome) for p in pbest]).astype(np.float64)
        gb = np.array(gbest.genome, dtype=np.float64)
        vel = (params.omega * vel + params.c1 * r1 * (pb - pos)
               + params.c2 * r2 * (gb - pos))
        raw = pos + vel
        new_pos = np.empty_like(pos)
        for i in range(n):
            for d in range(dim):
                new_pos[i, d] = _reflect(float(raw[i, d]), int(lo[d]), int(hi[d]))
        pos = new_pos
        results = batch([tuple(int(v) for v in p) for p in pos])
        for i, r in enumerate(results):
            if rank_key(r, names, weights) < rank_key(pbest[i], names, weights):
                pbest[i] = r
        cand = min(results, key=lambda r: rank_key(r, names, weights))
        if rank_key(cand, names, weights) < rank_key(gbest, names, weights):
            gbest = cand
        history.append(scalarize(gbest, names, weights))
        if on_generation:
            on_generation(gen, results, gbest)
    return gbest, history


RUNNERS = {"ga": run_ga, "nsga2": run_nsga2, "pso": run_pso}
ALGOS = tuple(RUNNERS)
