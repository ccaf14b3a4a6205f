"""Per-layer spans recorded from outside the program.

A traced rep replaces the public functions of each ``neuromap`` module with
timing wrappers, in every namespace that holds them (a caller that did
``from .simcost import simulate`` looks the name up in its own module, so
the wrapper must be installed there too). Each span records its name,
start, end and parent; spans stay in memory and are reduced to per-layer
metrics when the rep ends. Calls made inside pool workers are not seen:
the parent only records its own side.

A target the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# "module.attribute" of every wrapped function; the span takes this name
TARGETS = (
    "workload.load_network", "workload.synth_trace",
    "partition.build_mapping", "mesh.compress", "mesh.place",
    "simcost.simulate", "simcost.write_run_files", "fidelity.xcorr_score",
    "optimize.decode", "optimize.decode_model", "optimize.evaluate",
    "optimize.simulate_genome", "optimize.evaluate_batch",
    "optimize.non_dominated_sort", "optimize.crowding_distance",
    "optimize.sbx_crossover", "optimize.polynomial_mutation",
    "optimize.ParetoArchive.update", "optimize.ParetoArchive.check_invariant",
    "optimize.run_nsga2", "analytics.open_run", "analytics.record_evaluation",
    "analytics.record_generation", "analytics.finalize_run",
)

# counts that repeat exactly for a given seed (checked across reps)
EXACT_LAYER_COUNTS = ("simcost.events_processed", "simcost.cost_log_entries",
                      "analytics.resim_calls")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "raised")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0
        self.raised = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Span recorder; one per traced rep, single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        # simulated statistics read off simulate's return value
        self.events = 0
        self.cost_log = 0
        self.max_depth = 0
        self.trace_events = 0

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sp = Span(name, time.perf_counter(), parent)
            self.stack.append(sp)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                sp.raised = True
                raise
            finally:
                sp.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent.child_time += sp.duration
                self.spans.append(sp)
            self._observe(name, out)
            return out
        return wrapper

    def _observe(self, name: str, out) -> None:
        if name == "simcost.simulate":
            self.events += out.events_processed
            self.cost_log += len(out.cost_log)
            self.max_depth = max(self.max_depth,
                                 max(out.congestion.values(), default=0))
        elif name == "workload.synth_trace":
            self.trace_events += len(out.events)

    def install(self) -> None:
        """Wrap every target in every neuromap module that refers to it."""
        mods = {}
        for name in dict.fromkeys(t.split(".")[0] for t in TARGETS):
            try:
                mods[name] = importlib.import_module(f"neuromap.{name}")
            except ImportError:
                continue
        for name in TARGETS:
            mod_name, _, path = name.partition(".")
            mod = mods.get(mod_name)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.span(name, original)
            if owner is not mod:  # a method: patch the class only
                setattr(owner, attr, wrapped)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def layer_metrics(self, body_start: float, body_end: float) -> dict:
        """Per-layer metrics of the spans; 0 where a layer did no work."""
        by: dict[str, list[Span]] = {}
        for sp in self.spans:
            by.setdefault(sp.name, []).append(sp)

        def tot(*names):
            return sum(sp.duration for n in names for sp in by.get(n, ()))

        def calls(*names):
            return sum(len(by.get(n, ())) for n in names)

        def self_time(name):
            return sum(sp.self_time for sp in by.get(name, ()))

        sims = sorted(sp.duration for sp in by.get("simcost.simulate", ()))
        p50 = statistics.median(sims) if sims else 0.0
        p90 = (statistics.quantiles(sims, n=10, method="inclusive")[8]
               if len(sims) > 1 else p50)
        sim_s = tot("simcost.simulate")
        roots = sum(sp.duration for sp in self.spans
                    if sp.parent is None and sp.start >= body_start
                    and sp.end <= body_end)
        return {
            "simcost.simulate_s": sim_s,
            "simcost.simulate_calls": calls("simcost.simulate"),
            "simcost.simulate_p50_ms": p50 * 1e3,
            "simcost.simulate_p90_ms": p90 * 1e3,
            "simcost.events_processed": self.events,
            "simcost.host_us_per_event": (sim_s / self.events * 1e6
                                          if self.events else 0.0),
            "simcost.max_queue_depth": self.max_depth,
            "simcost.cost_log_entries": self.cost_log,
            "simcost.write_run_files_s": tot("simcost.write_run_files"),
            "simcost.write_run_files_calls": calls("simcost.write_run_files"),
            "optimize.evaluate_s": tot("optimize.evaluate"),
            "optimize.evaluate_calls": calls("optimize.evaluate"),
            "optimize.decode_s": tot("optimize.decode", "optimize.decode_model"),
            "optimize.evaluate_batch_s": tot("optimize.evaluate_batch"),
            "optimize.evaluate_batch_calls": calls("optimize.evaluate_batch"),
            "optimize.non_dominated_sort_s": tot("optimize.non_dominated_sort"),
            "optimize.crowding_distance_s": tot("optimize.crowding_distance"),
            "optimize.archive_update_s": tot(
                "optimize.ParetoArchive.update",
                "optimize.ParetoArchive.check_invariant"),
            "optimize.variation_s": tot("optimize.sbx_crossover",
                                        "optimize.polynomial_mutation"),
            "optimize.loop_self_s": self_time("optimize.run_nsga2"),
            "analytics.resim_s": tot("optimize.simulate_genome"),
            "analytics.resim_calls": calls("optimize.simulate_genome"),
            "analytics.record_evaluation_s": self_time("analytics.record_evaluation"),
            "analytics.record_evaluation_calls": calls("analytics.record_evaluation"),
            "analytics.record_generation_s": tot("analytics.record_generation"),
            "analytics.finalize_run_s": tot("analytics.finalize_run"),
            "analytics.open_run_s": tot("analytics.open_run"),
            "partition.build_mapping_s": tot("partition.build_mapping"),
            "partition.build_mapping_calls": calls("partition.build_mapping"),
            "partition.errors": sum(sp.raised for sp in
                                    by.get("partition.build_mapping", ())),
            "mesh.compress_place_s": tot("mesh.compress", "mesh.place"),
            "mesh.calls": calls("mesh.compress", "mesh.place"),
            "workload.load_network_s": tot("workload.load_network"),
            "workload.synth_trace_s": tot("workload.synth_trace"),
            "workload.trace_events": self.trace_events,
            "fidelity.xcorr_s": tot("fidelity.xcorr_score"),
            "fidelity.xcorr_calls": calls("fidelity.xcorr_score"),
            "trace.unattributed_s": (body_end - body_start) - roots,
        }
