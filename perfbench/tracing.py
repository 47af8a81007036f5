"""Spans around calls into qsafe, recorded from the benchmark's own code.

``install`` replaces the public functions listed in ``SPANS`` with
wrappers, in every ``qsafe`` module namespace that holds them, so calls
from the workload and calls between qsafe modules are both seen.  The
source under ``src/`` is not edited.  Each span records its name,
start, end and parent; spans stay in memory until the pass ends and are
then folded into per-layer totals, so nothing is written while the
workload runs.  A layer's time is the self time of its spans: duration
minus the part of it that child spans cover.

Standard library only.  ``field_weight`` and private helpers are not
wrapped: they are called once per layout entry or per row, and a span
there would cost more than the work it measures.
"""

import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

LAYOUT_FUNCS = ("single_in_single_out", "ecdsa_mega", "schnorr_mega", "canonical_layouts")
CAPACITY_FUNCS = ("fixed_overhead", "per_input_weight", "standalone_upgrade_weight",
                  "mega_capacity", "per_block_capacity", "blocks_required")
MC_FUNCS = ("break_duration", "success_probability_closed_form", "race_win_count",
            "success_probability_monte_carlo", "sweep")
TABLE_FUNCS = ("signature_ratio", "post_upgrade_layout", "post_upgrade_transaction_weight",
               "transactions_per_block", "throughput_slowdown")

# module -> {public function: the per-layer time metric its self time feeds}
SPANS = {
    "weight_model": {**{name: "weight_model.layout_s" for name in LAYOUT_FUNCS},
                     "transaction_weight": "weight_model.weight_s",
                     "cumulative_weights": "weight_model.weight_s"},
    "block_packer": {name: "block_packer.capacity_s" for name in CAPACITY_FUNCS},
    "migration_planner": {"lower_bound_duration": "migration_planner.grid_s",
                          "mixed_duration": "migration_planner.grid_s",
                          "bandwidth_table": "migration_planner.grid_s",
                          "throttled_schedule": "migration_planner.schedule_s"},
    "jit_attack_sim": {name: "jit_attack_sim.mc_s" for name in MC_FUNCS},
    "pq_impact": {name: "pq_impact.table_s" for name in TABLE_FUNCS},
    "cli_report": {"build_parser": "cli_report.parse_s",
                   "load_snapshot": "cli_report.parse_s",
                   "render_report": "cli_report.render_s",
                   "emit_report": "cli_report.render_s"},
}
MODULES = tuple(SPANS)

# Calls whose allocation peak the allocation pass records, and the
# metric the largest peak goes to.
PEAK_METRICS = {
    "migration_planner.throttled_schedule": "migration_planner.schedule_peak_mb",
    "jit_attack_sim.race_win_count": "jit_attack_sim.peak_alloc_mb",
}

TIME_METRICS = sorted({metric for funcs in SPANS.values() for metric in funcs.values()})
COUNT_METRICS = ("weight_model.entries", "block_packer.calls",
                 "migration_planner.blocks_enumerated", "jit_attack_sim.trials",
                 "jit_attack_sim.calls", "cli_report.rows_rendered")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_entries(counts, args, kwargs, result):
    layout = _arg(args, kwargs, 0, "layout")
    counts["weight_model.entries"] += len(getattr(layout, "entries", ()))


def _count_capacity(counts, args, kwargs, result):
    counts["block_packer.calls"] += 1


def _count_blocks(counts, args, kwargs, result):
    # Per-block entries the returned timeline holds; 0 once it stops
    # materialising one entry per block.
    counts["migration_planner.blocks_enumerated"] += len(getattr(result, "allocations", ()))


def _count_trials(counts, args, kwargs, result):
    counts["jit_attack_sim.calls"] += 1
    counts["jit_attack_sim.trials"] += (_arg(args, kwargs, 3, "stop")
                                        - _arg(args, kwargs, 2, "start"))


def _count_rows(counts, args, kwargs, result):
    counts["cli_report.rows_rendered"] += len(_arg(args, kwargs, 0, "rows"))


COUNTERS = {
    "weight_model.transaction_weight": _count_entries,
    "weight_model.cumulative_weights": _count_entries,
    **{f"block_packer.{name}": _count_capacity for name in CAPACITY_FUNCS},
    "migration_planner.throttled_schedule": _count_blocks,
    "jit_attack_sim.race_win_count": _count_trials,
    "cli_report.render_report": _count_rows,
}


class Tracer:
    """In-memory span store for one pass of a workload."""

    def __init__(self):
        self.alloc = False  # record allocation peaks (allocation pass only)
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []
        self.counts = defaultdict(int)
        self.peaks = defaultdict(list)  # span name -> [(peak bytes, trials)]

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        peak = name in PEAK_METRICS
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            measure_peak = peak and self.alloc
            if measure_peak:
                tracemalloc.start()
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if measure_peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            if measure_peak:
                trials = (_arg(args, kwargs, 3, "stop") - _arg(args, kwargs, 2, "start")
                          if name == "jit_attack_sim.race_win_count" else 0)
                self.peaks[name].append((peak_bytes, trials))
            return result

        return traced

    def wrap_parser(self, fn):
        # build_parser's result parses the argv: time parse_args too.
        def traced_build(*args, **kwargs):
            parser = fn(*args, **kwargs)
            parser.parse_args = self.wrap("cli_report.parse_args", parser.parse_args)
            return parser
        return self.wrap("cli_report.build_parser", traced_build)

    def layer_metrics(self) -> dict:
        """Per-layer totals of this pass: self seconds, counts and peaks."""
        metrics = dict.fromkeys(TIME_METRICS, 0.0)
        owner = {f"{module}.{name}": metric
                 for module, funcs in SPANS.items() for name, metric in funcs.items()}
        owner["cli_report.parse_args"] = "cli_report.parse_s"
        selfs = self_times(self.starts, self.ends, self.parents)
        for name, self_s in zip(self.names, selfs):
            metrics[owner[name]] += self_s
        for metric in COUNT_METRICS:
            metrics[metric] = self.counts[metric]
        for name, metric in PEAK_METRICS.items():
            samples = self.peaks.get(name)
            if samples:
                metrics[metric] = max(peak for peak, _ in samples) / 2**20
        per_trial = [peak / trials for peak, trials
                     in self.peaks.get("jit_attack_sim.race_win_count", ()) if trials]
        if per_trial:
            metrics["jit_attack_sim.alloc_bytes_per_trial"] = statistics.median(per_trial)
        return metrics


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            lo, hi = max(starts[child], reach), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def install(tracer: Tracer, package: str = "qsafe"):
    """Wrap the listed functions everywhere ``package`` binds them.

    Returns a function that restores the originals.  Functions a later
    version no longer has are skipped.
    """
    namespaces = [module for name, module in sorted(sys.modules.items())
                  if name == package or name.startswith(package + ".")]
    restore = []
    for module_name, funcs in SPANS.items():
        home = sys.modules.get(f"{package}.{module_name}")
        if home is None:
            continue
        for func_name in funcs:
            original = getattr(home, func_name, None)
            if original is None:
                continue
            span_name = f"{module_name}.{func_name}"
            if span_name == "cli_report.build_parser":
                wrapper = tracer.wrap_parser(original)
            else:
                wrapper = tracer.wrap(span_name, original)
            for namespace in namespaces:
                if namespace.__dict__.get(func_name) is original:
                    setattr(namespace, func_name, wrapper)
                    restore.append((namespace, func_name, original))

    def uninstall():
        for namespace, func_name, original in reversed(restore):
            setattr(namespace, func_name, original)
    return uninstall


# --- import-time split --------------------------------------------------


def parse_importtime(stderr_text: str) -> list:
    """``(module, depth, cumulative seconds)`` per ``-X importtime`` line,
    in the order printed (a module follows everything it imported)."""
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|", 2)
        entries.append((name.strip(), len(name) - len(name.lstrip()),
                        int(cumulative) / 1e6))
    return entries


def import_split(entries: list, package: str = "qsafe") -> dict:
    """``<module>.import_s`` for each qsafe layer: the module's cumulative
    import time.  ``jit_attack_sim`` also carries numpy's import when
    numpy was imported outside it, so moving the numpy import elsewhere
    does not hide its cost."""
    split = {}
    position = {}
    for index, (name, _, _) in enumerate(entries):
        # ``import qsafe.x`` prints a second, near-empty line for qsafe.x
        # after the package; the first line is where its code ran.
        position.setdefault(name, index)
    for module in MODULES:
        index = position.get(f"{package}.{module}")
        split[f"{module}.import_s"] = entries[index][2] if index is not None else 0.0
    numpy_index = position.get("numpy")
    if numpy_index is not None:
        jit_index = position.get(f"{package}.jit_attack_sim")
        if jit_index is None or not _inside(entries, numpy_index, jit_index):
            split["jit_attack_sim.import_s"] += entries[numpy_index][2]
    return split


def _inside(entries, child, parent) -> bool:
    """Whether entry ``child`` lies in the import subtree of ``parent``."""
    if child > parent:
        return False
    depth = entries[parent][1]
    return all(entries[i][1] > depth for i in range(child, parent))
