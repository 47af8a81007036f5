"""One worker process of the in-process workloads.

    PYTHONPATH=src python perfbench/worker.py --workload mc-deep --seed 1 --mode run --seconds 15

Set-up is everything before the first pass can start: interpreter
start, importing the qsafe modules the workload calls, and input
generation.  The worker prints the moment set-up ends, so the parent can
time it from the spawn.  Modes:

- ``setup`` stops there;
- ``run`` makes one warm-up pass, reads its own peak RSS (set-up plus
  one pass: the workload's footprint), then makes timed passes until
  ``--seconds`` of timed work and ``--min-passes`` are done;
- ``trace`` makes one warm-up pass, then untraced and traced passes in
  ABBA order, then one pass that also records allocation peaks.

A pass is the whole workload once; its outputs are checked after it,
off the clock.  The last line of stdout is one JSON object.
"""

import argparse
import importlib
import json
import resource
import time
import traceback
import types

import inputs
import oracles
import tracing

clock = time.perf_counter
MAX_PROBLEMS = 5  # kept per pass, to explain a failure without flooding


class Pass:
    """Timing, failures and work counts of one pass."""

    def __init__(self):
        self.wall_s = 0.0
        self.op_s = []
        self.attempted = 0  # checked calls; failures count against these
        self.failed = set()  # op indices
        self.problems = []
        self.trials = 0

    def problem(self, op, message):
        self.failed.add(op)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def as_dict(self):
        return {"wall_s": self.wall_s, "op_s": self.op_s, "ops": len(self.op_s),
                "attempted": self.attempted, "failed": len(self.failed),
                "problems": self.problems,
                "trials": self.trials}


def _row_stamps(jit):
    """Record when each sweep row starts, to split a sweep into rows.

    Costs one clock read per row.  Returns the stamp list and a function
    that removes the recorder.
    """
    stamps = []
    inner = jit.success_probability_monte_carlo

    def stamped(*args, **kwargs):
        stamps.append(clock())
        return inner(*args, **kwargs)

    jit.success_probability_monte_carlo = stamped

    def remove():
        jit.success_probability_monte_carlo = inner
    return stamps, remove


def _row_latencies(stamps, end, n_rows, start):
    """Row i lasts from its stamp to the next row's stamp (the last to the
    sweep's end).  Without one stamp per row, rows share the sweep evenly."""
    if len(stamps) != n_rows:
        return [(end - start) / n_rows] * n_rows
    return [b - a for a, b in zip(stamps, [*stamps[1:], end])]


class MonteCarlo:
    """``mc-deep``: library sweeps, one per mining model, and a chunk split."""

    def __init__(self, qsafe, data):
        self.jit = qsafe.jit_attack_sim
        self.data = data
        self.scenarios = {
            "memoryless": self.jit.AttackScenario(self.jit.QuantumAttacker(256),
                                                  self.jit.Memoryless()),
            "fixed": self.jit.AttackScenario(self.jit.QuantumAttacker(256),
                                             self.jit.FixedInterval()),
        }
        self.clocks = data["clocks"]
        model, row = data["split_model"], data["split_row"]
        attacker = self.jit.QuantumAttacker(256, effective_clock_hz=self.clocks[model][row])
        self.split = (model, row, self.jit.AttackScenario(attacker, self.scenarios[model].mining))
        n_rows = sum(len(c) for c in self.clocks.values())
        self.expected = {"trials_requested": (n_rows + 1) * data["trials"]}

    def run_pass(self) -> Pass:
        p = Pass()
        n, seed = self.data["trials"], self.data["mc_seed"]
        stamps, remove = _row_stamps(self.jit)
        sweeps, chunk_counts = {}, None
        start = clock()
        try:
            for model, scenario in self.scenarios.items():
                del stamps[:]
                t0 = clock()
                try:
                    sweeps[model] = self.jit.sweep(scenario, self.clocks[model], n, seed)
                except Exception:
                    sweeps[model] = None
                t1 = clock()
                p.op_s += _row_latencies(stamps, t1, len(self.clocks[model]), t0)
            p.attempted = len(p.op_s)
            model, row, scenario = self.split
            try:
                chunk_counts = [self.jit.race_win_count(scenario, seed, a, b, stream=row)
                                for a, b in self.data["chunks"]]
            except Exception:
                chunk_counts = traceback.format_exc(limit=3).strip().splitlines()[-1]
            p.wall_s = clock() - start
        finally:
            remove()
        self.check(p, sweeps, chunk_counts)
        p.trials = self.expected["trials_requested"]
        return p

    def check(self, p, sweeps, chunk_counts):
        n = self.data["trials"]
        offset = {}
        base = 0
        for model in self.scenarios:
            offset[model] = base
            base += len(self.clocks[model])
        for model, rows in sweeps.items():
            clocks = self.clocks[model]
            if rows is None or len(rows) != len(clocks):
                for i in range(len(clocks)):
                    p.problem(offset[model] + i, f"{model} sweep failed or has wrong row count")
                continue
            for i, (row, clock_hz) in enumerate(zip(rows, clocks)):
                for message in oracles.check_mc_row(row, model, clock_hz, n):
                    p.problem(offset[model] + i, f"{model}: {message}")
        model, row, _ = self.split
        op = offset[model] + row
        rows = sweeps.get(model)
        if isinstance(chunk_counts, str):
            p.problem(op, f"chunked race_win_count raised {chunk_counts}")
        elif rows:
            for message in oracles.check_chunk_merge(rows[row]["p_estimate"], n,
                                                     self.data["chunks"], chunk_counts):
                p.problem(op, f"{model} row {row}: {message}")


class PlanSchedules:
    """``plan-schedules``: schedules, the duration grid and mega-layout weights."""

    def __init__(self, qsafe, data):
        self.mp = qsafe.migration_planner
        self.wm = qsafe.weight_model
        self.data = data
        self.scheme = {s.value: s for s in qsafe.block_packer.UpgradeScheme}
        self.builder = {"ecdsa-segwit": "ecdsa_mega", "schnorr-taproot": "schnorr_mega"}
        self.snapshot = self.mp.UtxoSnapshot("bench", oracles.UTXO_TOTAL)
        self.mixed = self.mp.UtxoSnapshot("bench", oracles.UTXO_TOTAL,
                                          schnorr_fraction=data["schnorr_fraction"])
        self.expected = {"blocks_elapsed_sum": sum(
            oracles.schedule_totals(call[1], call[2], call[3])["blocks_elapsed"]
            for call in data["calls"] if call[0] == "schedule")}

    def schedule(self, scheme, style, value):
        if style == "k":
            shape = self.mp.EveryKthBlock(value)
        else:
            shape = self.mp.FractionOfEachBlock(value)
        timeline = self.mp.throttled_schedule(self.snapshot, self.scheme[scheme], shape)
        # The answer is read inside the timed call, in case a timeline
        # computes it lazily.
        return timeline, {"blocks_elapsed": timeline.blocks_elapsed,
                          "duration_hours": timeline.duration_hours}

    def grid(self):
        cells = {}
        for bandwidth in oracles.DEFAULT_BANDWIDTHS:
            ecdsa = self.mp.lower_bound_duration(self.snapshot, self.scheme["ecdsa-segwit"],
                                                 bandwidth)
            schnorr = self.mp.lower_bound_duration(self.snapshot,
                                                   self.scheme["schnorr-taproot"], bandwidth)
            cells[bandwidth] = (ecdsa, schnorr, self.mp.mixed_duration(self.mixed, bandwidth))
        return cells

    def weight(self, scheme, n_inputs):
        layout = getattr(self.wm, self.builder[scheme])(n_inputs)
        return self.wm.transaction_weight(layout)

    def run_pass(self) -> Pass:
        """Every call is timed and checked; only schedule and grid calls
        are operations (op latency samples), as the workload defines them."""
        p = Pass()
        results, call_s = [], []
        for call in self.data["calls"]:
            t0 = clock()
            try:
                if call[0] == "schedule":
                    result = self.schedule(*call[1:])
                elif call[0] == "grid":
                    result = self.grid()
                else:
                    result = self.weight(call[1], oracles.MEGA[call[1]][2] + call[2])
            except Exception:
                result = traceback.format_exc(limit=3).strip().splitlines()[-1]
            call_s.append(clock() - t0)
            if call[0] != "weight":
                p.op_s.append(call_s[-1])
            if call[0] == "schedule" and not isinstance(result, str):
                # Read for the check only, off the clock; the sums walk a
                # per-block timeline, and freeing it is off the clock too.
                timeline, result = result
                result.update(upgrade_blocks=timeline.upgrade_blocks,
                              total_upgraded=timeline.total_upgraded)
                del timeline
            results.append(result)
        p.wall_s = sum(call_s)
        p.attempted = len(results)
        for op, (call, result) in enumerate(zip(self.data["calls"], results)):
            if isinstance(result, str):
                p.problem(op, f"{call} raised {result}")
            elif call[0] == "schedule":
                for message in oracles.check_schedule(result, *call[1:]):
                    p.problem(op, message)
            elif call[0] == "grid":
                for message in oracles.check_grid(result, self.data["schnorr_fraction"]):
                    p.problem(op, message)
            else:
                n_inputs = oracles.MEGA[call[1]][2] + call[2]
                for message in oracles.check_weight(result, call[1], n_inputs):
                    p.problem(op, message)
        return p


# The qsafe modules each workload calls; importing them is set-up.
MODULES = {
    "mc-deep": ("jit_attack_sim",),
    "plan-schedules": ("block_packer", "migration_planner", "weight_model"),
}


def build(workload, seed):
    qsafe = types.SimpleNamespace(**{name: importlib.import_module(f"qsafe.{name}")
                                     for name in MODULES[workload]})
    data = inputs.GENERATORS[workload](seed)
    if workload == "plan-schedules":
        return PlanSchedules(qsafe, data)
    return MonteCarlo(qsafe, data)


def traced_pass(workload, alloc=False) -> dict:
    tracer = tracing.Tracer()
    tracer.alloc = alloc
    uninstall = tracing.install(tracer)
    try:
        p = workload.run_pass()
    finally:
        uninstall()
    return {**p.as_dict(), "layers": tracer.layer_metrics()}


def run(workload, seconds, min_passes) -> dict:
    passes = []
    while sum(p["wall_s"] for p in passes) < seconds or len(passes) < min_passes:
        passes.append(workload.run_pass().as_dict())
    return {"passes": passes}


def trace(workload, seconds) -> dict:
    """Untraced and traced passes in ABBA order, then one allocation pass."""
    untraced, traced = [], []
    while sum(p["wall_s"] for p in untraced + traced) < seconds or not traced:
        if len(traced) % 2:
            traced.append(traced_pass(workload))
            untraced.append(workload.run_pass().as_dict())
        else:
            untraced.append(workload.run_pass().as_dict())
            traced.append(traced_pass(workload))
    return {"passes": untraced, "traced": traced, "alloc": traced_pass(workload, alloc=True)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    args = parser.parse_args()

    workload = build(args.workload, args.seed)
    out = {"ready_ns": time.monotonic_ns(), "expected": workload.expected, "warmup": []}
    if args.mode != "setup":
        out["warmup"] = [workload.run_pass().as_dict()]
        # This process's own peak so far: set-up plus one pass.
        out["footprint_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.mode == "run":
            out.update(run(workload, args.seconds, args.min_passes))
        else:
            out.update(trace(workload, args.seconds))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
