"""The qsafe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a qsafe checkout: the program under test is the
checkout's ``src``, put on ``PYTHONPATH`` of every process started.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer ones from spans recorded by the benchmark's own wrappers.
Every output is checked against ``oracles.py``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (seed, tail
percentile and sample count, interpreter, numpy version, nproc).

This process uses the standard library only and never imports qsafe or
numpy, so it stays small: a child's peak RSS read by ``wait4`` is not
inflated by the memory of the process that started it.  See METRICS.md.
"""

import argparse
import importlib.metadata
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import inputs
import measure
import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
PYTHON = sys.executable

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{module}.import_s": "s" for module in tracing.MODULES},
    **dict.fromkeys(tracing.TIME_METRICS, "s"),
    "weight_model.entries": "count",
    "block_packer.calls": "count",
    "migration_planner.blocks_enumerated": "count",
    "migration_planner.schedule_peak_mb": "MB",
    "jit_attack_sim.trials": "count",
    "jit_attack_sim.calls": "count",
    "jit_attack_sim.peak_alloc_mb": "MB",
    "jit_attack_sim.alloc_bytes_per_trial": "B",
    "jit_attack_sim.per_call_s": "s",
    "cli_report.rows_rendered": "count",
    "cli_report.render_rows_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}
ALLOC_METRICS = ("migration_planner.schedule_peak_mb", "jit_attack_sim.peak_alloc_mb",
                 "jit_attack_sim.alloc_bytes_per_trial")
MC_WORKLOADS = ("mc-deep",)

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
# Passes whose operations give op_p50_s and op_tail_s.  A run lasts at
# least this many passes and at least --seconds; taking the operation
# samples from a fixed number of passes keeps the sample count, and so
# the tail percentile, the same in every run.  Op latencies within one
# pass span orders of magnitude, so a varying count would move the tail
# from one kind of operation to another.
OP_PASSES = {"cli-cold": 8, "mc-deep": 16, "plan-schedules": 8}
CLI_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong output: those are counted)."""


def child_env(**extra) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("QSAFE_SEED", "PYTHONHOME")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(extra)
    return env


def check_child(child: measure.Child, what: str):
    if child.code != 0:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"{what} exited {child.code}: {' | '.join(tail)}")


def warm_up():
    """Compile bytecode and fill the file cache, as a user's later runs find them."""
    check_child(measure.run_child([PYTHON, "-c", "import qsafe"], child_env(), CLI_TIMEOUT_S),
                "import qsafe")


# --- cli-cold ------------------------------------------------------------


def cli_pass(sequence, tmp: Path, traced=False, alloc=False) -> dict:
    """Run every invocation once, in order; check outputs afterwards."""
    results = []
    for inv in sequence["invocations"]:
        out_path = tmp / f"out-{inv['id']}.{inv['format']}"
        spans_path = tmp / f"spans-{inv['id']}.json"
        for path in (out_path, spans_path):
            path.unlink(missing_ok=True)
        args = inv["args"] + (["--out", str(out_path)] if inv["to_file"] else [])
        if traced:
            argv = [PYTHON, "-X", "importtime", str(HERE / "cli_traced.py"), *args]
            env = child_env(PERFBENCH_SPANS=str(spans_path), PERFBENCH_ALLOC=str(int(alloc)))
        else:
            argv, env = [PYTHON, "-m", "qsafe", *args], child_env()
        results.append((inv, measure.run_child(argv, env, CLI_TIMEOUT_S), out_path, spans_path))

    failed, problems, outputs, layers, imports = set(), [], {}, [], []
    for inv, child, out_path, spans_path in results:
        def fail(message, op=inv["id"]):
            failed.add(op)
            problems.append(f"{' '.join(inv['args'])}: {message}")
        stderr = child.stderr.decode(errors="replace")
        if traced:
            imports.append(tracing.import_split(tracing.parse_importtime(stderr)))
            stderr = "\n".join(line for line in stderr.splitlines()
                               if not line.startswith("import time:"))
            if spans_path.exists():
                layers.append(json.loads(spans_path.read_text(encoding="utf-8")))
        if child.code != 0 or stderr.strip():
            fail(f"exit {child.code}, stderr {stderr.strip()[-200:]!r}")
            continue
        if inv["to_file"]:
            if child.stdout:
                fail("wrote to stdout although --out was given")
            data = out_path.read_bytes() if out_path.exists() else b""
        else:
            data = child.stdout
        outputs[inv["id"]] = data
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            fail("output is not UTF-8")
            continue
        for message in oracles.check_cli_output(inv["command"], inv["format"], text,
                                                sequence["attack_seed"]):
            fail(message)

    attack = [inv for inv, *_ in results if inv["command"] == "attack"]
    twin = next(inv for inv in attack if inv["twin"])
    written = next(inv for inv in attack if inv["to_file"])
    if outputs.get(twin["id"]) != outputs.get(written["id"]):
        failed.add(twin["id"])
        problems.append("attack: --out bytes differ from the same-seed stdout bytes")
    texts = {inv["format"]: outputs[inv["id"]].decode("utf-8", "replace")
             for inv in attack if not inv["twin"] and inv["id"] in outputs}
    for message in oracles.check_attack_consistency(texts):
        failed.update(inv["id"] for inv in attack)
        problems.append(message)

    children = [child for _, child, _, _ in results]
    return {
        "wall_s": sum(child.wall_s for child in children),
        "op_s": [child.wall_s for child in children],
        "ops": len(children),
        "attempted": len(children),
        "failed": len(failed),
        "problems": problems[:5],
        "maxrss_mb": max(child.maxrss_mb for child in children),
        "layers": sum_layers(layers) if traced else None,
        "imports": imports,
    }


def sum_layers(per_invocation: list) -> dict:
    total = {}
    for layers in per_invocation:
        for name, value in layers.items():
            if name in ALLOC_METRICS:
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def run_cli(seed: int, seconds: float, trace: bool) -> dict:
    sequence = inputs.cli_sequence(seed)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        warm_up()
        if not trace:
            setups = []
            for _ in range(SETUP_PROBES):
                child = measure.run_child([PYTHON, "-c", "import qsafe"], child_env(),
                                          CLI_TIMEOUT_S)
                check_child(child, "import qsafe")
                setups.append(child.wall_s)
            passes, timed = [], 0.0
            while timed < seconds or len(passes) < OP_PASSES["cli-cold"]:
                passes.append(cli_pass(sequence, tmp))
                timed += passes[-1]["wall_s"]
            return {"setup_s": setups, "passes": passes,
                    "peak_rss_mb": max(p["maxrss_mb"] for p in passes)}
        untraced, traced, timed = [], [], 0.0
        while timed < seconds or not traced:  # ABBA order
            if len(traced) % 2:
                traced.append(cli_pass(sequence, tmp, traced=True))
                untraced.append(cli_pass(sequence, tmp))
            else:
                untraced.append(cli_pass(sequence, tmp))
                traced.append(cli_pass(sequence, tmp, traced=True))
            timed += untraced[-1]["wall_s"] + traced[-1]["wall_s"]
        alloc = cli_pass(sequence, tmp, traced=True, alloc=True)
        imports = [split for p in traced for split in p["imports"]]
        return {"passes": untraced, "traced": traced, "alloc": alloc,
                "imports": {name: measure.median([split[name] for split in imports])
                            for name in imports[0]}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --- in-process workloads ------------------------------------------------


def run_worker(workload, seed, mode, seconds=0.0, importtime=False) -> tuple[dict, measure.Child]:
    flags = ["-X", "importtime"] if importtime else []
    argv = [PYTHON, *flags, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
            "--min-passes", str(OP_PASSES[workload])]
    child = measure.run_child(argv, child_env(), WORKER_TIMEOUT_S)
    check_child(child, f"worker --mode {mode}")
    lines = child.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"worker --mode {mode} printed no result")
    return json.loads(lines[-1]), child


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then one worker that makes a warm-up pass and the
    timed passes.

    Peak RSS is the worker's own peak after set-up and the warm-up pass:
    over repeated passes, glibc's adaptive mmap threshold let the
    seed-chosen chunk sizes of ``mc-deep`` raise the process peak by up
    to 50 MB.  Timed passes follow a warm-up pass, because the first pass
    in a process also pays for growing the heap (on ``plan-schedules`` it
    took about twice as long as later ones).
    """
    warm_up()
    if trace:
        out, child = run_worker(workload, seed, "trace", seconds, importtime=True)
        imports = tracing.import_split(tracing.parse_importtime(child.stderr.decode()))
        return {**out, "imports": imports}
    setups = []
    for _ in range(SETUP_PROBES):
        out, child = run_worker(workload, seed, "setup")
        setups.append((out["ready_ns"] - child.spawn_ns) / 1e9)
    out, child = run_worker(workload, seed, "run", seconds)
    setups.append((out["ready_ns"] - child.spawn_ns) / 1e9)
    return {"setup_s": setups, "passes": out["passes"], "peak_rss_mb": out["footprint_mb"],
            "warmup": out["warmup"], "expected": out["expected"]}


# --- summaries ----------------------------------------------------------


def end_to_end(workload: str, raw: dict) -> tuple[dict, dict]:
    passes = raw["passes"]
    op_s = [t for p in passes[:OP_PASSES[workload]] for t in p["op_s"]]
    timed = sum(p["wall_s"] for p in passes)
    tail_value, tail_pct, beyond = measure.tail(op_s)
    metrics = {
        "setup_s": measure.median(raw["setup_s"]),
        "wall_s": measure.median([p["wall_s"] for p in passes]),
        "op_p50_s": measure.median(op_s),
        "op_tail_s": tail_value,
        "ops_per_s": sum(p["ops"] for p in passes) / timed,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    detail = {"passes": len(passes), "op_samples": len(op_s),
              "op_tail_percentile": round(tail_pct, 3), "op_tail_beyond": beyond,
              "timed_s": timed, "setup_s_samples": raw["setup_s"],
              "wall_s_passes": [p["wall_s"] for p in passes]}
    if workload in MC_WORKLOADS:
        detail["trials_per_s"] = sum(p["trials"] for p in passes) / timed
        detail["trials_per_pass"] = passes[0]["trials"]
    return metrics, detail


def per_layer(workload: str, raw: dict) -> tuple[dict, dict]:
    traced = raw["traced"]
    rows = []
    for p in traced:
        layers = dict(p["layers"])
        calls = layers.get("jit_attack_sim.calls", 0)
        layers["jit_attack_sim.per_call_s"] = (
            layers.get("jit_attack_sim.mc_s", 0.0) / calls if calls else 0.0)
        render_s = layers.get("cli_report.render_s", 0.0)
        layers["cli_report.render_rows_per_s"] = (
            layers.get("cli_report.rows_rendered", 0) / render_s if render_s else 0.0)
        rows.append(layers)
    metrics = {}
    for name in PER_LAYER:
        if name in ALLOC_METRICS:
            metrics[name] = raw["alloc"]["layers"].get(name, 0.0)
        elif name.endswith(".import_s"):
            metrics[name] = raw["imports"].get(name, 0.0)
        elif name == "trace.overhead_ratio":
            metrics[name] = (measure.median([p["wall_s"] for p in traced])
                             / measure.median([p["wall_s"] for p in raw["passes"]]))
        else:
            metrics[name] = measure.median([row.get(name, 0) for row in rows])
    detail = {"traced_passes": len(traced), "untraced_passes": len(raw["passes"]),
              "counts_per_pass": {name: [row.get(name, 0) for row in rows]
                                  for name in tracing.COUNT_METRICS}}
    detail.update(raw.get("expected", {}))
    return metrics, detail


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": sys.version.split()[0], "implementation": sys.implementation.name,
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "cli-cold":
        raw = run_cli(seed, seconds, trace)
    else:
        raw = run_in_process(workload, seed, seconds, trace)
    passes = (raw["passes"] + raw.get("traced", []) + raw.get("warmup", [])
              + ([raw["alloc"]] if "alloc" in raw else []))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        metrics, detail = per_layer(workload, raw)
        units = PER_LAYER
    else:
        metrics, detail = end_to_end(workload, raw)
        units = END_TO_END
    detail.update(workload=workload, seed=seed, trace=int(trace), seconds=seconds,
                  fail_ratio=failed / attempted,
                  problems=[m for p in passes for m in p["problems"]][:10],
                  environment=environment())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "detail": detail}


def print_report(result: dict):
    detail = result["detail"]
    print(f"== {detail['workload']}  seed={detail['seed']}  trace={detail['trace']}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    rows = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    rows["fail_ratio"] = (detail["fail_ratio"], "ratio")
    if "trials_per_s" in detail:
        rows["trials_per_s"] = (detail["trials_per_s"], "1/s")
    for name, (value, unit) in rows.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for message in detail["problems"]:
        print(f"  problem: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsafe" / "__init__.py").is_file():
        print(f"perfbench: no qsafe source at {SRC}; run from the root of a qsafe checkout",
              file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
            print_report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": [r["detail"] for r in results]}))
    if len(results) == 1:
        final = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{r['detail']['workload']}/{name}": metric
                             for r in results for name, metric in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
