"""Benchmark for the crqmult library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_small --seed 0 --seconds 40 --trace 0

Workloads are `batch_small`, `index_scaling` and `cli_oneshot`; BENCHMARK.json
at the repository root lists them with their metrics, and README.md in this
directory describes them.  With `--trace 0` the last line of standard output
carries the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics of a traced run.  The line before it is a report with every metric
under its descriptive name, the environment and the sample counts.  The exit
code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from cli_cases import cycle_cases  # noqa: E402
from tracer import Tracer, percentile, tail_percentile  # noqa: E402
from workloads import TABLE_CHECK, BatchSmall, CliOneshot, IndexScaling  # noqa: E402

MODULES = ("numth", "groups", "elements", "tables", "multgroup", "cli")
SETUP_REPEATS = 5
FLOOR_REPEATS = 5
PROBE_CYCLE = 10**6  # CLI cycles used by the probe, apart from the workload's own


def import_library() -> SimpleNamespace:
    """Import crqmult afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "crqmult" or m.startswith("crqmult.")]:
        del sys.modules[name]
    importlib.import_module("crqmult")
    return SimpleNamespace(**{m: importlib.import_module(f"crqmult.{m}") for m in MODULES})


def setup(workload) -> tuple[SimpleNamespace, object, float]:
    """Import the package afresh and build the workload's first inputs; seconds taken."""
    started = time.perf_counter()
    crq = import_library()
    state = workload.build(crq)
    return crq, state, time.perf_counter() - started


def run_loop(workload, crq, state, seconds: float, tracer, setup_times: list[float] | None) -> dict:
    """Closed loop until the deadline, stopping only at the end of a composition cycle.

    With a tracer, blocks of one cycle alternate between untraced and traced,
    so the overhead compares like with like; the counts of the first
    `workload.window` traced requests form the exact-count window.

    Without one, the loop repeats the set-up at cycle ends spread evenly over
    the run, until `setup_times` holds SETUP_REPEATS samples.  The samples then
    meet the same drift in machine speed as the requests do, instead of all
    falling into the first second.  The repeated set-ups are discarded.
    """
    start = time.perf_counter()
    deadline = start + seconds
    attempted = failed = 0
    plain: list[float] = []
    traced: list[float] = []
    window = None
    for i, request in enumerate(workload.requests(crq, state)):
        on = tracer is not None and (i // workload.cycle) % 2 == 1
        if on:
            tracer.install()
        try:
            elapsed, ops, bad = workload.execute(crq, request, tracer if on else None)
        finally:
            if on:
                tracer.uninstall()
        attempted += ops
        failed += bad
        (traced if on else plain).append(elapsed)
        if on and len(traced) == workload.window:
            window = tracer.snapshot()
        done = i + 1
        if done % workload.cycle == 0 and (tracer is None or window is not None):
            while (
                setup_times is not None
                and len(setup_times) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPEATS
            ):
                setup_times.append(setup(workload)[2])
            if time.perf_counter() >= deadline:
                break
    workload.times = plain
    return {"attempted": attempted, "failed": failed, "traced": traced, "window": window}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crqmult").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def child_ms(argv: list[str], env: dict) -> float:
    started = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, check=True, timeout=120,
                   capture_output=True)
    return (time.perf_counter() - started) * 1e3


def cli_floors(env: dict) -> tuple[float, float]:
    """Bare interpreter start, and `import crqmult.cli` on top of it, in ms."""
    bare = statistics.median(
        child_ms([sys.executable, "-c", "pass"], env) for _ in range(FLOOR_REPEATS)
    )
    imported = statistics.median(
        child_ms([sys.executable, "-c", "import crqmult.cli"], env) for _ in range(FLOOR_REPEATS)
    )
    return bare, imported - bare


def layer_metrics(workload, loop: dict, tracer: Tracer, probe: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the workload's traced requests and the CLI probe."""
    a = tracer.analyse(loop["window"], marker=TABLE_CHECK)
    p = a if probe["analysis"] is None else probe["analysis"]
    units = len(a[TABLE_CHECK]["dur"]) if workload.unit == "table" else len(a["cli.main"]["dur"])
    window_tables = a[TABLE_CHECK]["window_calls"]

    def self_per_unit(name: str, scale: float) -> float:
        return a[name]["self"] / units * scale

    def p50(source: dict, name: str, scale: float) -> float:
        return statistics.median(source[name]["dur"]) * scale

    def tail(name: str) -> tuple[float, int]:
        durations = a[name]["dur"]
        pct = tail_percentile(len(durations))
        return percentile(durations, pct) * 1e6, pct

    in_g = a["elements.in_G"]
    decide_tail, decide_pct = tail("tables.decide_membership")
    oracle_tail, oracle_pct = tail("tables.closure_oracle")
    values = {
        "groups.validate_spec.calls_per_table": (
            a["groups.validate_spec"]["window_in_marker"] / window_tables, "count"),
        "groups.validate_spec.self_us": (self_per_unit("groups.validate_spec", 1e6), "us"),
        "numth.condition_m_check.self_us": (self_per_unit("numth.condition_m_check", 1e6), "us"),
        "groups.spec_from_dict.p50_us": (p50(a, "groups.spec_from_dict", 1e6), "us"),
        "tables.table_from_dict.p50_us": (p50(a, "tables.table_from_dict", 1e6), "us"),
        "numth.is_prime.calls": (a["numth.is_prime"]["window_calls"], "count"),
        "elements.in_G.calls": (in_g["window_calls"], "count"),
        "elements.in_G.candidates_per_call": (in_g["window_aux"] / in_g["window_calls"], "count"),
        "elements.in_G.hit_ratio": (
            a["elements.in_G.hits"]["window_calls"] / in_g["window_calls"], "ratio"),
        "elements.in_G.self_ms": (self_per_unit("elements.in_G", 1e3), "ms"),
        "tables.decide_membership.p50_us": (p50(a, "tables.decide_membership", 1e6), "us"),
        "tables.decide_membership.tail_us": (decide_tail, "us"),
        "tables.decide_membership.self_us": (self_per_unit("tables.decide_membership", 1e6), "us"),
        "numth.fraction_residue.calls": (a["numth.fraction_residue"]["window_calls"], "count"),
        "numth.crt_solve.calls": (a["numth.crt_solve"]["window_calls"], "count"),
        "tables.closure_oracle.p50_us": (p50(a, "tables.closure_oracle", 1e6), "us"),
        "tables.closure_oracle.tail_us": (oracle_tail, "us"),
        "tables.closure_oracle.self_us": (self_per_unit("tables.closure_oracle", 1e6), "us"),
        "tables.product.calls_per_oracle": (
            a["tables.build_product"]["window_aux"] / a["tables.closure_oracle"]["window_calls"],
            "count"),
        "multgroup.compute_mult_group.p50_us": (p50(a, "multgroup.compute_mult_group", 1e6), "us"),
        "multgroup.iterate_mult.p50_us": (p50(p, "multgroup.iterate_mult", 1e6), "us"),
        "multgroup.coset_relation.p50_ms": (p50(p, "multgroup.coset_relation", 1e3), "ms"),
        "multgroup.cross_basis_example.p50_ms": (p50(p, "multgroup.cross_basis_example", 1e3), "ms"),
        "cli.main.p50_ms": (p50(p, "cli.main", 1e3), "ms"),
        "cli.interpreter_ms": (probe["interpreter_ms"], "ms"),
        "cli.import_ms": (probe["import_ms"], "ms"),
        "trace.overhead_frac": (
            statistics.fmean(loop["traced"]) / statistics.fmean(workload.times) - 1, "ratio"),
    }
    notes = {
        "self_time_per": workload.unit,
        "count_window": f"first {workload.window} traced requests",
        "tables_in_count_window": window_tables,
        "tail_percentiles": {
            "tables.decide_membership.tail_us": decide_pct,
            "tables.closure_oracle.tail_us": oracle_pct,
        },
        "traced_requests": len(loop["traced"]),
        "untraced_requests": len(workload.times),
        "spans": len(tracer.start),
    }
    return values, notes


def cli_probe(crq, seed: int, own_spans: bool) -> dict:
    """CLI-layer numbers: in-process cli.main spans plus interpreter and import floors.

    The cli_oneshot workload records its own in-process spans (`own_spans`);
    the other workloads run one untraced and one traced cycle of the same
    command mix here.
    """
    probe = CliOneshot(seed, ROOT, in_process=True)
    failed = attempted = 0
    analysis = None
    if not own_spans:
        tracer = Tracer(vars(crq))
        try:
            cases = probe.build(crq) + cycle_cases(crq, seed, PROBE_CYCLE, probe.workdir)
            for i, case in enumerate(cases):
                on = i >= probe.cycle
                if on:
                    tracer.install()
                try:
                    _, ops, bad = probe.execute(crq, case, tracer if on else None)
                finally:
                    if on:
                        tracer.uninstall()
                attempted += ops
                failed += bad
        finally:
            probe.close()
        analysis = tracer.analyse(tracer.snapshot())
    interpreter_ms, import_ms = cli_floors(probe.env)
    return {
        "analysis": analysis,
        "interpreter_ms": interpreter_ms,
        "import_ms": import_ms,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("batch_small", "index_scaling", "cli_oneshot"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "crqmult" / "__init__.py").is_file():
        print(f"error: no crqmult package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "batch_small":
        workload = BatchSmall(args.seed)
    elif args.workload == "index_scaling":
        workload = IndexScaling(args.seed)
    else:
        workload = CliOneshot(args.seed, ROOT, in_process=bool(args.trace))
    try:
        crq, state, first_setup = setup(workload)
        tracer = Tracer(vars(crq)) if args.trace else None
        setup_times = None if args.trace else [first_setup]
        loop = run_loop(workload, crq, state, args.seconds, tracer, setup_times)
        attempted, failed = loop["attempted"], loop["failed"]
        report = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
        }
        if args.trace:
            probe = cli_probe(crq, args.seed, own_spans=isinstance(workload, CliOneshot))
            attempted += probe["attempted"]
            failed += probe["failed"]
            metrics, notes = layer_metrics(workload, loop, tracer, probe)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
            tracer.write(spans_path)
            report["trace_notes"] = {**notes, "spans_file": str(spans_path.relative_to(ROOT))}
        else:
            times = workload.times
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "items_per_s": (workload.items() / sum(times), "1/s"),
                "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli_oneshot"), "MB"),
            }
            descriptive = {
                "setup_s": metrics["setup_s"],
                **workload.report(),
                "failed_frac": (failed / attempted, "ratio"),
                "peak_rss_mb": metrics["peak_rss_mb"],
            }
            report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in descriptive.items()}
            report["tail_percentile"] = workload.tail_pct
            report["samples"] = {"requests": len(times), "setups": len(setup_times),
                                 **workload.samples()}
    finally:
        if isinstance(workload, CliOneshot):
            workload.close()
    print(json.dumps(report, sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
