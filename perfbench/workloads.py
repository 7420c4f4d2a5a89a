"""The three workloads: what one request is, how it is timed and how it is judged.

All load is closed-loop from this one process: one caller, no threads, the
next request only after the previous one has finished.  Inputs are made
lazily between requests, outside the timed region, so no spec value repeats
however many requests a run gets through.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

from cli_cases import COMMANDS_PER_CYCLE, CliCase, cycle_cases, judge
from tracer import percentile
from inputs import SCALING_SIZES, SpecCase, TableCase, batch_small_case, scaling_rounds

TABLE_CHECK = "bench.table_check"
INITIAL_BATCHES = 200  # the acceptance population at the default seed


def _check_table(crq, spec, n: int, case: TableCase) -> bool:
    """Parse, decide, run the oracle, and compare both with the construction."""
    table = crq.tables.table_from_dict(json.loads(case.text))
    verdict = crq.tables.decide_membership(spec, table)
    closed = crq.tables.closure_oracle(spec, table)
    if case.member:
        return verdict.member is True and closed is True and verdict.alpha == (case.alpha, n)
    return verdict.member is False and verdict.failure is not None and closed is False


def _run_spec(crq, case: SpecCase, tracer, table_times: list[float]) -> int:
    """One spec batch: parse, validate, multiplication group, then every table.

    Returns the number of failed operations; each table and the spec-level
    checks count as one operation.
    """
    groups = crq.groups
    if tracer is not None:
        tracer.request += 1
    spec = groups.spec_from_dict(json.loads(case.text))
    valid = groups.validate_spec(spec) == []
    desc = crq.multgroup.compute_mult_group(spec)
    failed = 0
    if not (
        valid
        and spec.n == case.n
        and [(d.rank, d.m) for d in desc.spec.types]
        == [(r**3, m) for r, m in zip(case.ranks, case.ms)]
    ):
        failed += 1
        print(f"wrong spec-level result: {case.text}", file=sys.stderr)
    marker = tracer.name_id(TABLE_CHECK) if tracer is not None else None
    for k, table in enumerate(case.tables):
        started = time.perf_counter()
        if tracer is not None:
            tracer.request += 1
            span = tracer.begin(marker)
        ok = _check_table(crq, spec, case.n, table)
        if tracer is not None:
            tracer.finish(span)
        table_times.append(time.perf_counter() - started)
        if not ok:
            failed += 1
            print(f"wrong verdict on table {k} of spec {case.text}", file=sys.stderr)
    return failed


class BatchSmall:
    """Spec batches from the generator population, 20 stratified tables each."""

    name = "batch_small"
    cycle = 1  # requests per composition cycle
    window = 10  # traced requests whose counts must repeat exactly
    tail_pct = 99
    unit = "table"

    def __init__(self, seed: int):
        self.seed = seed
        self.times: list[float] = []
        self.table_times: list[float] = []

    def build(self, crq) -> list[SpecCase]:
        return [batch_small_case(crq, self.seed, i) for i in range(INITIAL_BATCHES)]

    def requests(self, crq, initial: list[SpecCase]):
        yield from initial
        for i in count(len(initial)):
            yield batch_small_case(crq, self.seed, i)

    def execute(self, crq, case: SpecCase, tracer) -> tuple[float, int, int]:
        """Run one request; returns (seconds, operations attempted, operations failed)."""
        started = time.perf_counter()
        failed = _run_spec(crq, case, tracer, self.table_times)
        elapsed = time.perf_counter() - started
        return elapsed, len(case.tables) + 1, failed

    def items(self) -> int:
        return len(self.table_times)

    def report(self) -> dict:
        return {
            "tables_per_s": (self.items() / sum(self.times), "1/s"),
            "batch_p50_ms": (statistics.median(self.times) * 1e3, "ms"),
            "batch_tail_ms": (percentile(self.times, self.tail_pct) * 1e3, "ms"),
        }

    def samples(self) -> dict:
        return {"batches": len(self.times), "tables": len(self.table_times)}


class IndexScaling:
    """Rounds of one table at each regulator index n in 36, 900, 10800."""

    name = "index_scaling"
    cycle = 4  # strata cycle every four rounds
    window = 4
    tail_pct = None  # no tail metric: rounds are few, and their mix is fixed
    unit = "table"

    def __init__(self, seed: int):
        self.seed = seed
        self.times: list[float] = []
        self.by_size: dict[int, list[float]] = {n: [] for n in SCALING_SIZES}
        self.ranks: dict[int, list[str]] = {n: [] for n in SCALING_SIZES}

    def build(self, crq):
        rounds = scaling_rounds(self.seed)
        return rounds, [next(rounds) for _ in range(self.cycle)]

    def requests(self, crq, state):
        rounds, initial = state
        yield from initial
        yield from rounds

    def execute(self, crq, cases: tuple[SpecCase, ...], tracer) -> tuple[float, int, int]:
        started = time.perf_counter()
        failed = 0
        for case in cases:
            times: list[float] = []
            failed += _run_spec(crq, case, tracer, times)
            self.by_size[case.n].extend(times)
            self.ranks[case.n].append("-".join(map(str, case.ranks)))
        elapsed = time.perf_counter() - started
        return elapsed, 2 * len(cases), failed

    def items(self) -> int:
        return sum(len(v) for v in self.by_size.values())

    def report(self) -> dict:
        out = {"tables_per_s": (self.items() / sum(self.times), "1/s")}
        for n, times in self.by_size.items():
            out[f"check_p50_ms.n{n}"] = (statistics.median(times) * 1e3, "ms")
        return out

    def samples(self) -> dict:
        return {
            "rounds": len(self.times),
            **{f"tables.n{n}": len(v) for n, v in self.by_size.items()},
            "ranks": {f"n{n}": v for n, v in self.ranks.items()},
        }


def _report_cli(case: CliCase, ok: bool, code: int) -> int:
    """1 after naming a wrong invocation on stderr, else 0."""
    if ok:
        return 0
    print(f"wrong output from {case.name} (exit {code}): {' '.join(case.argv)}", file=sys.stderr)
    return 1


class CliOneshot:
    """Sequential `python -m crqmult.cli ... --format json` runs on seeded files."""

    name = "cli_oneshot"
    cycle = COMMANDS_PER_CYCLE
    window = COMMANDS_PER_CYCLE
    tail_pct = 95
    unit = "invocation"

    def __init__(self, seed: int, root: Path, in_process: bool = False):
        self.seed = seed
        self.root = root
        self.in_process = in_process
        self.times: list[float] = []
        self.workdir = root / ".perfbench_work" / str(os.getpid())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def build(self, crq) -> list[CliCase]:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        return cycle_cases(crq, self.seed, 0, self.workdir)

    def requests(self, crq, initial: list[CliCase]):
        yield from initial
        for cycle in count(1):
            for stale in self.workdir.iterdir():
                stale.unlink()
            yield from cycle_cases(crq, self.seed, cycle, self.workdir)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()

    def execute(self, crq, case: CliCase, tracer) -> tuple[float, int, int]:
        if self.in_process:
            return self._execute_in_process(crq, case, tracer)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "crqmult.cli", *case.argv],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=120,
        )
        ok = judge(case, proc.returncode, proc.stdout, proc.stderr)
        elapsed = time.perf_counter() - started
        return elapsed, 1, _report_cli(case, ok, proc.returncode)

    def _execute_in_process(self, crq, case: CliCase, tracer) -> tuple[float, int, int]:
        """cli.main on the same arguments, with its output captured."""
        out, err = io.StringIO(), io.StringIO()
        span = None
        started = time.perf_counter()
        if tracer is not None:
            tracer.request += 1
            if case.argv[0] in ("check-table", "oracle") and case.exit_code != 2:
                span = tracer.begin(tracer.name_id(TABLE_CHECK))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = crq.cli.main(list(case.argv))
        if span is not None:
            tracer.finish(span)
        ok = judge(case, code, out.getvalue(), err.getvalue())
        elapsed = time.perf_counter() - started
        return elapsed, 1, _report_cli(case, ok, code)

    def items(self) -> int:
        return len(self.times)

    def report(self) -> dict:
        return {
            "cli_p50_ms": (statistics.median(self.times) * 1e3, "ms"),
            "cli_tail_ms": (percentile(self.times, self.tail_pct) * 1e3, "ms"),
        }

    def samples(self) -> dict:
        return {"invocations": len(self.times)}
