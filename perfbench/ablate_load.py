"""train_ablate: repeated rewardroute.beta_ablation calls in a process of their own."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time

import bench_inputs
import procs

MIN_BEST_ACCURACY = 0.90
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ablate_worker.py")


def job() -> dict:
    spec = dict(bench_inputs.ABLATION_SPEC, clusters=bench_inputs.SIX_CLUSTERS)
    return {"spec": spec, "betas": bench_inputs.ABLATION_BETAS,
            "train_seed": bench_inputs.ABLATION_TRAIN_SEED}


class Worker:
    def __init__(self, cpus: procs.Cpus):
        started = time.perf_counter()
        self.proc = procs.spawn([WORKER, json.dumps(job())], cpus, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            if self._line() != "ready":
                raise RuntimeError("ablation worker did not start")
        except BaseException:
            procs.stop(self.proc, timeout=5.0)
            raise
        self.setup_s = time.perf_counter() - started

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"ablation worker exited with code {self.proc.wait()}")
        return line.strip()

    def run(self) -> tuple[float, dict]:
        """One beta_ablation call; (seconds, table)."""
        started = time.perf_counter()
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        table = json.loads(self._line())
        return time.perf_counter() - started, table

    def close(self) -> None:
        """Ask the worker to exit; interrupt it only if it does not within 30 s."""
        try:
            self.proc.stdin.write("exit\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30.0)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            pass
        procs.stop(self.proc)
        self.proc.stdout.close()


def check_table(table: dict, first: dict | None) -> list[str]:
    errors = []
    counts = bench_inputs.ablation_eval_counts()
    acc = dict(zip(table["betas"], table["accuracies"]))
    if table["eval_rows"] != sum(counts):
        errors.append(f"eval rows {table['eval_rows']} != {sum(counts)} from FNV-1a of the ids")
    if not acc[0.0] > acc[1.0]:
        errors.append(f"accuracy at beta=0 ({acc[0.0]}) does not beat beta=1 ({acc[1.0]})")
    best, best_single = max(acc.values()), max(counts) / sum(counts)
    if best < MIN_BEST_ACCURACY or best <= best_single:
        errors.append(f"best accuracy {best} is below {MIN_BEST_ACCURACY} "
                      f"or the best single-model share {best_single:.4f}")
    if first is not None and table != first:
        errors.append("ablation table differs between calls")
    return errors


def run_untraced(seconds: float, cpus: procs.Cpus, setup_repeats: int) -> dict:
    setup, worker = [], None
    try:
        for i in range(setup_repeats):
            worker = Worker(cpus)
            setup.append(worker.setup_s)
            if i < setup_repeats - 1:
                worker.close()
                worker = None
        # At least two calls, so that the table can be compared between calls.
        times, tables = [], []
        deadline = time.perf_counter() + seconds
        while len(times) < 2 or time.perf_counter() < deadline:
            t, table = worker.run()
            times.append(t)
            tables.append(table)
        rss = procs.peak_rss_mb(worker.proc.pid)
    finally:
        if worker is not None:
            worker.close()
    errors = []
    for table in tables:
        errors += check_table(table, tables[0])
    rows = sum(t["train_rows"] * bench_inputs.ABLATION_EPOCHS * len(t["betas"]) for t in tables)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(times) * 1000.0, "ms"),
        "throughput_per_s": (rows / sum(times), "1/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    report = {"calls": len(times), "table": tables[0], "setup_runs": [round(s, 4) for s in setup]}
    return {"correct": not errors, "errors": errors[:20], "attempted": len(times),
            "failed": 0, "metrics": metrics, "report": report}
