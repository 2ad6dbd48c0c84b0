"""Run one workload of the benchmark for one seed and print its metrics.

    python3 bench/run.py --workload toy-sweep --seed 7 --seconds 30 --trace 0

Nothing is built: cfcql_lab is imported from the checkout's src/. The run
writes only under .bench_out/ in the checkout (dataset files while it runs,
then its record, its spans and the output digests of each seed).

The workload repeats rounds (pipeline.run_round) until --seconds of wall time
are used up, each round with inputs drawn from (seed, round index). Reported
times are CPU seconds of the process, medians over rounds: the workload is
single-threaded, and on a shared machine its wall time mostly measures the
other tenants (the record keeps the wall times too). With --trace 1 every
round runs twice on the same inputs, untraced then traced; the traced copies
give the per-layer metrics, and the difference between the two is the
tracing overhead.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
The line before it is the full record: provenance, phase times, the paper's
outputs per round, and every failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# BLAS threads stay at or below nproc and are the same on every commit; one
# thread keeps the numbers steady on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "round_cpu_s": "s",
    "gen_cpu_s": "s",
    "load_cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics the runner adds to tracing.LAYER_METRICS.
TRACE_METRICS = ("trace.overhead_s", "unattributed_s", "trace.spans")


@dataclasses.dataclass
class Round:
    seed: int
    wall_s: float
    cpu_s: float
    ledger: object  # pipeline.Ledger of this round: phase CPU times and failures
    outputs: dict

    def record(self) -> dict:
        return {"seed": self.seed, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "phases_cpu_s": dict(self.ledger.seconds), "outputs": self.outputs}


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def round_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def probe_setup(workload: str) -> float:
    """CPU seconds of one set-up in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_round(pipeline, ctx, seed: int, workdir: Path) -> Round:
    ledger = pipeline.Ledger()
    wall, cpu = perf_counter(), cpu_seconds()
    outputs = pipeline.run_round(ctx, seed, workdir, ledger)
    return Round(seed, perf_counter() - wall, cpu_seconds() - cpu, ledger, outputs)


def digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(ctx, seed: int, src_hash: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": src_hash,
        "seed": seed,
        "workload": dataclasses.asdict(ctx.spec),
    }


def check_against_earlier_runs(workload: str, seed: int, src_hash: str,
                               rounds: list, ledger) -> None:
    """Outputs of one seed must be bit-identical on every run of one program."""
    path = OUT / "outputs" / f"{workload}-seed{seed}-{src_hash[:16]}.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    for index, rnd in enumerate(rounds):
        key, value = str(index), digest(rnd.outputs)
        if key in known:
            ledger.check(f"round {index} outputs match earlier runs", known[key] == value)
        else:
            known[key] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    setup = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    import cfcql_lab
    import pipeline
    import tracing

    if Path(cfcql_lab.__file__).resolve().parent != ROOT / "src" / "cfcql_lab":
        sys.exit(f"cfcql_lab was imported from {cfcql_lab.__file__}, not from this checkout")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer:
            ctx = pipeline.build(args.workload)
    else:
        ctx = pipeline.build(args.workload)

    checks = pipeline.Ledger()  # checks across rounds and runs
    plain, traced = [], []
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        start = perf_counter()
        while True:
            index = len(plain)
            seed = round_seed(args.seed, index)
            plain.append(timed_round(pipeline, ctx, seed, workdir))
            if index == 0:
                # Later rounds can raise the peak through allocator reuse
                # alone, so the peak is taken once the first round has ended.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer:
                tracer.segment = f"round{index}"
                with tracer:
                    traced.append(timed_round(pipeline, ctx, seed, workdir))
                checks.check(f"round {index} outputs unchanged by tracing",
                             digest(traced[-1].outputs) == digest(plain[-1].outputs))
            elapsed = perf_counter() - start
            # Start another round only if it should end within --seconds.
            if elapsed + elapsed / len(plain) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    src_hash = source_hash()
    check_against_earlier_runs(args.workload, args.seed, src_hash, plain, checks)
    ledgers = [r.ledger for r in plain + traced] + [checks]
    attempted = sum(led.attempted for led in ledgers)
    failed = sum(led.failed for led in ledgers)

    if tracer:
        segments = [f"round{k}" for k in range(len(traced))]
        summary = tracer.summary(["setup"] + segments)
        values = tracing.layer_metrics(summary, segments)
        values["trace.overhead_s"] = median(t.cpu_s - p.cpu_s for t, p in zip(traced, plain))
        values["unattributed_s"] = median(
            t.cpu_s - summary[seg]["root_s"] for t, seg in zip(traced, segments))
        values["trace.spans"] = median(summary[seg]["spans"] for seg in segments)
        metrics = {m: {"value": v, "unit": tracing.unit(m)} for m, v in values.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        values = {
            "setup_s": median(setup),
            "round_cpu_s": median(r.cpu_s for r in plain),
            "gen_cpu_s": median(r.ledger.seconds["gen"] for r in plain),
            "load_cpu_s": median(r.ledger.seconds["load"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}

    phases = sorted({p for r in plain for p in r.ledger.seconds})
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(ctx, args.seed, src_hash),
        "setup_probes_s": setup,
        "phases_median_cpu_s": {p: median(r.ledger.seconds[p] for r in plain) for p in phases},
        "rounds": [r.record() for r in plain],
        "traced_rounds": [r.record() for r in traced],
        "untraced_targets": tracer.missing if tracer else [],
        "errors": [e for led in ledgers for e in led.errors],
    }
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    text = json.dumps(record, sort_keys=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text)
    print(text)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
