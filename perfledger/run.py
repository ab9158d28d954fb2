"""STS performance benchmark: end-to-end metrics per workload, per-layer
metrics from a traced run.

One run (run it from the repository root)::

    python3 perfledger/run.py --workload pairwise-taxi --seed 1 --seconds 15 --trace 0

prints a provenance line (work fingerprint, environment, failed checks)
and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the work
untraced, traced, then untraced again, reports the per-layer metrics of
the traced pass and its overhead over the last pass, and writes the spans
under ``.perfledger/``.

Other modes::

    python3 perfledger/run.py steady  [--runs 10] [--workloads a,b] [--out runs.jsonl]
    python3 perfledger/run.py compare OLD.jsonl NEW.jsonl
    python3 perfledger/run.py selfcheck

``steady`` repeats runs with consecutive seeds and prints each metric's
median, quartiles and spread against its bound; ``compare`` puts two sets
of runs side by side; ``selfcheck`` proves that a perturbed score fails
the correctness gate on every workload.  Exit status is 0 only when the
run's outputs passed every check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import procs

procs.pin_threads()  # before numpy is imported anywhere

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfledger"
SETUP_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_once(args) -> int:
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Recorder, install, layer_values

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    (work_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    tempfile.tempdir = str(work_dir / "tmp")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work_dir)
        workload.build()
        env = procs.environment(ROOT, max(p.workers for p in workload.phases))
        if args.trace:
            # A discarded untraced pass first, so neither measured pass
            # pays first-touch costs (page faults, FFT plans) the other
            # does not; the last pass is the untraced reference.
            workloads.run_pass(workload, 1, min_setup_s=0.0, sample=False)
            recorder = Recorder()
            uninstall = install(recorder)
            try:
                traced = workloads.run_pass(workload, 1, recorder, min_setup_s=0.0, sample=False)
            finally:
                uninstall()
            recorder.finish()
            reference = workloads.run_pass(workload, 1, min_setup_s=0.0, sample=False)
            overhead = traced.wall_s / reference.wall_s - 1.0
            values = layer_values(recorder, traced.worker_cpu_s, overhead)
            recorder.dump(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json")
            wanted = spec["per_layer"]
        else:
            result = workloads.run_pass(workload, SETUP_REPEATS)
            wanted = spec["end_to_end"]
        workloads.check(workload, args.perturb)
        if not args.trace:
            values = workloads.end_to_end(workload, result)
            raw = workloads.end_to_end(workload, result, raw=True)
    finally:
        procs.reap(stop_tracker=True)
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = [op for phase in workload.phases for op in phase.ops]
    failures = [f"{phase.name}[{k}]: {msg}" for phase in workload.phases
                for k, op in enumerate(phase.ops) for msg in op.failures]
    failed = sum(1 for op in ops if op.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    out = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "perturb": args.perturb,
        "fingerprint": workloads.fingerprint(workload),
        "unscaled": None if args.trace else raw,
        "failures": failures[:20],
        "env": env,
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**record, **out}) + "\n")
    for line in failures[:20]:
        print(f"perfledger: check failed: {line}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("steady", "compare", "selfcheck"):
        import report

        return report.main(argv, spec=load_spec(), script=Path(__file__).resolve())
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="add 0.01 to one score before the checks (the gate must fail)")
    parser.add_argument("--record", help="append the full run record to this JSONL file")
    return run_once(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
