"""Benchmark for momentflow: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {round_trip,large_n,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; momentflow is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  A summary and every failed check go to standard error.

A run performs whole rounds (one pass over the workload's operations) and
starts another only while the last one would still end within
``--seconds``; it always performs at least one.  Time-based metrics are
medians over rounds, in seconds at the reference speed of ``speed.py``.
See README.md for the workloads and metrics.
"""

import os

# One BLAS thread: two were no faster for n = 200 on 2 CPUs (README.md), one
# keeps the measurement off the other CPU, and the small-n workloads never
# use a second thread.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def import_momentflow():
    """momentflow from this checkout's ``src/``, or exit with status 1."""
    if not (SRC / "momentflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no momentflow sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import momentflow
    import momentflow.cli  # noqa: F401  (not imported by the package)

    if Path(momentflow.__file__).resolve().parent != SRC / "momentflow":
        sys.exit(f"perfbench: imported momentflow from {momentflow.__file__}, not {SRC}")
    return momentflow


def set_up(args, workdir: Path):
    """Import momentflow and generate the workload's inputs."""
    mf = import_momentflow()
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[args.workload](mf, args.seed, args.smoke, workdir)


def time_set_up(args, repeats: int) -> list[tuple[float, float]]:
    """(start, end) of process start to inputs ready, in fresh processes.

    Each child imports momentflow, generates the inputs and prints the
    monotonic clock when done; interpreter start-up is included, teardown
    is not.
    """
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    for _ in range(repeats):
        spawned = time.monotonic()
        child = subprocess.run(argv, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S, check=True)
        samples.append((spawned, float(child.stdout.split()[-1])))
    return samples


def run_round(ops, tracer=None):
    """One pass over the operations: per-op (start, end) and outcomes."""
    spans, outcomes = [], []
    for op in ops:
        span = tracer.span(f"bench.{op.label}") if tracer else contextlib.nullcontext()
        start = time.monotonic()
        try:
            with span:
                result = op.call()
        except Exception as exc:  # the program crashed: a failed operation
            spans.append((start, time.monotonic()))
            outcome = workloads.Outcome()
            outcome.failed(f"raised {type(exc).__name__}: {exc}")
            outcomes.append(outcome)
            continue
        spans.append((start, time.monotonic()))
        try:
            outcome = op.check(result)
        except Exception as exc:  # unreadable output counts as wrong output
            outcome = workloads.Outcome()
            outcome.wrong(f"output check raised {type(exc).__name__}: {exc}")
        outcomes.append(outcome)
    return spans, outcomes


def measure(ops, seconds: float):
    """Whole rounds until the next one would end after ``seconds``."""
    rounds = []
    begin = time.monotonic()
    while True:
        started = time.monotonic()
        rounds.append(run_round(ops))
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            return rounds


def tally(passes):
    """attempted, failed, correct over (ops, outcomes) pairs.

    Each distinct problem goes to standard error once, with its count.
    """
    problems = Counter()
    attempted = failed = 0
    correct = True
    for ops, outcomes in passes:
        for op, outcome in zip(ops, outcomes):
            attempted += 1
            if outcome.status != "ok":
                failed += 1
                correct = correct and outcome.status != "wrong"
                for problem in outcome.problems:
                    problems[(outcome.status, op.label, problem)] += 1
    for (status, label, problem), count in sorted(problems.items()):
        print(f"{status}: {label}: {problem} (x{count})", file=sys.stderr)
    return attempted, failed, correct


def steps(outcomes):
    accepted = sum(o.accepted for o in outcomes)
    return accepted, accepted + sum(o.rejected for o in outcomes)


def metric(value, unit):
    return {"value": value, "unit": unit}


def wall(spans):
    return sum(end - start for start, end in spans)


def at_reference_speed(spans, probe):
    return sum((end - start) * probe.scale(start, end) for start, end in spans)


def fmt_ms(seconds):
    return "/".join(f"{s * 1e3:.4f}" for s in seconds) + " ms"


def end_to_end(args, ops):
    with speed.Probe() as probe:
        rounds = measure(ops, args.seconds)
        setups = time_set_up(args, 2 if args.smoke else SETUP_REPEATS)
    per_round = [at_reference_speed(spans, probe) for spans, _ in rounds]
    solve_s = statistics.median(per_round)
    trial = statistics.median_low(steps(outcomes)[1] for _, outcomes in rounds)
    setup_s = statistics.median(at_reference_speed([s], probe) for s in setups)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{args.workload}: {len(rounds)} round(s) of {len(ops)} operations, "
          f"{trial} trial steps per round; solve_s per round min/median/max "
          f"{min(per_round):.4f}/{solve_s:.4f}/{max(per_round):.4f} "
          f"(wall median {statistics.median(wall(s) for s, _ in rounds):.4f}); "
          f"setup_s wall samples {', '.join(f'{wall([s]):.3f}' for s in setups)}; "
          f"probe kernel medians {fmt_ms(probe.kernel_medians_s)} "
          f"(reference {fmt_ms(speed.KERNEL_REFERENCE_S)})", file=sys.stderr)
    return [(ops, outcomes) for _, outcomes in rounds], {
        "setup_s": metric(setup_s, "s"),
        "solve_s": metric(solve_s, "s"),
        "trial_steps": metric(trial, "count"),
        "trial_steps_per_s": metric(trial / solve_s, "1/s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }


def layer_metrics(tracer, accepted: int, trial: int) -> dict:
    """The per-layer metrics BENCHMARK.json declares, from one traced round.

    A name is ``<module>.<function>.<kind>``; kinds ``self_s``, ``calls``
    and ``calls_per_step`` (per trial step) read the tracer's counts, and
    the other four metrics are computed here.
    """
    traced = {f"{module}.{fn}" for module, names in TRACED.items() for fn in names}
    special = {
        "network.power_chain.gflop": tracer.work["network.power_chain.flops"] / 1e9,
        "cli.write_trajectory_csv.bytes": tracer.work["cli.write_trajectory_csv.bytes"],
        "dynamics.accept_ratio": accepted / trial if trial else 0.0,
        # Each compression costs one more margin evaluation than the first.
        "dynamics.ensure_feasible.compressions": (
            tracer.edges[("dynamics.ensure_feasible", "dynamics.feasibility_margin")]
            - tracer.calls["dynamics.ensure_feasible"]),
    }
    metrics = {}
    for declared in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = declared["name"]
        fn, kind = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif fn not in traced:
            raise ValueError(f"per-layer metric {name}: {fn} is not traced")
        elif kind == "self_s":
            value = tracer.self_s[fn]
        elif kind == "calls":
            value = tracer.calls[fn]
        elif kind == "calls_per_step":
            value = tracer.calls[fn] / trial if trial else 0.0
        else:
            raise ValueError(f"per-layer metric {name}: unknown kind {kind!r}")
        metrics[name] = metric(value, declared["unit"])
    return metrics


def per_layer(args, ops):
    """One traced round, with untraced re-runs that measure the overhead.

    Right after an operation's traced call, the operation runs again
    untraced while its traced time still fits in what is left of
    ``--seconds``.  Each pair runs back to back, so both see the same
    machine, and a traced run lasts at most a round plus ``--seconds``.
    """
    tracer = Tracer()
    times, outcomes, paired, reference_times, reference_outcomes = [], [], [], [], []
    budget = args.seconds
    for index, op in enumerate(ops):
        tracer.install()
        try:
            traced, outcome = run_round([op], tracer)
        finally:
            tracer.uninstall()
        times.append(wall(traced))
        outcomes += outcome
        if times[-1] <= budget:
            untraced, outcome = run_round([op])
            paired.append(index)
            reference_times.append(wall(untraced))
            reference_outcomes += outcome
            budget -= reference_times[-1]
    untraced_s = sum(reference_times)
    traced_s = sum(times[i] for i in paired)
    overhead = {
        "operations_compared": len(paired),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s if paired else None,
    }
    accepted, trial = steps(outcomes)
    metrics = layer_metrics(tracer, accepted, trial)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trial_steps": trial, "traced_solve_s": sum(times),
        "overhead": overhead, "metrics": metrics, "trace": tracer.dump(),
    }))
    print(f"{args.workload}: traced round {sum(times):.4f} s; tracing adds "
          f"{traced_s - untraced_s:.4f} s to {untraced_s:.4f} s over {len(paired)} "
          f"operation(s) run both ways; wrote {path}", file=sys.stderr)
    return [(ops, outcomes), ([ops[i] for i in paired], reference_outcomes)], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a quick check that everything runs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops = set_up(args, workdir)
        if args.setup_only:
            print(time.monotonic())
            return 0
        if args.trace:
            passes, metrics = per_layer(args, ops)
            correct = tally(passes)[2]
            # Only the traced round counts; the untraced re-runs are partial.
            traced = passes[0][1]
            attempted = len(traced)
            failed = sum(outcome.status != "ok" for outcome in traced)
        else:
            passes, metrics = end_to_end(args, ops)
            attempted, failed, correct = tally(passes)
    finally:
        workloads.remove(workdir)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
