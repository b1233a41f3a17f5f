"""Write BENCH_<label>.json: perfbench's workloads over a fixed number of rounds, counters per
trial step, per-layer times at five team sizes, and the Python, numpy and BLAS that ran them.

    python3 bench.py --label L [--smoke] [--out-dir DIR]
    python3 bench.py --label L --against TREE [--workload W] [--pairs P] [--smoke] [--out-dir DIR]

momentflow is imported from ``src/`` next to this file.  The workloads, their inputs and their
output checks are ``perfbench/workloads.py`` and ``perfbench/oracle.py``, imported as they are.

Per workload (round_trip, large_n, cli at seed 1):
  solve_s   median time of 5 timed rounds: every operation's call, not its output check, in
            seconds at the reference speed of perfbench's speed probe, as perfbench reports
            it (``solve_s_wall``: the median of the rounds' wall times)
  failed    operations that raised or failed their check, over the timed rounds, and why
  counters  one more round, with counting wrappers patched in from outside ``src/``:
            accepted and rejected trial steps; ``gradient._Evaluation`` constructions,
            ``network._product`` calls (patched in ``network`` and in ``gradient``, which
            imports it by name) and start compressions (evaluations in
            ``dynamics._feasible_start`` after its first), in total and per trial step;
            ``gradient._pairwise_distance`` calls per evaluation (1.0 where no drift found a
            far pair or a zero gap and formed the distances again); and
            ``moments_from_eigenvalues`` calls per ``spectrum`` call
Per layer, a planar Euclidean team at s = 4 for n in 7, 10, 50, 200, 800 (the median of
repeated calls, in microseconds, and their mean minor page faults): distances, weights, half
chain and moments, evaluation and drift, and one accepted trial step (the state's drift and
the candidate's evaluation), each from the start's positions as a flow lays them out; at
n = 7 and 10 the count of momentflow's Python frames per trial step (the same every run); and
at n = 8 for s = 3, 4 and 5, the orders round_trip runs, one trial step and its frames.

With ``--against TREE`` it times one workload (default round_trip) in one process for this
tree and for TREE, another checkout whose ``src/momentflow`` it imports as the package
``momentflow_against``: P pairs (default 10), each running every operation once per tree, the
trees in ABBA order, pair by pair.  Per operation label it reports the median of the paired
ratios this / TREE of wall time, the pairs this tree won, TREE's quartiles, and whether every
result hashed equal on both trees; the same for the whole round; each tree's failed
operations; and, alternated the same way after the workload, one accepted trial step from
``_start`` at n = 8 for s = 3, 4 and 5 and at n = 200 for s = 4 (``--smoke``: n = 8, s = 3),
each row's median ratio of per-pair median microseconds, its wins and TREE's quartiles.  A
record hashes sample by sample (t, positions, moments, cost, barrier), with its final
positions, moments and eigenvalues, its counts and its termination; a CLI call hashes its
status and output.

Times are of the machine they ran on; the probe takes out only part of a shared host's drift
from minute to minute, while the counters repeat exactly.  One BLAS thread, as in perfbench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import momentflow  # noqa: E402
import momentflow.cli  # noqa: E402,F401  (not imported by the package)
import speed  # noqa: E402  (perfbench's machine-speed probe)
import workloads  # noqa: E402  (perfbench's; it imports perfbench's oracle)
from momentflow import dynamics, gradient, network, scenarios  # noqa: E402

SEED = 1
ROUNDS = 5
SIZES = (7, 10, 50, 200, 800)
SMOKE_SIZES = FRAME_SIZES = (7, 10)
TRIAL_STEPS = 20  # for a frame count
ORDER = 4
ORDER_TEAM, ORDERS = 8, (3, 4, 5)  # round_trip's orders, at one of its team sizes
TRIAL_ROWS = ((ORDER_TEAM, 3), (ORDER_TEAM, 4), (ORDER_TEAM, 5), (200, ORDER))  # --against's
AGAINST = "momentflow_against"
LAYER_SECONDS = 0.2  # per layer and size, after MIN_REPEATS calls
MIN_REPEATS = 5
MAX_REPEATS = 2000


class Counters:
    """Counting wrappers around momentflow's private names, installed while in a ``with``."""

    def __init__(self):
        self.counts = dict.fromkeys(("evaluations", "products", "distances", "start_compressions",
                                     "moments_from_eigenvalues"), 0)
        self._patches = []

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, home, name, wrapper):
        """Replace ``home.name`` by ``wrapper`` in every momentflow module that holds it."""
        original = getattr(home, name)
        modules = [module for key, module in sys.modules.items()
                   if key == "momentflow" or key.startswith("momentflow.")]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    def __enter__(self):
        counts = self.counts
        self._patch(network, "_product", self._counted("products", network._product))
        self._patch(network, "moments_from_eigenvalues", self._counted(
            "moments_from_eigenvalues", network.moments_from_eigenvalues))
        start = dynamics._feasible_start

        def feasible_start(*args):
            before = counts["evaluations"]
            try:
                return start(*args)
            finally:
                counts["start_compressions"] += max(counts["evaluations"] - before - 1, 0)
        self._patch(dynamics, "_feasible_start", feasible_start)
        distance = gradient._pairwise_distance  # the evaluation's and its drift's, not network's
        self._patches.append((gradient, "_pairwise_distance", distance))
        gradient._pairwise_distance = self._counted("distances", distance)
        init = gradient._Evaluation.__init__
        self._patches.append((gradient._Evaluation, "__init__", init))
        gradient._Evaluation.__init__ = self._counted("evaluations", init)
        return self

    def __exit__(self, *exc):
        for home, attribute, original in reversed(self._patches):
            setattr(home, attribute, original)
        self._patches.clear()


def _attempt(op):
    """The monotonic (start, end) of ``op.call``, ``op.check``'s outcome, judged as perfbench
    judges it, and the call's result (what it raised, if it raised)."""
    outcome = workloads.Outcome()
    start = time.monotonic()
    try:
        result = op.call()
    except Exception as exc:  # the program crashed: a failed operation
        outcome.failed(f"raised {type(exc).__name__}: {exc}")
        return (start, time.monotonic()), outcome, outcome.problems[0]
    span = (start, time.monotonic())
    try:
        return span, op.check(result), result
    except Exception as exc:  # unreadable output counts as wrong output
        outcome.wrong(f"output check raised {type(exc).__name__}: {exc}")
        return span, outcome, result


def workload(name, smoke, rounds, workdir):
    """The workload's record, with each timed round's spans for main to scale."""
    ops = workloads.WORKLOADS[name](momentflow, SEED, smoke, workdir)
    spans, failed, problems = [], 0, set()
    for _ in range(rounds):
        attempts = [_attempt(op)[:2] for op in ops]
        spans.append([span for span, _ in attempts])
        for op, (_, outcome) in zip(ops, attempts):
            failed += outcome.status != "ok"
            problems.update(f"{op.label}: {problem}" for problem in outcome.problems)
    accepted = rejected = spectrum_calls = spectrum_moments = 0
    with Counters() as counters:
        for op in ops:
            before = counters.counts["moments_from_eigenvalues"]
            outcome = _attempt(op)[1]
            accepted, rejected = accepted + outcome.accepted, rejected + outcome.rejected
            if op.label.startswith("spectrum"):
                spectrum_calls += 1
                spectrum_moments += counters.counts["moments_from_eigenvalues"] - before
    counts = counters.counts
    trial = accepted + rejected
    return {
        "operations": len(ops),
        "rounds": rounds,
        "spans": spans,
        "failed": failed,
        "problems": sorted(problems),
        "counters": {
            "accepted_steps": accepted,
            "rejected_steps": rejected,
            "evaluations": counts["evaluations"],
            "products": counts["products"],
            "start_compressions": counts["start_compressions"],
            "per_trial_step": {key: counts[key] / trial if trial else None
                               for key in ("evaluations", "products", "start_compressions")},
            "distances_per_evaluation":
                counts["distances"] / counts["evaluations"] if counts["evaluations"] else None,
            "spectrum_calls": spectrum_calls,
            "moments_from_eigenvalues_per_spectrum_call":
                spectrum_moments / spectrum_calls if spectrum_calls else None,
        },
    }


def _timed(call, prepare, seconds):
    """Median microseconds of ``call(prepare())`` and its mean minor page faults, of the call
    alone.  Faults depend on what the allocator holds: a call that allocates its n x n arrays
    anew, at n = 200 and up, may fault them all in again on every call."""
    samples, faults = [], 0
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_REPEATS or (
            len(samples) < MAX_REPEATS and time.perf_counter() < deadline):
        argument = prepare()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call(argument)
        samples.append(time.perf_counter() - start)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"us": statistics.median(samples) * 1e6, "minor_faults": faults / len(samples)}


def _start(n, order=ORDER, package=momentflow):
    """A seeded planar team of n robots, as large_n's is built: a goal with about one robot per
    two unit areas, and the start it contracted by 0.95, evaluated as a flow's first state by
    ``package`` (this tree's momentflow, or the one ``--against`` names)."""
    rng = np.random.default_rng(n)
    goal = rng.random((n, 2)) * np.sqrt(2.0 * n)
    start = goal.mean(axis=0) + 0.95 * (goal - goal.mean(axis=0))
    params = package.gradient.ControllerParams(decay=1.0, metric=2, order=order)
    targets = package.scenarios.target_from_formation(
        package.network.RobotConfiguration(goal), params)
    with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs (network._quiet)
        return package.dynamics._feasible_start(
            package.network.RobotConfiguration(start), targets, params)


def _trial_step(flow, start, seconds, package=momentflow):
    """One accepted trial step (the state's drift and the candidate's evaluation), timed."""
    return _timed(lambda state: package.dynamics._advance(state, package.dynamics.DEFAULT_DT),
                  lambda: package.gradient._Evaluation(flow, start), seconds)


def layers(sizes, seconds):
    """Per-layer medians for :func:`_start`'s team of n robots, from its positions as the flow
    lays them out."""
    table = {}
    for n in sizes:
        state = _start(n)
        flow, start = state.flow, state.positions
        with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs (network._quiet)
            distance = network._pairwise_distance(start, 2)[0]
            weights = network._adjacency(distance, 1.0)
            cases = {
                "distances": lambda _: network._pairwise_distance(start, 2),
                "weights": lambda _: network._adjacency(distance, 1.0),
                "half_chain_moments": lambda _: network._half_chain(weights, flow.plan),
                "evaluation_drift": lambda _: gradient._Evaluation(flow, start).drift,
            }
            table[str(n)] = {name: _timed(call, lambda: None, seconds)
                             for name, call in cases.items()}
            table[str(n)]["trial_step"] = _trial_step(flow, start, seconds)
    return table


def by_order(seconds):
    """At n = ORDER_TEAM, per order s in ORDERS: one trial step's median and its frames."""
    table = {}
    for order in ORDERS:
        state = _start(ORDER_TEAM, order)
        with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs (network._quiet)
            step = _trial_step(state.flow, state.positions, seconds)
        table[str(order)] = {"trial_step": step,
                             "frames_per_trial_step": frames_per_trial_step(ORDER_TEAM, order)}
    return table


def frames_per_trial_step(n, order=ORDER):
    """momentflow's Python frames per trial step over TRIAL_STEPS trial steps from
    :func:`_start`'s team of n robots, each at the dt the last one returned, counted with
    ``sys.setprofile`` as tier-1's ``test_momentflow_frames_per_trial_step`` counts them."""
    package, calls = str(Path(momentflow.__file__).parent) + os.sep, 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    state, dt, previous = _start(n, order), dynamics.DEFAULT_DT, sys.getprofile()
    with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs (network._quiet)
        sys.setprofile(profile)
        try:
            for _ in range(TRIAL_STEPS):
                state, _, dt = dynamics._advance(state, dt)
        finally:
            sys.setprofile(previous)
    return calls / TRIAL_STEPS


def _import_tree(tree):
    """``tree``'s ``src/momentflow``, with its CLI, as the package AGAINST.  Its modules import
    each other relatively, so they load under that name alone."""
    source = Path(tree).resolve() / "src" / "momentflow"
    if not (source / "__init__.py").is_file():
        sys.exit(f"bench.py: no momentflow sources at {source}")
    spec = importlib.util.spec_from_file_location(
        AGAINST, source / "__init__.py", submodule_search_locations=[str(source)])
    package = sys.modules[AGAINST] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    importlib.import_module(f"{AGAINST}.cli")
    return package


def _digest(result):
    """SHA-256 of an operation's result: a record's samples, final state, counts and
    termination, or a CLI call's status and output."""
    digest = hashlib.sha256()
    if not hasattr(result, "samples"):
        digest.update(repr(result).encode())
        return digest.hexdigest()
    for sample in result.samples:
        digest.update(np.array([sample.t, sample.cost, sample.barrier]).tobytes())
        digest.update(sample.configuration.positions.tobytes())
        digest.update(sample.moments.values.tobytes())
    for array in (result.final_configuration.positions, result.final_moments.values,
                  result.final_eigenvalues, np.array([result.simulated_time])):
        digest.update(array.tobytes())
    digest.update(repr((result.accepted_steps, result.rejected_steps, result.termination_reason,
                        result.termination_detail)).encode())
    return digest.hexdigest()


def _paired(this, other, unit="s"):
    """The median ratio this / other over pairs, the pairs this won, other's quartiles."""
    ratios = [a / b for a, b in zip(this, other)]
    return {"ratio": statistics.median(ratios), "wins": sum(r < 1.0 for r in ratios),
            "pairs": len(ratios), f"against_quartiles_{unit}": statistics.quantiles(other, n=4)}


def against(tree, name, pairs, smoke, workdir):
    """One workload's operations for this tree and ``tree``, in ABBA order pair by pair."""
    packages = {"this": momentflow, "against": _import_tree(tree)}
    ops = {key: workloads.WORKLOADS[name](package, SEED, smoke, workdir)  # one set of inputs
           for key, package in packages.items()}
    labels = [op.label for op in ops["this"]]
    times = {key: {label: [0.0] * pairs for label in labels} for key in packages}
    digests = {key: [set() for _ in labels] for key in packages}
    failed = dict.fromkeys(packages, 0)
    for pair in range(pairs):
        for index, label in enumerate(labels):
            for key in ("this", "against") if pair % 2 else ("against", "this"):
                (start, end), outcome, result = _attempt(ops[key][index])
                times[key][label][pair] += end - start
                failed[key] += outcome.status != "ok"
                digests[key][index].add(_digest(result))
    equal = dict.fromkeys(labels, True)  # a label may name several operations (cli's)
    for label, this, other in zip(labels, digests["this"], digests["against"]):
        equal[label] &= this == other
    rounds = {key: [sum(column) for column in zip(*times[key].values())] for key in packages}
    return {
        "against": str(Path(tree).resolve()),
        "workload": name,
        "pairs": pairs,
        "operations": {label: {**_paired(times["this"][label], times["against"][label]),
                               "records_equal": equal[label]} for label in times["this"]},
        "round": {**_paired(rounds["this"], rounds["against"]),
                  "records_equal": all(equal.values())},
        "failed": failed,
        "trial_steps": trial_steps_against(packages, pairs, smoke),
    }


def trial_steps_against(packages, pairs, smoke):
    """TRIAL_ROWS' trial steps for each tree, ABBA pair by pair: per row (n, s), the median of
    each tree's per-pair median microseconds as ratios this / TREE, the pairs this tree won and
    TREE's quartiles in microseconds."""
    rows = TRIAL_ROWS[:1] if smoke else TRIAL_ROWS
    seconds = LAYER_SECONDS / (20 if smoke else 4)
    starts = {key: {row: _start(*row, package=package) for row in rows}
              for key, package in packages.items()}
    times = {key: {row: [] for row in rows} for key in packages}
    for pair in range(pairs):
        for row in rows:
            for key in ("this", "against") if pair % 2 else ("against", "this"):
                state = starts[key][row]
                with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs
                    step = _trial_step(state.flow, state.positions, seconds, packages[key])
                times[key][row].append(step["us"])
    return {f"n={n},s={order}": _paired(times["this"][n, order], times["against"][n, order],
                                        "us") for n, order in rows}


def _blas_core():
    """The kernel a DYNAMIC_ARCH OpenBLAS picked at run time, or None where it cannot say."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes, function.restype = [], ctypes.c_char_p
                return function().decode()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _blas_core(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's tiny inputs, one round, n = 7 and 10 only")
    parser.add_argument("--out-dir", default=str(ROOT), help="where to write (default: repo root)")
    parser.add_argument("--against", metavar="TREE",
                        help="time one workload here and in the checkout TREE, pair by pair")
    parser.add_argument("--workload", default="round_trip", choices=sorted(workloads.WORKLOADS),
                        help="the workload --against times (default: round_trip)")
    parser.add_argument("--pairs", type=int, default=10, help="--against's pairs (default: 10)")
    args = parser.parse_args(argv)
    rounds = 1 if args.smoke else ROUNDS
    began = time.perf_counter()
    result = {"label": args.label, "seed": SEED, "smoke": args.smoke,
              "environment": environment()}
    if args.against:
        if args.pairs < 2:
            parser.error("--pairs must be at least 2")
        with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
            found = against(args.against, args.workload, args.pairs, args.smoke, Path(scratch))
        result.update(found)
        for label, row in [*result["operations"].items(), ("round", result["round"]),
                           *result["trial_steps"].items()]:
            records = ("" if "records_equal" not in row else
                       f", records {'equal' if row['records_equal'] else 'DIFFER'}")
            print(f"{label}: ratio {row['ratio']:.4f}, won {row['wins']}/{row['pairs']}{records}",
                  file=sys.stderr)
        return _write(result, args, began)
    result["workloads"] = {}
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch, speed.Probe() as probe:
        for name in workloads.WORKLOADS:
            workdir = Path(scratch) / name
            workdir.mkdir()
            result["workloads"][name] = workload(name, args.smoke, rounds, workdir)
    for name, found in result["workloads"].items():
        spans = found.pop("spans")
        rounds_s = [sum((end - start) * probe.scale(start, end) for start, end in round_spans)
                    for round_spans in spans]
        found["solve_s"] = statistics.median(rounds_s)
        found["solve_s_rounds"] = rounds_s
        found["solve_s_wall"] = statistics.median(
            sum(end - start for start, end in round_spans) for round_spans in spans)
        print(f"{name}: solve_s {found['solve_s']:.4f}", file=sys.stderr)
    result["layers"] = {
        "team": f"planar, Euclidean, c = 1, s = {ORDER}",
        "n": layers(SMOKE_SIZES if args.smoke else SIZES,
                    LAYER_SECONDS / 20 if args.smoke else LAYER_SECONDS),
        "frames_per_trial_step": {str(n): frames_per_trial_step(n) for n in FRAME_SIZES},
        "by_order": {"team": f"planar, Euclidean, c = 1, n = {ORDER_TEAM}",
                     "s": by_order(LAYER_SECONDS / 20 if args.smoke else LAYER_SECONDS)},
    }
    return _write(result, args, began)


def _write(result, args, began):
    result["bench_s"] = time.perf_counter() - began
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
