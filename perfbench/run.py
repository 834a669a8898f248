#!/usr/bin/env python3
"""perfbench: the repo's end-to-end + per-layer benchmark.

    python perfbench/run.py                      # all workloads, untraced
    python perfbench/run.py --traced             # per-layer pass
    python perfbench/run.py --workload bulk_flows --seed 7 \\
        --seconds 10 --trace 0                   # one workload (driver form)
    python perfbench/run.py --steadiness         # two sets, gap vs bound
    python perfbench/run.py --smoke              # 1 round, smallest cells
    python perfbench/run.py --update-oracle      # re-pin oracle.json

Without ``--workload`` every workload runs in its own fresh child
interpreter and the collected numbers land in ``perfbench/out/
result.json``.  With it, this process *is* that child: it sets up,
runs timed rounds for ``--seconds``, checks every cell against the
oracle and prints one JSON object as its last line.  README.md explains
the metrics and the timing method.
"""

import time

#: Set-up is timed from here: before numpy, the product or any plan.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ORACLE_PATH = HERE / "oracle.json"
ORACLE_SEED = 2013
#: Extra fresh interpreters that only set up, so ``setup_s`` is a median.
SETUP_PROBES = 2

sys.path.insert(0, str(HERE))

from hostclock import CAL_REF_S, PAD_S, HostSampler, cpu_seconds  # noqa: E402

#: Started by ``main`` before anything is measured (set-up included);
#: the parent of an all-workloads run never starts it.
SAMPLER = HostSampler()


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_product():
    """Import the product and the benchmark modules built on it."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.cli  # noqa: F401  (what every `repro` command pays)
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the product from "
                 f"{ROOT / 'src'}: {error}")
    import layers
    import tracing
    import workloads
    return workloads, tracing, layers


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF,
                               resource.RUSAGE_CHILDREN))
    return peak_kib / 1024.0


def timed(call, sampled: bool = True):
    """Run ``call()`` once as a timed region.

    Returns ``(result, raw wall seconds, raw CPU seconds, host factor)``;
    ``factor`` turns the raw seconds into reference-host seconds.  With
    ``sampled=False`` the sampler is off while ``call()`` runs and the
    factor comes from the samples ``PAD_S`` before and after: that is
    for the profiled round, where cProfile would count the kernel's
    calls and call counts must repeat exactly.
    """
    if not sampled:
        SAMPLER.stop()
    gc.collect()
    cpu = cpu_seconds()
    started = time.perf_counter()
    result = call()
    ended = time.perf_counter()
    cpu = cpu_seconds() - cpu
    if not sampled:
        SAMPLER.start()
        time.sleep(PAD_S)
    return result, ended - started, cpu, SAMPLER.factor(started, ended)


def quartiles(values):
    """(p25, median, p75); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, p50, p75


class Checker:
    """Counts cells attempted and failed.

    A cell fails when it did not complete, when its digest differs from
    any earlier digest of the same cell (between rounds, or between the
    serial, pool, distributed and cache-restored passes of a campaign),
    or -- at the pinned seed -- from ``oracle.json``.
    """

    def __init__(self, workloads, oracle) -> None:
        self._workloads = workloads
        self.oracle = oracle
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes) -> None:
        for cell, payload in outcomes:
            self.attempted += 1
            digest = self._workloads.digest(payload)
            if not self._workloads.completed(payload):
                problem = "did not complete"
            elif self.seen.setdefault(cell, digest) != digest:
                problem = "digest differs from an earlier run of the cell"
            elif self.oracle is not None and self.oracle.get(cell) != digest:
                problem = "digest differs from oracle.json"
            else:
                continue
            self.failed += 1
            print(f"perfbench: cell {cell}: {problem}", file=sys.stderr)


class Report:
    """Prints ``metric`` lines and keeps the values for the last line."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics = {}

    def add(self, name: str, value: float, unit: str, **fields) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        extras = "".join(f" {key}={field!r}"
                         for key, field in fields.items())
        print(f"metric {self.workload} {name} {value!r} {unit}{extras}")


class Rounds:
    """The timed rounds of one kind: raw times, each with the factor of
    the host-speed samples taken while it ran."""

    def __init__(self) -> None:
        self.wall = []
        self.cpu = []
        self.factors = []
        self.traced = []    # per round: what a traced round leaves

    def normalised(self, raw):
        return [value * factor for value, factor in zip(raw, self.factors)]

    def wall_p50(self) -> float:
        return statistics.median(self.normalised(self.wall))


def measure_rounds(workload, checker, tracer, until: float,
                   smoke: bool, floor: int = 1) -> Rounds:
    """Timed rounds until ``until`` (a ``perf_counter`` deadline), at
    least ``floor`` of them; one round under ``--smoke``."""
    rounds = Rounds()
    while True:
        first_span = tracer.begin_round() if tracer.enabled else 0

        def one_round():
            with tracer.span("round"):
                return workload.run_round(tracer)

        outcomes, wall, cpu, factor = timed(one_round)
        rounds.wall.append(wall)
        rounds.cpu.append(cpu)
        rounds.factors.append(factor)
        checker.check(outcomes)
        if tracer.enabled:
            rounds.traced.append({
                "totals": tracer.totals(first_span), "inst": tracer.inst,
                "facts": tracer.facts, "factor": factor,
                "payloads": [payload for _, payload in outcomes]})
        workload.after_round()
        if smoke or (len(rounds.wall) >= floor
                     and time.perf_counter() >= until):
            return rounds


def probe_setup(args):
    """Set-up time of one more fresh interpreter: (normalised, raw)."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=170)
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["raw_s"]


def untraced_run(args, manifest, null_tracer, workload, checker, setup,
                 report) -> None:
    rounds = measure_rounds(workload, checker, null_tracer,
                            time.perf_counter() + args.seconds, args.smoke)
    SAMPLER.stop()
    rss = peak_rss_mb()  # before the set-up probes join the children
    setups = [setup]
    if not (args.smoke or args.dump_digests):
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
    units = {metric["name"]: metric["unit"]
             for metric in manifest["end_to_end"]}
    p25, p50, p75 = quartiles([value for value, _ in setups])
    report.add("setup_s", p50, units["setup_s"], p25=p25, p75=p75,
               raw_p50=statistics.median(raw for _, raw in setups),
               n=len(setups))
    for name, raw in (("round_s_p50", rounds.wall),
                      ("round_cpu_s_p50", rounds.cpu)):
        p25, p50, p75 = quartiles(rounds.normalised(raw))
        report.add(name, p50, units[name], p25=p25, p75=p75,
                   raw_p50=statistics.median(raw), n=len(raw),
                   host_speed=statistics.median(rounds.factors))
    report.add("peak_rss_mb", rss, units["peak_rss_mb"])


def traced_run(args, manifest, modules, workload, checker, tracer, save_s,
               report) -> None:
    """Baseline rounds, span rounds, one profiled round -- each kind
    reporting its own cost, none feeding the end-to-end numbers."""
    _, tracing, layers = modules
    null_tracer = tracing.NULL_TRACER
    started = time.perf_counter()
    floor = 1 if args.smoke else 2
    baseline = measure_rounds(workload, checker, null_tracer,
                              started + 0.3 * args.seconds, args.smoke,
                              floor)
    spans = measure_rounds(workload, checker, tracer,
                           started + 0.65 * args.seconds, args.smoke,
                           floor)
    cells = len(workload.plan)
    per_round = [
        layers.span_round_metrics(
            entry["totals"], entry["inst"], entry["facts"],
            entry["payloads"], cells, entry["factor"])
        for entry in spans.traced]
    values = {name: statistics.median(round_[name] for round_ in per_round)
              for name in per_round[0]}
    values["experiments.storage.save_ms_per_result"] = (
        1e3 * save_s / cells if cells else 0.0)
    outcomes, distributed_s, _, factor = timed(
        lambda: workload.distributed_pass(tracer))
    checker.check(outcomes)
    values["experiments.distributed.overhead_ms_per_cell"] = (
        layers.pool_overhead_ms_per_cell(
            distributed_s * factor if outcomes else 0.0,
            values["experiments.parallel.serial_s"], cells))

    (outcomes, buckets), profiled_s, _, factor = timed(
        lambda: tracing.profile_by_module(
            lambda: workload.run_round(null_tracer)), sampled=False)
    checker.check(outcomes)
    workload.after_round()
    for bucket, (seconds, calls) in buckets.items():
        values[f"{bucket}.self_s"] = seconds * factor
        values[f"{bucket}.calls"] = calls
    values["bench.span_overhead_frac"] = (
        spans.wall_p50() / baseline.wall_p50() - 1.0)
    values["bench.profile_overhead_x"] = (
        profiled_s * factor / baseline.wall_p50())
    values["bench.self_s_sum_frac"] = (
        sum(seconds for seconds, _ in buckets.values()) / profiled_s)
    values["bench.host_speed"] = statistics.median(
        baseline.factors + spans.factors)
    declared = {metric["name"]: metric["unit"]
                for metric in manifest["per_layer"]}
    if set(declared) != set(values):
        sys.exit("perfbench: BENCHMARK.json per_layer and the traced run "
                 f"disagree on: {sorted(set(declared) ^ set(values))}")
    for name, unit in declared.items():
        report.add(name, values[name], unit)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.json")


def run_one(args) -> int:
    """The per-workload child: set up, measure, check, report."""
    modules = import_product()
    workloads, tracing, _ = modules
    null_tracer = tracing.NULL_TRACER
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: "
                 f"{', '.join(workloads.WORKLOADS)}")
    manifest = load_manifest()
    oracle = None
    if args.seed == ORACLE_SEED and not args.dump_digests:
        with open(ORACLE_PATH) as handle:
            oracle = json.load(handle)["digests"].get(args.workload, {})
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.smoke, workdir)
        checker = Checker(workloads, oracle)
        tracer = tracing.Tracer() if args.trace else null_tracer
        workload.prepare(tracer)
        checker.check(workload.run_round(null_tracer))  # warm-up round
        workload.after_round()
        ended = time.perf_counter()
        factor = SAMPLER.factor(_STARTED, ended)
        setup = ((ended - _STARTED) * factor, ended - _STARTED)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0], "raw_s": setup[1]}))
            return 0
        report = Report(args.workload)
        if args.trace:
            save_s = factor * tracer.totals().get(
                "experiments.storage.save", (0, 0.0))[1]
            traced_run(args, manifest, modules, workload, checker, tracer,
                       save_s, report)
        else:
            untraced_run(args, manifest, null_tracer, workload, checker,
                         setup, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        SAMPLER.stop()
    if args.dump_digests:
        with open(args.dump_digests, "w") as handle:
            json.dump(checker.seen, handle, indent=1, sort_keys=True)
    print(f"check {args.workload} attempted={checker.attempted} "
          f"failed={checker.failed} "
          f"failed_frac={checker.failed / checker.attempted!r}")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": report.metrics}))
    return 0


# ----------------------------------------------------------------------
# Driving every workload
# ----------------------------------------------------------------------

def parse_metric_lines(lines) -> dict:
    """``{metric name: {value, unit, <fields>}}`` from a child's output;
    a name printed twice raises."""
    parsed = {}
    for line in lines:
        if not line.startswith("metric "):
            continue
        _, _, name, value, unit, *fields = line.split()
        if name in parsed:
            raise ValueError(f"metric {name} printed twice")
        parsed[name] = {"value": float(value), "unit": unit}
        for field in fields:
            key, _, text = field.partition("=")
            parsed[name][key] = float(text)
    return parsed


def run_all(args, manifest, extra=()) -> dict:
    """Each workload in its own fresh interpreter, one at a time."""
    results = {}
    for entry in manifest["workloads"]:
        name = entry["name"]
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        for flag in extra:
            command.append(flag.format(workload=name))
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stdout.flush()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with "
                     f"{done.returncode}")
        results[name] = json.loads(lines[-1])
        results[name]["metrics"] = parse_metric_lines(lines)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "result.json", "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke,
                   "cal_ref_s": CAL_REF_S, "workloads": results},
                  handle, indent=1)
    return results


def all_correct(results) -> bool:
    return all(entry["correct"] for entry in results.values())


def update_oracle(args, manifest) -> int:
    args.seed, args.seconds, args.trace = ORACLE_SEED, 1, 0
    OUT.mkdir(exist_ok=True)
    pattern = str(OUT / "digests-{workload}.json")
    results = run_all(args, manifest,
                      extra=("--dump-digests", pattern))
    if not all_correct(results):
        sys.exit("perfbench: cells failed; oracle.json left as it was")
    digests = {}
    for name in results:
        path = pattern.format(workload=name)
        with open(path) as handle:
            digests[name] = json.load(handle)
        os.unlink(path)
    with open(ORACLE_PATH, "w") as handle:
        json.dump({"seed": ORACLE_SEED, "digests": digests}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {ORACLE_PATH}")
    return 0


def steadiness(args, manifest) -> int:
    """Two untraced sets back to back; every gap against its bound."""
    args.trace = 0
    first = run_all(args, manifest)
    second = run_all(args, manifest)
    missed = not (all_correct(first) and all_correct(second))
    speeds = []
    for name in first:
        for metric in manifest["end_to_end"]:
            before = first[name]["metrics"][metric["name"]]
            after = second[name]["metrics"][metric["name"]]
            gap = abs(after["value"] - before["value"]) / before["value"]
            verdict = "ok" if gap <= metric["bound"] else "MISS"
            missed = missed or verdict == "MISS"
            print(f"steadiness {name} {metric['name']} "
                  f"{before['value']:.6g} {after['value']:.6g} "
                  f"{metric['unit']} gap={gap:.2%} "
                  f"bound={metric['bound']:.0%} {verdict}")
            speeds += [entry["host_speed"] for entry in (before, after)
                       if "host_speed" in entry]
    print(f"steadiness bench.host_speed min={min(speeds):.3f} "
          f"median={statistics.median(speeds):.3f} max={max(speeds):.3f}")
    return 1 if missed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=ORACLE_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, smallest cell of each workload")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--update-oracle", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dump-digests", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    if args.workload:
        SAMPLER.start()
        return run_one(args)
    if args.update_oracle:
        return update_oracle(args, manifest)
    if args.steadiness:
        return steadiness(args, manifest)
    return 0 if all_correct(run_all(args, manifest)) else 1


if __name__ == "__main__":
    sys.exit(main())
