"""The repro simulator's benchmark.

    python3 perfbench/run.py --workload {paper-cold,layout-search,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the simulator is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller
report (raw samples, host reference figures, simulated figures, output
mismatches, and with ``--trace 1`` the recorded spans) goes to
``perfbench/out/``. ``perfbench/METRICS.md`` says what each metric
means and which layer change should move it.

``--trace 0`` reports the end-to-end metrics. The run times ``import
repro`` plus workload set-up and one pass in this fresh interpreter,
then the same in more fresh interpreters, at least ``COLD_SAMPLES``
of them and until ``COLD_SHARE`` of ``--seconds`` has passed
(``setup_s`` and ``first_pass_s`` average those samples). Then it
repeats passes in this process until ``--seconds`` have passed
(``wall_s`` averages them).

``--trace 1`` reports the per-layer metrics: after one untraced warm-up
pass it alternates untraced and traced passes, reports the median of
each layer metric over the traced passes and the tracing overhead
against the untraced ones, and writes the last traced pass's spans.
Per-layer times are raw host times.

Host times are scaled to a nominal host speed. A fixed pure-Python
reference loop runs after every timed interval, and each host-time
metric is the mean of its intervals times ``NOMINAL_REFERENCE_S`` over
the mean reference time taken around them. Other load on a shared
machine slows the loop and the program alike, so the scaled time
follows the program, not the host. The report keeps the raw times.

Every pass's simulated outputs are checked against
``perfbench/reference.json``; an operation fails when it raises, misses
a shape check, or differs from the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("paper-cold", "layout-search", "serve")

#: fresh interpreters a ``--trace 0`` run starts, besides its own, to
#: sample set-up and first-pass time
COLD_SAMPLES = 4
#: share of ``--seconds`` spent on cold samples when they are cheap
COLD_SHARE = 0.5
#: a run makes at least this many timed passes, however long they take
MIN_PASSES = 3
#: the host reference loop's time on a quiet 2-CPU development
#: container; host times are reported as if the loop took this long
NOMINAL_REFERENCE_S = 0.0095


def host_reference_s() -> float:
    """Time of a fixed pure-Python loop: how fast this host runs
    interpreted code right now. From pass to pass, the simulator's
    host time moves roughly in proportion to this loop's time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def reference_samples(interval_s: float) -> list[float]:
    """Host reference samples to take after an interval: one per quarter
    second of it, at least one."""
    return [host_reference_s() for _ in range(1 + int(interval_s / 0.25))]


class Meter:
    """Timed intervals of one kind, each followed by host reference
    samples."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def time(self, fn):
        """Run ``fn()``, time it, and return its result."""
        t0 = time.perf_counter()
        result = fn()
        self.add(time.perf_counter() - t0)
        return result

    def add(self, seconds: float, refs: list[float] | None = None) -> None:
        self.times.append(seconds)
        self.refs.extend(refs if refs is not None
                         else reference_samples(seconds))

    def scaled(self) -> float:
        """The mean interval on the nominal host: the mean host time,
        scaled by the mean reference time taken around the intervals.
        Means, not medians: a shared host's speed flips between states
        on a scale of seconds, and the ratio of the two means tracks
        the share of time spent in each."""
        return (statistics.fmean(self.times) * NOMINAL_REFERENCE_S
                / statistics.fmean(self.refs))

    def report(self) -> dict:
        return {"times_s": self.times, "host_reference_s": self.refs,
                "scaled_s": self.scaled()}


def check(outputs: dict, reference: dict | None) -> tuple[int, int, list]:
    """Compare one pass's outputs with the reference, per operation.

    Returns ``(attempted, failed, problems)``.
    """
    outputs = json.loads(json.dumps(outputs))  # compare as stored
    if reference is None:
        return len(outputs), len(outputs), ["no stored reference"]
    problems = []
    ops = sorted(set(outputs) | set(reference))
    for op in ops:
        got, want = outputs.get(op), reference.get(op)
        if isinstance(got, dict) and "error" in got:
            problems.append(f"{op}: raised {got['error']}")
        elif got != want:
            problems.append(f"{op}: differs from the reference")
        elif any(not c[1] for c in got.get("checks", ())):
            problems.append(f"{op}: missed a shape check")
    return len(ops), len(problems), problems


class Run:
    """One benchmark run: a workload, its inputs, and its output check.

    Constructing it is the set-up ``setup_s`` times: ``import repro``
    plus the workload's set-up.
    """

    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        import workloads  # imports repro

        self.workloads = workloads
        self.name = workload
        self.state = workloads.WORKLOADS[workload][0](seed)
        self.reference = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.simulated: dict = {}

    def _pass(self, tracer):
        try:
            return self.workloads.run_pass(self.name, self.state, tracer)
        except Exception as exc:  # counted as failed by timed_pass
            self.problems.append(f"pass raised {exc!r}")
            return None

    def timed_pass(self, meter: Meter, tracer) -> None:
        """One pass, timed by ``meter``, with its outputs checked."""
        outputs = meter.time(lambda: self._pass(tracer))
        if self.reference is None:  # read after set-up, not timed in it
            key = self.workloads.reference_key(self.name, self.state)
            self.reference = json.loads(REFERENCE.read_text()).get(key)
        if outputs is None:  # the whole pass raised: every op failed
            n = len(self.reference or ()) or 1
            self.attempted += n
            self.failed += n
            return
        attempted, failed, problems = check(outputs, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        self.simulated = outputs.get("figures", {})


def cold_sample(workload: str, seed: int) -> dict:
    """Set-up and first pass in a fresh interpreter (``--cold-sample``)."""
    setup, first = Meter(), Meter()
    run = setup.time(lambda: Run(workload, seed))
    run.timed_pass(first, NullTracer())
    return {"setup": [setup.times[0], setup.refs],
            "first_pass": [first.times[0], first.refs],
            "attempted": run.attempted, "failed": run.failed,
            "problems": run.problems[:5]}


def spawn_cold_sample(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--cold-sample",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"cold sample exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Run, setup: Meter, args, deadline: float):
    first, warm = Meter(), Meter()
    run.timed_pass(first, NullTracer())
    cold_deadline = deadline - (1.0 - COLD_SHARE) * args.seconds
    while (len(first.times) <= COLD_SAMPLES
           or time.perf_counter() < cold_deadline):
        sample = spawn_cold_sample(args.workload, args.seed)
        setup.add(*sample["setup"])
        first.add(*sample["first_pass"])
        run.attempted += sample["attempted"]
        run.failed += sample["failed"]
        run.problems.extend(sample["problems"])
    while len(warm.times) < MIN_PASSES or time.perf_counter() < deadline:
        run.timed_pass(warm, NullTracer())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": warm.scaled(),
        "first_pass_s": first.scaled(),
        "setup_s": setup.scaled(),
        "peak_rss_mb": peak_kib / 1024,
    }
    meters = {"setup_s": setup, "first_pass_s": first, "wall_s": warm}
    return metrics, meters


def per_layer(run: Run, setup: Meter, args, deadline: float):
    tracer = Tracer()
    run.timed_pass(Meter(), NullTracer())  # warm-up, like a first pass
    plain, traced_meter, layers = Meter(), Meter(), []
    while (len(plain.times) < MIN_PASSES
           or time.perf_counter() < deadline):
        run.timed_pass(plain, NullTracer())
        tracer.reset()
        with traced(tracer):
            run.timed_pass(traced_meter, tracer)
        layers.append(tracer.metrics())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    metrics = {
        name: statistics.median(m[name] for m in layers)
        for name in layers[0]
    }
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_meter.scaled() / plain.scaled() - 1.0)
    )
    meters = {"setup_s": setup, "wall_s": plain,
              "traced_wall_s": traced_meter}
    return metrics, meters


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC / 'repro'}; run "
              "from the root of a repro checkout", file=sys.stderr)
        return 2
    if args.cold_sample:
        print(json.dumps(cold_sample(args.workload, args.seed)))
        return 0

    deadline = time.perf_counter() + args.seconds
    # One CPU for the run and its cold samples, so the reference loop
    # samples the CPU the passes run on; a shared host slows its CPUs
    # at different times.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = Meter()
    run = setup.time(lambda: Run(args.workload, args.seed))
    measure = per_layer if args.trace else end_to_end
    metrics, meters = measure(run, setup, args, deadline)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} do not match "
            f"BENCHMARK.json {sorted(units)}"
        )
    host_ref = statistics.median(
        ref for meter in meters.values() for ref in meter.refs
    )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_reference_s": host_ref,
        "nominal_reference_s": NOMINAL_REFERENCE_S,
        "metrics": metrics,
        "samples": {name: m.report() for name, m in meters.items()},
        "simulated": run.simulated,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:50],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    scalars = {k: v for k, v in run.simulated.items()
               if not isinstance(v, dict)}
    print(f"perfbench: host_reference_s={host_ref:.4f} "
          f"simulated={json.dumps(scalars, sort_keys=True)} "
          f"report={path.relative_to(ROOT)}")
    for problem in run.problems[:10]:
        print(f"perfbench: FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
