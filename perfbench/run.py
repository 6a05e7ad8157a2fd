"""End-to-end benchmark of the reproduction: cold build, warm refit,
CPI-stack sweep and closed-loop /predict serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build_cold --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up several times, runs ops for ``--seconds`` and prints
the end-to-end metrics.  ``--trace 1`` is a separate run that alternates
untraced and traced ops, adds a profiled pass over the simulator and
prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The gated times are in seconds at nominal host speed (see :mod:`speed`);
the wall times they come from are printed with them.
"""

from __future__ import annotations

import speed  # standard library only

METER = speed.Meter()  # the host's speed, sampled from here to the end
METER.start()
STARTED = speed.clock()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (standard library only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The pinned run environment; BLAS/OpenMP read it when numpy loads.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "1160000000",  # model cards and shas byte-deterministic
    "GIT_CEILING_DIRECTORIES": str(ROOT.parent),  # provenance looks no further
}
#: Unset: the default serial runner, no program-side tracing, and the
#: cache/results roots only ever point at the benchmark's own temp roots.
CLEARED_ENV = ("REPRO_JOBS", "REPRO_TRACE", "REPRO_CACHE_DIR", "REPRO_RESULTS_DIR")

SETUPS = 3       # set-ups per untraced run; setup_s counts their median
MIN_OPS = 3      # timed ops per untraced run, even past --seconds
MIN_TRACED = 2   # traced and untraced ops each, per traced run


def median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Units attempted (ops and closing checks) and the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.failures = []

    def add(self, key, failures):
        self.attempted += 1
        self.fail(key, failures)

    def fail(self, key, failures):
        """Mark a unit already attempted as failed, by a later check."""
        if failures:
            self.failed.add(key)
            self.failures += [f"{key}: {failure}" for failure in failures]


def attempt(tally, workload, index, run_op):
    """Run one op and its checks; an error fails the op, not the run."""
    try:
        measured, out = run_op()
        failures = workload.check(out)
    except (Exception, SystemExit) as exc:  # keep measuring; report the op
        traceback.print_exc(file=sys.stderr)
        tally.add(f"op{index}", [repr(exc)])
        return None
    tally.add(f"op{index}", failures)
    return measured


def phase(run):
    """Run ``run()``; return its result and its (start, end) on the clock."""
    start = speed.clock()
    out = run()
    return (start, speed.clock()), out


def measure(workload, seconds, work, imported):
    """The untraced run: end-to-end metrics, in nominal seconds."""
    setups = []
    for i in range(SETUPS):
        if i:
            workload.teardown()
        setups.append(phase(lambda: workload.setup(work / f"setup{i}"))[0])
    tally, ops = Tally(), []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < MIN_OPS:
        span = attempt(tally, workload, index,
                       lambda: phase(lambda: workload.op(index, None)))
        if span is not None:
            ops.append(span)
        index += 1
    for key, failures in workload.finish():
        tally.add(key, failures)
    workload.teardown()
    METER.stop()

    def read(spans):
        return [METER.reading(start, end, workload.BETA) for start, end in spans]

    (imports,), setups, readings = read([imported]), read(setups), read(ops)
    nominal = [r.nominal_s for r in readings]
    metrics = {
        "setup_s": imports.nominal_s + median([r.nominal_s for r in setups]),
        "op_s": median(nominal),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    extras = dict(
        workload.extras(),
        ops=(len(readings), "count"),
        setup_first_s=(imports.nominal_s + setups[0].nominal_s, "s"),
        setup_wall_s=(imports.wall_s + median([r.wall_s for r in setups]), "s"),
        op_wall_s=(median([r.wall_s for r in readings]), "s"),
        host_slowdown=(median([r.slowdown for r in readings]), "x"),
    )
    if len(nominal) > 1:
        low, _, high = statistics.quantiles(nominal, n=4)
        extras.update(op_q1_s=(low, "s"), op_q3_s=(high, "s"))
    return tally, metrics, extras


def trace(workload, seconds, work, spans_path):
    """The traced run: per-layer metrics and the layer-accounting checks.

    The host-speed samples pause while anything traced or profiled runs,
    so none lands in a span; ``trace.overhead_pct`` compares nominal times.
    """
    recorder = tracing.Recorder()
    METER.pause()
    with tracing.installed(recorder):
        workload.setup(work / "setup0", traced=True)
    METER.resume()
    tally = Tally()
    phases = {False: [], True: []}
    made = {False: 0, True: 0}
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or min(made.values()) < MIN_TRACED:
        traced = index % 2 == 1
        made[traced] += 1

        def run_op():
            if not traced:
                return phase(lambda: workload.op(index, None))
            METER.pause()
            recorder.op = f"op{index}"
            try:
                with tracing.installed(recorder):
                    root = recorder.begin("op", "op")
                    try:
                        out = workload.op(index, recorder)
                    finally:
                        recorder.end(root)
            finally:
                recorder.op = None
                METER.resume()
            return (recorder.spans[root]["start"], recorder.spans[root]["end"]), out

        span = attempt(tally, workload, index, run_op)
        if span is not None:
            phases[traced].append(span)
        index += 1
    METER.stop()
    profiled = tracing.profile_pass(workload.profile_runs())
    for key, failures in workload.finish():
        tally.add(key, failures)
    workload.teardown()
    nominal = {traced: median([METER.reading(start, end, workload.BETA).nominal_s
                               for start, end in phases[traced]]) for traced in phases}
    traced_s = median([end - start for start, end in phases[True]])
    spans = recorder.spans
    tracing.graft(spans, workload.server_spans())
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write(spans_path)
    for key, failures in tracing.accounting_failures(spans).items():
        if key is None:
            tally.add("span accounting", failures)
        else:
            tally.fail(key, failures)

    ops = tracing.breakdown(spans)
    entries = [entry for key, entry in ops.items() if key is not None]
    per_op = [tracing.op_metrics(entry) for entry in entries]
    metrics = {key: median([m[key] for m in per_op]) for key in tracing.OP_METRICS}
    metrics.update(tracing.request_metrics(entries))
    metrics.update(tracing.setup_metrics(ops.get(None)))
    metrics.update(profiled)
    overhead = nominal[False] and nominal[True] / nominal[False]
    metrics["trace.overhead_pct"] = (overhead - 1.0) * 100.0 if overhead else 0.0
    layers = {}
    for entry in entries:
        for layer, seconds_in in entry["layers"].items():
            layers.setdefault(layer, []).append(seconds_in)
    layers = {layer: median(values) for layer, values in layers.items()}
    tally.add("layer checks", check_layers(workload.name, entries, metrics, layers,
                                           traced_s))
    return tally, metrics, {f"self_s.{k}": (v, "s") for k, v in sorted(layers.items())}


def check_layers(name, entries, metrics, layers, op_s):
    """That each workload loads the layers it was chosen for."""
    if not entries:
        return ["no traced op completed"]
    failures = []
    if name == "build_cold" and metrics["simulator.busy_s"] < 0.9 * op_s:
        failures.append(f"simulator.busy_s {metrics['simulator.busy_s']:.3f} s is "
                        f"under 90% of the traced op ({op_s:.3f} s)")
    if name in ("refit_warm", "serve_predict") and any(
            s["name"] == "Simulator.run" for e in entries for s in e["spans"]):
        failures.append("the simulator ran")
    if name == "refit_warm":
        others = dict(layers, unattributed=metrics["trace.unattributed_s"])
        others["models"] = others.get("models", 0.0) - metrics["models.fit_s"]
        if metrics["models.fit_s"] <= max(others.values()):
            failures.append(f"models.fit_s is not the largest self time: {others}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    # Each vCPU has its own speed state: the program, the server it starts
    # and the host-speed samples all run on one CPU.  For serve_predict,
    # each request is then also a same-CPU hand-off, not a cross-CPU
    # wake-up, which on a small VM adds about half a millisecond.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # imports numpy and the program: after the pinning

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    imported = (STARTED, speed.clock())
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            spans_path = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
            tally, metrics, extras = trace(workload, args.seconds, work, spans_path)
            listed = spec["per_layer"]
        else:
            tally, metrics, extras = measure(workload, args.seconds, work, imported)
            listed = spec["end_to_end"]
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} attempted, {failed} failed "
          f"(error_rate {failed / max(tally.attempted, 1):.4f})")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    for key, value in sorted(workload.observed.items()):
        print(f"  observed {key} = {value}")
    result = {}
    for entry in listed:
        value = float(metrics[entry["name"]])
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<28} {value:14.6f} {entry['unit']}")
    for key, (value, unit) in extras.items():
        print(f"  ({key:<26} {value:14.6f} {unit})")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        METER.stop()  # no SIGALRM may outlive the run, whatever path it took
    sys.exit(code)
