"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Run the detailed simulator for one benchmark at a configuration given
    as ``name=value`` overrides and print the result summary.  A
    comma-separated override value (``l2_lat=12,18``) sweeps a grid of
    configurations — the cross product over all list-valued overrides —
    optionally in parallel (``--jobs``).
``stacks``
    Run attributed simulations (cycle accounting on) for one benchmark
    and print the CPI stack — cycles per binding constraint, summing
    bitwise-exactly to measured cycles — one column per swept
    configuration, with normalized bars (``--normalize``), machine form
    (``--json``) and a windowed per-K-instruction interval stream
    (``--intervals``; see :mod:`repro.simulator.attribution`).
``build``
    Run the BuildRBFmodel procedure for a benchmark at one sample size,
    validate on random test points, and print the error report plus the
    simulation-runner statistics.  ``--jobs`` (or ``$REPRO_JOBS``) fans
    the uncached simulations out over worker processes.
``experiments``
    List every reproduced table/figure and the benchmark file that
    regenerates it.
``benchmarks``
    List the available synthetic workloads and their key characteristics.
``lint``
    Run the repo's static-analysis pass (see :mod:`repro.lint`); extra
    arguments are forwarded to ``repro-lint`` unchanged.
``trace summary``
    Render the span tree of a JSONL trace file with per-span call counts
    and cumulative/self times (``--json`` emits the machine-readable
    aggregate instead).
``trace profile``
    Rank a trace's call stacks by *self time* — the profiling view — or
    export flamegraph-compatible folded stacks (``--folded``).
``trace diff``
    Align two recorded traces by call-stack path and attribute the
    wall-clock delta to per-span self-time and call-count changes —
    the ranked "what got slower" table (``--json`` for the machine
    form; see :mod:`repro.obs.history.diff`).
``history``
    Query the run-history ledger (``results/history/runs.jsonl``; see
    :mod:`repro.obs.history`): ``list`` the recorded runs with optional
    command/benchmark/git-SHA/since filters, ``show`` one record as
    JSON, ``trend`` a numeric field as a sparkline + table, and
    ``check`` the latest run against comparable history with a robust
    MAD-based outlier test (non-zero exit on anomaly — the cross-run
    drift gate).  ``trend --json`` emits the schema-versioned
    machine-readable document instead of the table.
``models``
    Query the model registry (``results/models``; see
    :mod:`repro.models.registry`): ``list`` registered fits, ``show``
    one index entry as JSON, ``card`` a fit's model card, ``diff`` two
    fits on the fixed probe grid, and ``check`` the latest fit against
    its registry predecessor — or a committed probe baseline
    (``--baseline``) — exiting non-zero on MAD-style prediction drift
    (the model-quality gate next to ``history check``).
``serve``
    Serve registered models over HTTP (stdlib asyncio, no dependencies):
    ``POST /predict`` for single or batched CPI predictions with
    uncertainty bands and extrapolation flags — a batch goes through the
    model's one vectorised ``predict``, bitwise-identical to sequential
    single-point calls — plus ``/models``, ``/healthz`` (content-hash
    re-verification), ``/metrics`` (windowed rates and latency
    quantiles) and ``/version``.  ``--trace`` streams a span per request
    to a rotating JSONL trace readable mid-flight; every session appends
    a ledger record with request volume and latency quantiles (see
    :mod:`repro.serve` and :mod:`repro.obs.live`).
``bench``
    Run the registered hot-path benchmarks (see
    :mod:`repro.obs.prof.targets`), print the results table, and write a
    schema-versioned ``results/BENCH_<run>.json``.  ``--check`` gates the
    run against the committed ``benchmarks/perf/baseline.json`` and exits
    non-zero on regression; ``--update-baseline`` refreshes the baseline.

Observability
-------------
Every run-style command accepts a global ``--trace[=PATH]`` flag (or
``REPRO_TRACE=1`` / ``REPRO_TRACE=path`` in the environment) that streams
the run's span tree and metrics to a JSONL file — by default
``results/trace-<command>.jsonl``.

``simulate``, ``stacks``, ``build``, ``bench``, ``report`` and ``serve``
record every run, failed ones included, through :func:`run_context`:
``results/manifest.json`` (seed, design-space hash, git SHA, package
version, start time, whole-command wall time, metric totals, and
``error`` when the run raised) and one run-history ledger record, as
every exhibit rendered by the benchmark suite does.  ``repro report
--html`` renders the ledger as a single self-contained HTML file with
charts, the latest span tree and the gate/drift status.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from repro import obs
from repro.core.design_space import paper_design_space, paper_test_space
from repro.core.procedure import BuildRBFModel
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import SimulationRunner, simulate_configs
from repro.sampling.random_design import random_design
from repro.simulator.config import ProcessorConfig
from repro.simulator.simulator import simulate
from repro.util.tables import format_table
from repro.workloads.spec2000 import benchmark_names, get_profile, get_trace, spec_label


def _parse_numeric(pair: str, value: str):
    try:
        return int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            raise SystemExit(f"override {pair!r}: value must be numeric")


def _parse_overrides(pairs: List[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"override {pair!r} is not name=value")
        name, value = pair.split("=", 1)
        if "," in value:
            out[name] = tuple(_parse_numeric(pair, v) for v in value.split(","))
        else:
            out[name] = _parse_numeric(pair, value)
    return out


def _override_grid(overrides: dict) -> List[dict]:
    """Cross product of list-valued overrides (scalars stay fixed)."""
    import itertools

    sweep = {k: v for k, v in overrides.items() if isinstance(v, tuple)}
    fixed = {k: v for k, v in overrides.items() if not isinstance(v, tuple)}
    combos = []
    for values in itertools.product(*sweep.values()):
        combo = dict(fixed)
        combo.update(zip(sweep.keys(), values))
        combos.append(combo)
    return combos


@contextmanager
def run_context(args: argparse.Namespace) -> Iterator[dict]:
    """Record one run: ``results/manifest.json`` and a ledger record.

    The identity fields (start time, argv, git SHA) are stamped on entry.
    The command fills the yielded dict with manifest fields (``seed``,
    ``design_space_hash``, ``overrides``, ``jobs``, ``metrics``, headline
    numbers) and an optional perf-gate verdict under ``gate``.  On exit,
    by return or by raise, the manifest gets the whole command's wall
    time and is recorded through :func:`repro.obs.history.record_run`; a
    run that raised carries the exception's type name in ``error`` and
    the exception propagates.  The notes go to stderr under ``--json``.
    """
    from repro.experiments.report import results_dir
    from repro.obs import history

    start = obs.monotonic()
    base = obs.build_manifest(args.command)
    run: dict = {}
    try:
        yield run
    except BaseException as exc:
        run["error"] = type(exc).__name__
        raise
    finally:
        gate = run.pop("gate", None)
        manifest = obs.snapshot_manifest(
            base, metrics=run.pop("metrics", None),
            wall_time_s=obs.monotonic() - start, extra=run)
        path = results_dir() / "manifest.json"
        ledger = history.record_run(
            manifest, path, trace_path=getattr(args, "trace_dest", None),
            gate=gate)
        notes = sys.stderr if getattr(args, "json", False) else sys.stdout
        print(f"[manifest written to {path}]", file=notes)
        print(f"[run recorded in {ledger}]", file=notes)


def _listed(overrides: dict) -> dict:
    """Overrides as recorded: a swept value's tuple becomes a list."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in overrides.items()}


def cmd_simulate(args: argparse.Namespace) -> int:
    """``repro simulate``: detailed simulation at one or a grid of configs."""
    with run_context(args) as run:
        overrides = _parse_overrides(args.overrides)
        grid = _override_grid(overrides)
        run.update(overrides=_listed(overrides), benchmark=args.benchmark,
                   trace_length=args.trace_length, configurations=len(grid))
        if len(grid) == 1:
            try:
                config = ProcessorConfig(**grid[0])
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"bad configuration: {exc}")
            trace = get_trace(args.benchmark, args.trace_length)
            result = simulate(config, trace)
            run["cpi"] = result.cpi
            rows = [(k, f"{v:.4g}") for k, v in result.as_dict().items()]
            print(format_table(["metric", "value"], rows,
                               title=f"{spec_label(args.benchmark)} on {args.trace_length} instructions"))
            return 0
        run["jobs"] = args.jobs
        try:
            configs = [ProcessorConfig(**combo) for combo in grid]
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"bad configuration: {exc}")
        try:
            summaries = simulate_configs(
                args.benchmark, configs, trace_length=args.trace_length,
                jobs=args.jobs,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        swept = sorted(k for k, v in overrides.items() if isinstance(v, tuple))
        rows = [
            tuple(str(combo[k]) for k in swept)
            + (f"{s['cpi']:.4g}", f"{s['power']:.4g}", f"{s['energy']:.4g}")
            for combo, s in zip(grid, summaries)
        ]
        print(format_table(
            swept + ["cpi", "power", "energy"], rows,
            title=(f"{spec_label(args.benchmark)} on {args.trace_length} "
                   f"instructions, {len(grid)} configurations"),
        ))
        return 0


def cmd_stacks(args: argparse.Namespace) -> int:
    """``repro stacks``: CPI stacks from attributed simulations."""
    import json as _json

    from repro.experiments.report import results_dir
    from repro.simulator import attribution
    from repro.simulator.simulator import Simulator

    with run_context(args) as run:
        overrides = _parse_overrides(args.overrides)
        grid = _override_grid(overrides)
        swept = sorted(k for k, v in overrides.items() if isinstance(v, tuple))
        run.update(overrides=_listed(overrides), benchmark=args.benchmark,
                   trace_length=args.trace_length, configurations=len(grid))
        trace = get_trace(args.benchmark, args.trace_length)
        stacks = {}
        attributions = {}
        for combo in grid:
            try:
                config = ProcessorConfig(**combo)
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"bad configuration: {exc}")
            label = (",".join(f"{k}={combo[k]}" for k in swept)
                     if swept else (",".join(f"{k}={v}" for k, v in combo.items())
                                    or "default"))
            sim = Simulator(config)
            sim.run(trace, collect_attribution=True)
            stacks[label] = sim.last_core.attribution.stack()
            attributions[label] = sim.last_core.attribution
        first = next(iter(stacks.values()))
        run.update(cpi=first.cpi, stack_mem_frac=first.memory_fraction(),
                   stack_frontend_frac=first.frontend_fraction(),
                   stack=first.as_dict())
        title = (f"CPI stacks: {spec_label(args.benchmark)} on "
                 f"{args.trace_length} instructions")
        if args.json:
            doc = {
                "benchmark": args.benchmark,
                "trace_length": args.trace_length,
                "components": list(attribution.COMPONENTS),
                "stacks": {
                    label: {
                        "cpi": stack.cpi,
                        "cycles": stack.cycles,
                        "instructions": stack.instructions,
                        "components": stack.as_dict(),
                    }
                    for label, stack in stacks.items()
                },
            }
            print(_json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(title)
            print(attribution.render_stack_table(stacks, normalize=args.normalize))
        if args.intervals is not None:
            base = (Path(args.intervals) if args.intervals
                    else results_dir() / f"stacks-{args.benchmark}.jsonl")
            for index, (label, att) in enumerate(attributions.items()):
                dest = (base if len(attributions) == 1
                        else base.with_name(f"{base.stem}-{index}{base.suffix}"))
                records = att.intervals(args.interval)
                attribution.write_intervals_jsonl(
                    dest, records,
                    benchmark=args.benchmark, config=label, window=args.interval,
                )
                attribution.emit_interval_events(
                    records, benchmark=args.benchmark, config=label)
                # Keep --json stdout machine-readable: notes go to stderr.
                print(f"[{len(records)} interval(s) written to {dest}]",
                      file=sys.stderr if args.json else sys.stdout)
        return 0


def _resolve_benchmark(args: argparse.Namespace) -> str:
    """Benchmark from the optional positional or the ``--benchmark`` flag."""
    pos = getattr(args, "benchmark", None)
    flag = getattr(args, "benchmark_flag", None)
    if pos and flag and pos != flag:
        raise SystemExit(
            f"benchmark given twice with different values ({pos!r} vs {flag!r})"
        )
    name = flag or pos
    if not name:
        raise SystemExit("a benchmark is required (positional or --benchmark)")
    return name


def _register_build(result, *, benchmark: str, space, stats: dict,
                    seed: int) -> Optional[dict]:
    """Calibrate, card, and register a fresh ``repro build`` fit.

    Pure observation: calibration attaches residual quantiles and the
    training hull to the already-fitted network (its weights and
    predictions are untouched), the cross-validation error reuses the
    existing sample (no new simulations), and registration only writes
    files.  Returns the ledger extras (``model_sha`` etc.), or ``None``
    with a stderr warning when the registry is unwritable — a build must
    never fail because bookkeeping did.
    """
    from repro.core.crossval import loo_rbf_error
    from repro.models.registry import ModelRegistry
    from repro.obs.modelcard import (build_card, created_timestamp,
                                     selection_summary)

    model = result.model
    model.calibrate(result.unit_points, result.responses)
    cv_report, _ = loo_rbf_error(result.unit_points, result.responses, model)
    now = created_timestamp()
    card = build_card(
        family="rbf",
        benchmark=benchmark,
        sample_size=result.sample_size,
        seed=seed,
        diagnostics=model.diagnostics(),
        selection=selection_summary(result.search),
        holdout=result.errors,
        cv=cv_report,
        uncertainty=model.uncertainty.as_dict(),
        cost={"simulations_run": stats["simulations_run"],
              "cache_hits": stats["cache_hits"],
              "wall_time_s": round(stats["wall_time_s"], 6),
              "jobs": stats["jobs"]},
        design_space_hash=obs.design_space_hash(space),
        created=now,
    )
    try:
        registry = ModelRegistry()
        entry = registry.register(
            model,
            benchmark=benchmark,
            sample_size=result.sample_size,
            seed=seed,
            design_space_hash=obs.design_space_hash(space),
            git_sha=card["git_sha"],
            parameter_names=[p.name for p in space.parameters],
            metadata={"benchmark": benchmark,
                      "sample_size": result.sample_size, "seed": seed},
            card=card,
            mean_error_pct=result.errors.mean if result.errors else None,
            now=now,
        )
    except OSError as exc:
        print(f"[warning: model registration failed: {exc}]",
              file=sys.stderr)
        return None
    print(f"[model {entry.sha} registered as {benchmark}/rbf/"
          f"n={entry.sample_size} v{entry.version} in {registry.root}]")
    return {"model_sha": entry.sha,
            "model_version": entry.version,
            "model_card": entry.card,
            "model_family": entry.family}


def cmd_build(args: argparse.Namespace) -> int:
    """``repro build``: run BuildRBFmodel and print the validation report."""
    with run_context(args) as run:
        benchmark = _resolve_benchmark(args)
        space = paper_design_space()
        run.update(seed=args.seed, design_space_hash=obs.design_space_hash(space),
                   overrides={"sample_size": args.sample_size,
                              "test_points": args.test_points,
                              "trace_length": args.trace_length},
                   benchmark=benchmark)
        try:
            runner = SimulationRunner(
                benchmark, trace_length=args.trace_length, jobs=args.jobs
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        builder = BuildRBFModel(space, runner.cpi, seed=args.seed)
        tspace = paper_test_space()
        test_phys = tspace.decode(random_design(tspace, args.test_points, seed=args.seed + 1))
        test_cpi = runner.cpi(test_phys)
        result = builder.build(args.sample_size, test_phys, test_cpi)
        stats = runner.stats()
        assert result.errors is not None
        run.update(metrics=runner.metrics.snapshot(), jobs=stats["jobs"],
                   p_min=result.info.p_min, alpha=result.info.alpha,
                   num_centers=result.info.num_centers,
                   mean_error_pct=result.errors.mean)
        print(f"benchmark      : {spec_label(benchmark)}")
        print(f"sample size    : {args.sample_size}")
        print(f"p_min / alpha  : {result.info.p_min} / {result.info.alpha}")
        print(f"RBF centers    : {result.info.num_centers}")
        print(f"test accuracy  : {result.errors}")
        print(f"simulations run: {stats['simulations_run']} (+{stats['cache_hits']} cached)")
        print(f"workers        : {stats['jobs']}")
        print(f"sim wall time  : {stats['wall_time_s']:.2f}s")
        if not args.no_register:
            run.update(_register_build(
                result, benchmark=benchmark, space=space, stats=stats,
                seed=args.seed) or {})
        return 0


def _load_trace_or_exit(path: str):
    """Read a trace for a CLI command, degrading gracefully.

    Missing, unreadable, empty, or mid-file-corrupt files exit 1 with a
    one-line error; a partial trailing line (a run killed mid-write) is
    skipped with a note on stderr, not a traceback.
    """
    try:
        trace = obs.read_trace(path, strict=False)
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}")
    except ValueError as exc:
        raise SystemExit(f"malformed trace: {exc}")
    if trace.empty:
        raise SystemExit(f"empty trace: {path} contains no trace events")
    if trace.skipped_lines:
        print(f"[skipped {trace.skipped_lines} partial trailing line(s); "
              f"trace was truncated mid-write]", file=sys.stderr)
    return trace


def cmd_trace_summary(args: argparse.Namespace) -> int:
    """``repro trace summary``: render the span tree of a JSONL trace."""
    trace = _load_trace_or_exit(args.path)
    if args.json:
        import json

        from repro.obs.prof import summarize_trace

        print(json.dumps(summarize_trace(trace), indent=2, sort_keys=True))
    else:
        print(obs.render_summary(trace))
    return 0


def cmd_trace_profile(args: argparse.Namespace) -> int:
    """``repro trace profile``: hot-span table or folded flamegraph stacks."""
    from repro.obs.prof import render_profile, to_folded

    trace = _load_trace_or_exit(args.path)
    if args.folded:
        sys.stdout.write(to_folded(trace))
    else:
        print(render_profile(trace, top=args.top))
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    """``repro trace diff``: attribute the wall delta between two traces."""
    import json

    from repro.obs import history

    old = _load_trace_or_exit(args.old)
    new = _load_trace_or_exit(args.new)
    diff = history.diff_traces(old, new)
    if args.json:
        print(json.dumps(history.diff_as_dict(diff), indent=2,
                         sort_keys=True))
    else:
        print(history.render_diff(diff, top=args.top))
    return 0


def _load_runs_or_exit(path: Optional[str] = None):
    """Read the run-history ledger for a CLI command, or exit 1 cleanly."""
    from repro.obs import history

    ledger = Path(path) if path else history.default_history_path()
    try:
        runs, skipped = history.load_runs(ledger)
    except OSError:
        raise SystemExit(
            f"no run history: {ledger} does not exist "
            f"(run `repro build`, `simulate` or `bench` first)")
    if skipped:
        print(f"[skipped {skipped} unparseable ledger line(s)]",
              file=sys.stderr)
    if not runs:
        raise SystemExit(f"empty run history: {ledger} contains no records")
    return runs


def _matches_filters(record: dict, args: argparse.Namespace) -> bool:
    """The ``history list``/``trend`` record filters."""
    from repro.obs import history

    return history.run_matches(record, command=args.filter_command,
                               benchmark=args.benchmark,
                               git_sha=getattr(args, "git_sha", None),
                               since=getattr(args, "since", None))


def _cell(value, fmt: str) -> str:
    """Format an optional numeric ledger field for a table cell."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "-"
    return fmt.format(value)


def cmd_history_list(args: argparse.Namespace) -> int:
    """``repro history list``: the recorded runs, optionally filtered."""
    runs = _load_runs_or_exit(args.path)
    records = [(idx, r) for idx, r in enumerate(runs)
               if _matches_filters(r, args)]
    if not records:
        print("no runs match the given filters")
        return 0
    rows = [
        (str(idx),
         str(r.get("started") or "-")[:19],
         str(r.get("command") or "?"),
         str(r.get("benchmark") or "-"),
         _cell(r.get("sample_size"), "{:g}"),
         _cell(r.get("mean_error_pct"), "{:.3g}"),
         _cell(r.get("wall_time_s"), "{:.2f}"),
         str(r.get("git_sha") or "-")[:8])
        for idx, r in records
    ]
    print(format_table(
        ["#", "started", "command", "benchmark", "sample", "err%",
         "wall_s", "git"],
        rows, title=f"Run history ({len(records)} of {len(runs)} run(s))"))
    return 0


def cmd_history_show(args: argparse.Namespace) -> int:
    """``repro history show``: one ledger record as JSON (default: latest)."""
    import json

    runs = _load_runs_or_exit(args.path)
    try:
        record = runs[args.index]
    except IndexError:
        raise SystemExit(
            f"no run at index {args.index} "
            f"(ledger has {len(runs)} record(s))")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_history_trend(args: argparse.Namespace) -> int:
    """``repro history trend``: sparkline + table of one numeric field.

    ``--json`` emits the schema-versioned machine-readable document
    instead (sorted keys, like ``trace summary --json``), so scripts can
    consume model-error trends without scraping the table.
    """
    import json

    from repro.obs import history

    runs = [r for r in _load_runs_or_exit(args.path)
            if _matches_filters(r, args)]
    points = history.series(runs, args.field, x_field=args.x)
    if args.json:
        print(json.dumps(history.trend_document(points, args.field,
                                                x_field=args.x),
                         indent=2, sort_keys=True))
        return 0
    if len(points) < 2:
        raise SystemExit(
            f"not enough data: trend over {args.field!r} needs at least 2 "
            f"runs carrying it, found {len(points)}")
    print(history.render_trend(points, args.field, x_field=args.x))
    return 0


def cmd_history_check(args: argparse.Namespace) -> int:
    """``repro history check``: MAD drift gate on the latest run."""
    from repro.obs import history

    runs = _load_runs_or_exit(args.path)
    anomalies = history.check_latest(
        runs, threshold=args.threshold, min_history=args.min_history)
    if anomalies:
        for anomaly in anomalies:
            print(f"ANOMALY: {anomaly}")
        print(f"[latest run regressed vs comparable history "
              f"({len(anomalies)} field(s))]")
        return 1
    latest = runs[-1]
    prior = history.comparable_history(runs, latest)
    print(f"[history check passed: latest {latest.get('command')!r} run "
          f"within norms of {len(prior)} comparable run(s)]")
    return 0


def _registry_or_exit(args: argparse.Namespace):
    """The model registry at ``--registry`` (default: results/models)."""
    from repro.models.registry import ModelRegistry

    root = getattr(args, "registry", None)
    return ModelRegistry(root) if root else ModelRegistry()


def _entries_or_exit(registry) -> list:
    """All registry entries, or exit 1 when nothing was ever registered."""
    entries = registry.entries()
    if not entries:
        raise SystemExit(
            f"empty model registry: {registry.index_path} has no entries "
            f"(run `repro build` to register a fit)")
    return entries


def _find_entry_or_exit(registry, selector: Optional[str]):
    """Resolve a ``models`` selector (sha prefix / benchmark / latest)."""
    entries = _entries_or_exit(registry)
    if not selector:
        return entries[-1]
    entry = registry.find(selector)
    if entry is None:
        raise SystemExit(
            f"no registered model matches {selector!r} "
            f"(a sha prefix or benchmark name; see `repro models list`)")
    return entry


def cmd_models_list(args: argparse.Namespace) -> int:
    """``repro models list``: the registry index as a table."""
    registry = _registry_or_exit(args)
    entries = [e for e in _entries_or_exit(registry)
               if (not args.benchmark or e.benchmark == args.benchmark)
               and (not args.family or e.family == args.family)]
    if not entries:
        print("no registered models match the given filters")
        return 0
    rows = [
        (e.sha[:12],
         str(e.benchmark or "-"),
         e.family,
         _cell(e.sample_size, "{:g}"),
         f"v{e.version}",
         _cell(e.mean_error_pct, "{:.3g}"),
         str(e.created or "-")[:19],
         str(e.git_sha or "-")[:8])
        for e in entries
    ]
    print(format_table(
        ["sha", "benchmark", "family", "sample", "ver", "err%", "created",
         "git"],
        rows, title=f"Model registry ({len(entries)} entr(ies) in "
                    f"{registry.root})"))
    return 0


def cmd_models_show(args: argparse.Namespace) -> int:
    """``repro models show``: one index entry as JSON (default: latest)."""
    import json

    registry = _registry_or_exit(args)
    entry = _find_entry_or_exit(registry, args.selector)
    print(json.dumps(entry.as_record(), indent=2, sort_keys=True))
    return 0


def cmd_models_card(args: argparse.Namespace) -> int:
    """``repro models card``: render a registered model's card."""
    import json

    from repro.obs.modelcard import render_card

    registry = _registry_or_exit(args)
    entry = _find_entry_or_exit(registry, args.selector)
    try:
        card = registry.card(entry)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read model card: {exc}")
    if args.json:
        print(json.dumps(card, indent=2, sort_keys=True))
    else:
        print(render_card(card))
    return 0


def cmd_models_diff(args: argparse.Namespace) -> int:
    """``repro models diff``: compare two fits on the probe grid."""
    from repro.models.registry import drift_report, probe_predictions

    registry = _registry_or_exit(args)
    entry_a = _find_entry_or_exit(registry, args.old)
    entry_b = _find_entry_or_exit(registry, args.new)
    try:
        model_a, _, _ = registry.load(entry_a)
        model_b, _, _ = registry.load(entry_b)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load registered model: {exc}")
    if getattr(model_a, "dimension", None) != getattr(model_b, "dimension",
                                                      None):
        raise SystemExit(
            f"models are not comparable: dimensions "
            f"{getattr(model_a, 'dimension', '?')} vs "
            f"{getattr(model_b, 'dimension', '?')}")
    report = drift_report(probe_predictions(model_a),
                          probe_predictions(model_b), tolerance=args.tol)
    print(f"diff {entry_a.sha[:12]} (v{entry_a.version}) -> "
          f"{entry_b.sha[:12]} (v{entry_b.version}) on "
          f"{report['points']} probe point(s)")
    for key in ("median_abs_diff", "max_abs_diff", "score", "max_score"):
        print(f"  {key:16} {report[key]:.6g}")
    for label, entry in (("old", entry_a), ("new", entry_b)):
        if entry.mean_error_pct is not None:
            print(f"  {label + ' mean err':16} {entry.mean_error_pct:.4g}%")
    return 0


def cmd_models_check(args: argparse.Namespace) -> int:
    """``repro models check``: drift-gate the latest fit (exit 1 on drift).

    With ``--baseline`` the latest registered model is compared against a
    committed probe-baseline document (the CI mode: the baseline outlives
    the registry); otherwise against its registry predecessor in the same
    benchmark × family × sample-size lineage.  ``--write-baseline``
    (re)writes the baseline document from the resolved model instead.
    """
    from repro.models import registry as _registry

    registry = _registry_or_exit(args)
    entry = _find_entry_or_exit(registry, args.selector)
    try:
        model, _, _ = registry.load(entry)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load registered model: {exc}")

    if args.write_baseline:
        document = _registry.baseline_document(
            model, benchmark=entry.benchmark, sample_size=entry.sample_size,
            seed=entry.seed)
        path = _registry.write_baseline(document, args.write_baseline)
        print(f"[probe baseline for {entry.sha[:12]} written to {path}]")
        return 0

    if args.baseline:
        try:
            baseline = _registry.read_baseline(args.baseline)
        except OSError as exc:
            raise SystemExit(f"cannot read probe baseline: {exc}")
        except ValueError as exc:
            raise SystemExit(str(exc))
        report = _registry.check_against_baseline(model, baseline,
                                                  tolerance=args.tol)
        against = f"baseline {args.baseline}"
    else:
        predecessor = registry.predecessor(entry)
        if predecessor is None:
            print(f"[model check passed trivially: {entry.sha[:12]} "
                  f"(v{entry.version}) has no registry predecessor]")
            return 0
        try:
            previous, _, _ = registry.load(predecessor)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load predecessor model: {exc}")
        report = _registry.drift_report(
            _registry.probe_predictions(previous),
            _registry.probe_predictions(model), tolerance=args.tol)
        against = f"predecessor {predecessor.sha[:12]} (v{predecessor.version})"

    if report["drifted"]:
        print(f"DRIFT: {entry.sha[:12]} (v{entry.version}) vs {against}: "
              f"median score {report['score']:.4g} > tolerance "
              f"{report['tolerance']:g} over {report['points']} probe "
              f"point(s) (max score {report['max_score']:.4g})")
        return 1
    print(f"[model check passed: {entry.sha[:12]} (v{entry.version}) vs "
          f"{against}: median score {report['score']:.4g} <= "
          f"{report['tolerance']:g} over {report['points']} probe point(s)]")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run hot-path benchmarks, persist and gate results."""
    from repro.experiments.report import results_dir
    from repro.obs import prof

    if args.list:
        rows = [(s.name, s.group, str(s.repeats), f"{s.tolerance:g}x")
                for s in prof.registered_benchmarks()]
        print(format_table(["benchmark", "group", "repeats", "tolerance"],
                           rows, title="Registered benchmarks"))
        return 0
    baseline_path = (Path(args.baseline) if args.baseline
                     else prof.DEFAULT_BASELINE_PATH)
    with run_context(args) as run:
        previous = None
        if args.update_baseline and baseline_path.exists():
            # The update keeps the other preset and the hand-tuned
            # tolerances, so a file it cannot read is not replaced.
            try:
                previous = prof.load_baseline(baseline_path)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"cannot update baseline {baseline_path}: "
                                 f"{exc}; fix or remove it first")
        try:
            results = prof.run_benchmarks(
                names=args.names or None, quick=args.quick,
                measure_memory=not args.no_memory,
            )
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
        print(prof.render_bench_table(results))
        preset = "quick" if args.quick else "full"
        doc = prof.results_document(results, preset=preset)
        path = prof.write_results(doc, results_dir())
        print(f"[bench results written to {path}]")
        run.update(bench_wall_s=round(sum(r.wall_s for r in results), 6),
                   artifact=str(path))
        if args.update_baseline:
            written = prof.write_baseline(
                prof.make_baseline(results, preset=preset, previous=previous),
                baseline_path)
            print(f"[baseline updated at {written}]")
            run["gate"] = prof.gate_summary([], baseline_path, checked=False)
            return 0
        if not args.check:
            run["gate"] = prof.gate_summary([], checked=False)
            return 0
        try:
            baseline = prof.load_baseline(baseline_path)
        except OSError as exc:
            raise SystemExit(f"cannot read baseline: {exc}")
        except ValueError as exc:
            raise SystemExit(str(exc))
        violations = prof.check_results(results, baseline, preset=preset)
        run["gate"] = prof.gate_summary(violations, baseline_path)
        if violations:
            for violation in violations:
                print(f"REGRESSION: {violation}")
            print(f"[{len(violations)} benchmark(s) failed the perf gate]")
            return 1
        print(f"[perf gate passed: {len(results)} benchmark(s) within "
              f"tolerance of {baseline_path}]")
        return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    """``repro experiments``: list every reproduced table and figure."""
    rows = [
        (exp.exhibit, exp.title[:58], exp.bench)
        for exp in EXPERIMENTS.values()
    ]
    print(format_table(["exhibit", "what it shows", "regenerated by"], rows,
                       title="Reproduced tables and figures"))
    return 0


def _latest_trace(runs):
    """The newest ledger record's trace, when one was recorded and loads."""
    for record in reversed(runs):
        trace_path = record.get("trace_path")
        if not trace_path or not Path(trace_path).exists():
            continue
        try:
            trace = obs.read_trace(trace_path, strict=False)
        except (OSError, ValueError):
            continue
        if not trace.empty:
            return trace
    return None


def _report_html(args: argparse.Namespace) -> int:
    """``repro report --html``: render the ledger as one HTML file."""
    from repro.experiments.report import results_dir
    from repro.obs import history
    from repro.util.store import write_atomic

    runs = _load_runs_or_exit()
    html = history.render_html(runs, trace=_latest_trace(runs))
    path = write_atomic(args.html or results_dir() / "report.html", html)
    print(f"[report written to {path}]")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: aggregate rendered exhibits into one summary."""
    from repro.experiments.summary import collect, write_summary

    if args.html is not None:
        return _report_html(args)
    with run_context(args) as run:
        sections, missing = collect()
        if not sections:
            print("no results found; run `pytest benchmarks/ --benchmark-only` first")
            return 1
        path = write_summary()
        run["artifact"] = str(path)
        print("\n\n".join(sections))
        print(f"\n[summary written to {path}]")
        if missing:
            print(f"[missing exhibits: {', '.join(missing)}]")
        return 0


def cmd_benchmarks(_args: argparse.Namespace) -> int:
    """``repro benchmarks``: list the synthetic workloads."""
    rows = []
    for name in benchmark_names():
        p = get_profile(name)
        rows.append((
            spec_label(name),
            f"{p.load_frac + p.store_frac:.2f}",
            f"{p.code_footprint_kb:.0f}KB",
            f"{p.footprint_kb}KB",
            f"{p.branch_bias:.2f}",
            "FP" if p.fpalu_frac > 0 else "INT",
        ))
    print(format_table(
        ["benchmark", "mem frac", "code", "data footprint", "branch bias", "type"],
        rows,
        title="Synthetic SPEC CPU2000 workloads",
    ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: observable model serving over HTTP.

    Loads the registry's models (hash-verified), serves predictions until
    the ``--max-requests`` budget is spent or Ctrl-C, and leaves the full
    observability record behind: a span per request in the ``--trace``
    stream, a JSONL access log, and the session's manifest and ledger
    record carrying request volume and latency quantiles.
    """
    from repro.experiments.report import results_dir
    from repro.obs.live import AccessLog
    from repro.serve import ServingApp, serve_forever

    with run_context(args) as run:
        registry = _registry_or_exit(args)
        run["registry"] = str(registry.root)
        _entries_or_exit(registry)
        access_path = (Path(args.access_log) if args.access_log
                       else results_dir() / "serve-access.jsonl")
        access = AccessLog(access_path)
        app = ServingApp(
            registry,
            benchmark=args.benchmark,
            family=args.family,
            access_log=access,
            max_requests=args.max_requests,
        )
        services = app.load_models()
        if not services:
            raise SystemExit("no registered models match the given filters "
                             "(see `repro models list`)")
        for service in services:
            entry = service.entry
            print(f"[serving {entry.benchmark or '-'} {entry.family} "
                  f"v{entry.version} {entry.sha}"
                  f"{'' if service.calibrated else ' (uncalibrated)'}]")
        try:
            serve_forever(
                app, args.host, args.port,
                on_ready=lambda bound: print(
                    f"[listening on http://{bound[0]}:{bound[1]} — "
                    f"access log {access_path}]"),
            )
        except OSError as exc:
            raise SystemExit(f"cannot serve on {args.host}:{args.port}: {exc}")
        finally:
            access.close()
            run["metrics"] = app.metrics.snapshot()
            run.update(app.session_fields())
        return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Predictive Performance Model for "
                    "Superscalar Processors' (MICRO 2006)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {obs.package_version()}",
    )
    # Shared by every run-style subcommand; ``--trace`` takes an optional
    # path (bare ``--trace`` means the default results/trace-<cmd>.jsonl).
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="PATH",
        help="record a JSONL span/metrics trace (default path: "
             "results/trace-<command>.jsonl); $REPRO_TRACE does the same",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[traced],
                           help="run one detailed simulation")
    p_sim.add_argument("benchmark", choices=benchmark_names())
    p_sim.add_argument("overrides", nargs="*",
                       help="ProcessorConfig overrides, e.g. l2_lat=18 rob_size=96")
    p_sim.add_argument("--trace-length", type=int, default=32768)
    p_sim.add_argument("--jobs", type=int, default=None,
                       help="worker processes for grid sweeps "
                            "(default: $REPRO_JOBS, else serial)")
    p_sim.set_defaults(func=cmd_simulate)

    p_stacks = sub.add_parser(
        "stacks", parents=[traced],
        help="CPI stacks: cycle accounting per binding constraint",
    )
    p_stacks.add_argument("benchmark", choices=benchmark_names())
    p_stacks.add_argument("overrides", nargs="*",
                          help="ProcessorConfig overrides; comma-separated "
                               "values sweep configurations side by side")
    p_stacks.add_argument("--trace-length", type=int, default=32768)
    p_stacks.add_argument("--normalize", action="store_true",
                          help="print fractions of total cycles instead of "
                               "CPI contributions")
    p_stacks.add_argument("--json", action="store_true",
                          help="emit the machine-readable stacks instead of "
                               "the table")
    p_stacks.add_argument("--interval", type=int, default=512, metavar="K",
                          help="interval-stream window size in committed "
                               "instructions (default 512)")
    p_stacks.add_argument("--intervals", nargs="?", const="", default=None,
                          metavar="PATH",
                          help="write the windowed interval stream as JSONL "
                               "(default path: results/stacks-<benchmark>"
                               ".jsonl)")
    p_stacks.set_defaults(func=cmd_stacks)

    p_build = sub.add_parser("build", parents=[traced],
                             help="build and validate a CPI model")
    p_build.add_argument("benchmark", nargs="?", choices=benchmark_names())
    p_build.add_argument("--benchmark", dest="benchmark_flag",
                         choices=benchmark_names(),
                         help="benchmark (alternative to the positional)")
    p_build.add_argument("--sample-size", type=int, default=90)
    p_build.add_argument("--test-points", type=int, default=50)
    p_build.add_argument("--trace-length", type=int, default=32768)
    p_build.add_argument("--seed", type=int, default=42)
    p_build.add_argument("--jobs", type=int, default=None,
                         help="worker processes for uncached simulations "
                              "(default: $REPRO_JOBS, else serial)")
    p_build.add_argument("--no-register", action="store_true",
                         help="skip registering the fitted model and its "
                              "card in results/models")
    p_build.set_defaults(func=cmd_build)

    p_exp = sub.add_parser("experiments", parents=[traced],
                           help="list reproduced exhibits")
    p_exp.set_defaults(func=cmd_experiments)

    p_bench = sub.add_parser("benchmarks", parents=[traced],
                             help="list synthetic workloads")
    p_bench.set_defaults(func=cmd_benchmarks)

    p_report = sub.add_parser(
        "report", parents=[traced],
        help="aggregate regenerated exhibits into one summary",
    )
    p_report.add_argument(
        "--html", nargs="?", const="", default=None, metavar="PATH",
        help="render the run-history ledger as one self-contained HTML "
             "file instead (default path: results/report.html)",
    )
    p_report.set_defaults(func=cmd_report)

    p_trace = sub.add_parser("trace", help="inspect recorded trace files")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summary", help="render a trace's span tree with timings"
    )
    p_tsum.add_argument("path", help="a JSONL trace file (from --trace)")
    p_tsum.add_argument("--json", action="store_true",
                        help="emit the machine-readable aggregate instead "
                             "of the table")
    p_tsum.set_defaults(func=cmd_trace_summary)
    p_tprof = trace_sub.add_parser(
        "profile", help="rank call stacks by self time / export flamegraph "
                        "folded stacks"
    )
    p_tprof.add_argument("path", help="a JSONL trace file (from --trace)")
    p_tprof.add_argument("--top", type=int, default=20,
                         help="rows in the hot-span table (default 20)")
    p_tprof.add_argument("--folded", action="store_true",
                         help="emit flamegraph-compatible folded stacks "
                              "(pipe to flamegraph.pl)")
    p_tprof.set_defaults(func=cmd_trace_profile)
    p_tdiff = trace_sub.add_parser(
        "diff", help="attribute the wall-clock delta between two traces "
                     "to per-span self-time changes"
    )
    p_tdiff.add_argument("old", help="the baseline trace (from --trace)")
    p_tdiff.add_argument("new", help="the trace under scrutiny")
    p_tdiff.add_argument("--top", type=int, default=20,
                         help="rows in the attribution table (default 20)")
    p_tdiff.add_argument("--json", action="store_true",
                         help="emit the machine-readable diff (schema v1) "
                              "instead of the table")
    p_tdiff.set_defaults(func=cmd_trace_diff)

    from repro.obs.history.trend import DEFAULT_THRESHOLD, MIN_HISTORY

    p_hist = sub.add_parser(
        "history", help="query the run-history ledger"
    )
    hist_common = argparse.ArgumentParser(add_help=False)
    hist_common.add_argument(
        "--path", default=None, metavar="LEDGER",
        help="ledger file (default: results/history/runs.jsonl)")
    hist_filters = argparse.ArgumentParser(add_help=False)
    hist_filters.add_argument("--command", dest="filter_command",
                              default=None,
                              help="only runs of this command")
    hist_filters.add_argument("--benchmark", default=None,
                              help="only runs of this benchmark")
    hist_sub = p_hist.add_subparsers(dest="history_command", required=True)
    p_hlist = hist_sub.add_parser(
        "list", parents=[hist_common, hist_filters],
        help="list recorded runs")
    p_hlist.add_argument("--git-sha", default=None,
                         help="only runs whose git SHA starts with this")
    p_hlist.add_argument("--since", default=None, metavar="ISO8601",
                         help="only runs started at or after this UTC "
                              "timestamp")
    p_hlist.set_defaults(func=cmd_history_list)
    p_hshow = hist_sub.add_parser(
        "show", parents=[hist_common],
        help="print one ledger record as JSON")
    p_hshow.add_argument("index", nargs="?", type=int, default=-1,
                         help="ledger index (default: -1, the latest)")
    p_hshow.set_defaults(func=cmd_history_show)
    p_htrend = hist_sub.add_parser(
        "trend", parents=[hist_common, hist_filters],
        help="sparkline + table of one numeric field across runs")
    p_htrend.add_argument("field",
                          help="record field to trend, e.g. mean_error_pct, "
                               "bench_wall_s, or the cycle-accounting "
                               "headlines stack_mem_frac / "
                               "stack_frontend_frac")
    p_htrend.add_argument("--x", default=None, metavar="FIELD",
                          help="x-axis field (default: ledger index), "
                               "e.g. sample_size")
    p_htrend.add_argument("--json", action="store_true",
                          help="emit the machine-readable trend document "
                               "(schema v1, sorted keys) instead of the "
                               "table")
    p_htrend.set_defaults(func=cmd_history_trend)
    p_hcheck = hist_sub.add_parser(
        "check", parents=[hist_common],
        help="flag the latest run if it regressed vs comparable history "
             "(MAD outlier test; exits 1 on anomaly)")
    p_hcheck.add_argument("--threshold", type=float,
                          default=DEFAULT_THRESHOLD,
                          help="modified z-score cutoff "
                               f"(default {DEFAULT_THRESHOLD:g})")
    p_hcheck.add_argument("--min-history", type=int, default=MIN_HISTORY,
                          help="comparable prior runs required before the "
                               f"check can fire (default {MIN_HISTORY})")
    p_hcheck.set_defaults(func=cmd_history_check)

    from repro.models.registry import DRIFT_TOLERANCE

    p_models = sub.add_parser(
        "models", help="query the model registry (results/models)"
    )
    models_common = argparse.ArgumentParser(add_help=False)
    models_common.add_argument(
        "--registry", default=None, metavar="DIR",
        help="registry root (default: results/models)")
    models_sub = p_models.add_subparsers(dest="models_command", required=True)
    p_mlist = models_sub.add_parser(
        "list", parents=[models_common], help="list registered models")
    p_mlist.add_argument("--benchmark", default=None,
                         help="only models of this benchmark")
    p_mlist.add_argument("--family", default=None,
                         help="only models of this family (rbf, linear, ...)")
    p_mlist.set_defaults(func=cmd_models_list)
    p_mshow = models_sub.add_parser(
        "show", parents=[models_common],
        help="print one registry entry as JSON")
    p_mshow.add_argument("selector", nargs="?", default=None,
                         help="sha prefix or benchmark (default: latest)")
    p_mshow.set_defaults(func=cmd_models_show)
    p_mcard = models_sub.add_parser(
        "card", parents=[models_common],
        help="render a registered model's card")
    p_mcard.add_argument("selector", nargs="?", default=None,
                         help="sha prefix or benchmark (default: latest)")
    p_mcard.add_argument("--json", action="store_true",
                         help="emit the raw card JSON instead of the "
                              "rendering")
    p_mcard.set_defaults(func=cmd_models_card)
    p_mdiff = models_sub.add_parser(
        "diff", parents=[models_common],
        help="compare two registered fits on the fixed probe grid")
    p_mdiff.add_argument("old", help="sha prefix or benchmark of the "
                                     "reference model")
    p_mdiff.add_argument("new", help="sha prefix or benchmark of the model "
                                     "under scrutiny")
    p_mdiff.add_argument("--tol", type=float, default=DRIFT_TOLERANCE,
                         help="MAD-style drift tolerance "
                              f"(default {DRIFT_TOLERANCE:g})")
    p_mdiff.set_defaults(func=cmd_models_diff)
    p_mcheck = models_sub.add_parser(
        "check", parents=[models_common],
        help="drift-gate the latest fit against its predecessor or a "
             "committed probe baseline (exits 1 on drift)")
    p_mcheck.add_argument("selector", nargs="?", default=None,
                          help="sha prefix or benchmark (default: latest)")
    p_mcheck.add_argument("--baseline", default=None, metavar="PATH",
                          help="compare against this committed probe "
                               "baseline instead of the registry "
                               "predecessor")
    p_mcheck.add_argument("--write-baseline", default=None, metavar="PATH",
                          help="write the probe baseline for the resolved "
                               "model and exit")
    p_mcheck.add_argument("--tol", type=float, default=DRIFT_TOLERANCE,
                          help="MAD-style drift tolerance "
                               f"(default {DRIFT_TOLERANCE:g})")
    p_mcheck.set_defaults(func=cmd_models_check)

    p_perf = sub.add_parser(
        "bench", parents=[traced],
        help="run hot-path benchmarks; gate against the perf baseline",
    )
    p_perf.add_argument("names", nargs="*",
                        help="benchmark names to run (default: all; see "
                             "--list)")
    p_perf.add_argument("--quick", action="store_true",
                        help="small problem sizes and fewer repeats (CI "
                             "smoke preset)")
    p_perf.add_argument("--check", action="store_true",
                        help="compare against the committed baseline and "
                             "exit 1 on regression")
    p_perf.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run (keeps "
                             "hand-tuned tolerances)")
    p_perf.add_argument("--baseline", default=None,
                        help="baseline file (default: benchmarks/perf/"
                             "baseline.json)")
    p_perf.add_argument("--list", action="store_true",
                        help="list registered benchmarks and exit")
    p_perf.add_argument("--no-memory", action="store_true",
                        help="skip the tracemalloc peak-memory pass")
    p_perf.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", parents=[traced],
        help="serve registered models over HTTP with live telemetry",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="bind port; 0 picks an ephemeral port "
                              "(default 8321)")
    p_serve.add_argument("--registry", default=None, metavar="DIR",
                         help="model registry root (default: "
                              "results/models)")
    p_serve.add_argument("--benchmark", default=None,
                         help="serve only this benchmark's lineages")
    p_serve.add_argument("--family", default=None,
                         help="serve only this model family")
    p_serve.add_argument("--max-requests", type=int, default=None,
                         metavar="N",
                         help="shut down cleanly after N requests "
                              "(deterministic smoke runs; default: serve "
                              "until Ctrl-C)")
    p_serve.add_argument("--access-log", default=None, metavar="PATH",
                         help="JSONL access log (default: "
                              "results/serve-access.jsonl)")
    p_serve.add_argument("--trace-max-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="rotate the streaming trace above this size "
                              "(default: never)")
    p_serve.set_defaults(func=cmd_serve)

    # Listed for ``repro --help`` only: ``main`` forwards ``repro lint
    # ...`` to repro-lint before this parser runs.
    sub.add_parser("lint", help="run the static-analysis pass (repro-lint)")
    return parser


def _trace_destination(args: argparse.Namespace) -> Optional[Path]:
    """Where this invocation's trace goes, or ``None`` when not tracing.

    ``--trace`` wins over the environment; ``REPRO_TRACE`` set to ``1`` /
    ``true`` / empty selects the default path, anything else is the path.
    """
    if args.command in ("trace", "history", "models"):
        return None
    spec = getattr(args, "trace", None)
    if spec is None:
        env = os.environ.get("REPRO_TRACE")
        if env is None or env.lower() in ("0", "false", "no"):
            return None
        spec = "" if env.lower() in ("", "1", "true", "yes") else env
    if spec == "":
        from repro.experiments.report import results_dir

        return results_dir() / f"trace-{args.command}.jsonl"
    return Path(spec)


class Terminated(KeyboardInterrupt):
    """SIGTERM as an exception: what stops cleanly on Ctrl-C stops on it too."""


def _terminate(signum, frame) -> None:
    raise Terminated()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``repro trace summary t.jsonl |
    head -1``) ends the run with exit code 1 and no traceback.  SIGTERM
    ends a run the way Ctrl-C does: it raises :class:`Terminated`, so the
    run's trace closes its open spans with ``error``, its manifest and
    ledger record carry ``error``, and ``repro serve`` shuts down
    cleanly; any other command then exits with code 143 (128 + SIGTERM).
    """
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        code = _run(argv)
        # A closed pipe fails this flush here rather than at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit: give that flush a sink.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


def _run(argv: Optional[List[str]]) -> int:
    """Parse ``argv`` and run its command, traced when asked."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # Forward verbatim: argparse's REMAINDER mis-parses a leading
        # option (e.g. ``repro lint --list-rules``) at the parent level.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    dest = _trace_destination(args)
    args.trace_dest = dest  # ledger records point at the run's trace
    if dest is None:
        return args.func(args)
    from repro.obs.sinks import StreamingTraceSink

    # The collector streams each root to the sink as it closes and keeps
    # only the open spans.
    collector = obs.Collector()
    collector.sink = StreamingTraceSink(
        dest, header={"command": args.command},
        max_bytes=getattr(args, "trace_max_bytes", None),
        metrics_snapshot=collector.metrics.snapshot)
    obs.activate(collector)
    try:
        if args.command == "serve":
            # serve's roots are its requests: a session-long root would
            # hold every request in memory until shutdown.  This goes once
            # traces stream span open/close records.
            return args.func(args)
        with obs.span(f"repro/{args.command}"):
            return args.func(args)
    finally:
        # A failed run keeps its trace; spans it left open carry the
        # ``error`` attribute ``obs.span`` sets on the way out.
        obs.deactivate(collector)
        collector.flush()
        collector.sink.close()
        print(f"[trace written to {dest}]")


if __name__ == "__main__":
    sys.exit(main())
