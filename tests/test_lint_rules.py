"""Per-rule tests for the ``repro.lint`` static-analysis pass.

Each rule gets (at least) one positive fixture that must fire and one
suppressed fixture that must stay silent; the framework itself (noqa
parsing, baseline, reporters, CLI exit codes) is covered at the end.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path, PurePosixPath

import pytest

import repro
from repro.lint import Baseline, Finding, LintRunner, fingerprint
from repro.lint.core import RULES, FileContext, parse_suppressions
from repro.lint.reporters import render_json, render_text


def lint_source(tmp_path, source, filename="snippet.py", select=None,
                extra_files=()):
    """Write ``source`` (plus fixtures) under ``tmp_path`` and lint it all.

    Directories from a ``repro`` component down get the ``__init__.py``
    files of a real package, so the seam rules see dotted module names.
    """
    for rel, text in [(filename, source), *extra_files]:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
        dirs = PurePosixPath(rel).parts[:-1]
        if "repro" in dirs:
            for depth in range(dirs.index("repro") + 1, len(dirs) + 1):
                tmp_path.joinpath(*dirs[:depth], "__init__.py").touch()
    runner = LintRunner(select=set(select) if select else None)
    return runner.run([str(tmp_path)])


def rule_ids(result):
    return sorted(f.rule for f in result.findings)


class TestRNG001:
    def test_flags_numpy_and_stdlib_global_rng(self, tmp_path):
        result = lint_source(tmp_path, """\
            import random
            import numpy as np

            def draw():
                np.random.seed(0)
                a = np.random.random(4)
                b = random.randint(0, 3)
                return a, b
            """)
        assert rule_ids(result) == ["RNG001", "RNG001", "RNG001"]

    def test_allows_generator_construction_and_threading(self, tmp_path):
        result = lint_source(tmp_path, """\
            import random
            import numpy as np

            def draw(rng: np.random.Generator):
                spare = np.random.default_rng(1234)
                local = random.Random(7)
                return rng.random(4), spare.integers(3), local.random()
            """)
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np
            x = np.random.random(4)  # repro: noqa[RNG001]
            """)
        assert result.ok and len(result.suppressed) == 1


class TestNUM001:
    def test_flags_inv_and_normal_equations(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            def fit(h, y):
                w = np.linalg.inv(h.T @ h) @ h.T @ y
                v = np.linalg.solve(h.T @ h, h.T @ y)
                return w, v
            """)
        assert rule_ids(result) == ["NUM001", "NUM001"]

    def test_allows_regularized_solve_and_lstsq(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            def fit(h, y, ridge=1e-9):
                gram = h.T @ h
                gram[np.diag_indices_from(gram)] += ridge
                w = np.linalg.solve(gram, h.T @ y)
                v = np.linalg.lstsq(h, y, rcond=None)[0]
                return w, v
            """)
        assert result.ok

    def test_file_level_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            # repro: noqa[NUM001]
            import numpy as np

            def fit(h, y):
                return np.linalg.inv(h.T @ h) @ h.T @ y
            """)
        assert result.ok and len(result.suppressed) == 1


class TestNUM002:
    def test_flags_float_literal_equality(self, tmp_path):
        result = lint_source(tmp_path, """\
            def check(cpi):
                if cpi == 1.0:
                    return True
                return cpi != -0.5
            """)
        assert rule_ids(result) == ["NUM002", "NUM002"]

    def test_allows_int_equality_and_tolerances(self, tmp_path):
        result = lint_source(tmp_path, """\
            import math

            def check(n, cpi):
                return n == 3 and math.isclose(cpi, 1.0) and cpi >= 0.5
            """)
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            def exact_zero(x):
                return x == 0.0  # repro: noqa[NUM002]
            """)
        assert result.ok and len(result.suppressed) == 1


class TestDS001:
    def test_flags_typo_in_param_kwarg_with_hint(self, tmp_path):
        result = lint_source(tmp_path, """\
            def render(grid):
                grid.plot(param_x="l2_latency", x_values=[5, 10])
            """)
        assert rule_ids(result) == ["DS001"]
        assert "l2_lat" in result.findings[0].message  # did-you-mean hint

    def test_flags_odd_key_in_design_point_dict(self, tmp_path):
        result = lint_source(tmp_path, """\
            BASELINE = {
                "pipe_depth": 15,
                "rob_size": 76,
                "l2_lat": 12,
                "il1_size": 32,
            }
            """)
        assert rule_ids(result) == ["DS001"]
        assert "'il1_size'" in result.findings[0].message

    def test_allows_canonical_names_and_unrelated_dicts(self, tmp_path):
        result = lint_source(tmp_path, """\
            POINT = {"pipe_depth": 15, "rob_size": 76, "l2_lat": 12}
            SPLITS = ["l2_lat", "dl1_lat", "rob_size"]
            PROFILES = {"mcf": 1, "twolf": 2, "vortex": 3}

            def lookup(space):
                return space["rob_size"]
            """)
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            def render(grid):
                grid.plot(param_x="not_a_param")  # repro: noqa[DS001]
            """)
        assert result.ok and len(result.suppressed) == 1


class TestREG001:
    REGISTRY = """\
        EXPERIMENTS = {
            "fig1": Experiment(
                "Figure 1", "title",
                "repro.experiments.fig1_demo",
                "benchmarks/test_fig1_demo.py",
                "mcf",
            ),
        }
        """

    def test_flags_unregistered_experiment_module(self, tmp_path):
        result = lint_source(
            tmp_path, '"""Orphan exhibit."""\n',
            filename="experiments/fig9_orphan.py",
            extra_files=[
                ("experiments/registry.py", self.REGISTRY),
                ("experiments/fig1_demo.py", '"""Registered."""\n'),
                ("benchmarks/test_fig1_demo.py", "def test_ok():\n    pass\n"),
            ],
        )
        assert rule_ids(result) == ["REG001"]
        assert "fig9_orphan" in result.findings[0].message

    def test_flags_missing_harness_and_orphan_harness(self, tmp_path):
        result = lint_source(
            tmp_path, '"""Registered."""\n',
            filename="experiments/fig1_demo.py",
            extra_files=[
                ("experiments/registry.py", self.REGISTRY),
                # registered harness missing; an unregistered one present
                ("benchmarks/test_table9_orphan.py", "def test_x():\n    pass\n"),
            ],
        )
        messages = " | ".join(f.message for f in result.findings)
        assert "test_fig1_demo.py" in messages  # registered but missing
        assert "test_table9_orphan.py" in messages  # orphaned harness

    def test_clean_when_all_three_sides_agree(self, tmp_path):
        result = lint_source(
            tmp_path, '"""Registered."""\n',
            filename="experiments/fig1_demo.py",
            extra_files=[
                ("experiments/registry.py", self.REGISTRY),
                ("benchmarks/test_fig1_demo.py", "def test_ok():\n    pass\n"),
            ],
        )
        assert result.ok

    def test_file_level_noqa_suppresses(self, tmp_path):
        result = lint_source(
            tmp_path, '# repro: noqa[REG001]\n"""Orphan exhibit."""\n',
            filename="experiments/fig9_orphan.py",
            extra_files=[
                ("experiments/registry.py", self.REGISTRY),
                ("experiments/fig1_demo.py", '"""Registered."""\n'),
                ("benchmarks/test_fig1_demo.py", "def test_ok():\n    pass\n"),
            ],
        )
        assert result.ok and len(result.suppressed) == 1


class TestAPI001:
    def test_flags_mutable_default_and_bare_except(self, tmp_path):
        result = lint_source(tmp_path, """\
            def sweep(configs, acc=[], opts={}):
                try:
                    acc.extend(configs)
                except:
                    pass
            """)
        assert rule_ids(result) == ["API001", "API001", "API001"]

    def test_allows_none_default_and_typed_except(self, tmp_path):
        result = lint_source(tmp_path, """\
            def sweep(configs, acc=None, scale=1.0):
                acc = [] if acc is None else acc
                try:
                    acc.extend(configs)
                except ValueError:
                    pass
            """)
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            def sweep(acc=[]):  # repro: noqa[API001]
                return acc
            """)
        assert result.ok and len(result.suppressed) == 1


class TestAPI002:
    def test_flags_calls_in_defaults(self, tmp_path):
        result = lint_source(tmp_path, """\
            from pathlib import Path

            def default_dir():
                return Path(".cache")

            def run(cache=default_dir(), names=tuple(sorted(["a"])),
                    *, out=Path("results")):
                return cache, names, out
            """, select={"API002"})
        # default_dir(), tuple(...), sorted(...) and Path(...) all fire.
        assert rule_ids(result) == ["API002"] * 4

    def test_mutable_factories_left_to_api001(self, tmp_path):
        result = lint_source(tmp_path, """\
            def sweep(acc=dict(), opts=list()):
                return acc, opts
            """)
        # dict()/list() defaults are API001's finding, reported once each.
        assert rule_ids(result) == ["API001", "API001"]

    def test_allows_constants_names_and_none_sentinel(self, tmp_path):
        result = lint_source(tmp_path, """\
            LIMIT = 50
            _UNSET = object()

            def _resolve(cache):
                return cache

            def run(cache=None, limit=LIMIT, scale=1.0, mode="fast",
                    sentinel=_UNSET):
                cache = _resolve(cache)
                return cache, limit, scale, mode, sentinel
            """, select={"API002"})
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            import os

            def run(root=os.getcwd()):  # repro: noqa[API002]
                return root
            """, select={"API002"})
        assert result.ok and len(result.suppressed) == 1


class TestOBS001:
    def test_flags_print_in_library_module(self, tmp_path):
        result = lint_source(tmp_path, """\
            def run():
                print("progress: 3/10")
                return 3
            """, filename="repro/experiments/demo.py", select={"OBS001"})
        assert rule_ids(result) == ["OBS001"]

    def test_exempts_cli_reporters_obs_and_non_library_code(self, tmp_path):
        result = lint_source(
            tmp_path,
            'print("usage: repro ...")\n',
            filename="repro/cli.py",
            select={"OBS001"},
            extra_files=[
                ("repro/lint/cli.py", 'print("findings")\n'),
                ("repro/lint/reporters.py", 'print("path:1:0 X001 msg")\n'),
                ("repro/obs/console.py", 'print("echoed")\n'),
                ("examples/sweep.py", 'print("cpi table")\n'),
            ],
        )
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            def debug():
                print("x")  # repro: noqa[OBS001]
            """, filename="repro/util/debug.py", select={"OBS001"})
        assert result.ok and len(result.suppressed) == 1


class TestOBS002:
    def test_flags_raw_clock_reads_in_library_module(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            def work():
                start = time.perf_counter()
                stamp = time.time()
                tick = time.monotonic()
                return time.perf_counter() - start, stamp, tick
            """, filename="repro/experiments/demo.py", select={"OBS002"})
        assert rule_ids(result) == ["OBS002"] * 4

    def test_flags_from_time_import_of_clocks(self, tmp_path):
        result = lint_source(tmp_path, """\
            from time import perf_counter, sleep

            def work():
                return perf_counter()
            """, filename="repro/core/demo.py", select={"OBS002"})
        assert rule_ids(result) == ["OBS002"]

    def test_allows_non_clock_time_usage(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            def pace():
                time.sleep(0.1)
                return time.strftime("%Y")
            """, filename="repro/util/pace.py", select={"OBS002"})
        assert result.ok

    def test_exempts_obs_cli_and_non_library_code(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import time\nstart = time.perf_counter()\n",
            filename="repro/obs/tracing.py",
            select={"OBS002"},
            extra_files=[
                ("repro/obs/prof/bench.py",
                 "import time\nt = time.monotonic()\n"),
                ("benchmarks/test_speed.py",
                 "import time\nt0 = time.time()\n"),
                ("examples/sweep.py",
                 "from time import perf_counter\nt = perf_counter()\n"),
            ],
        )
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            def now():
                return time.time()  # repro: noqa[OBS002]
            """, filename="repro/util/stamp.py", select={"OBS002"})
        assert result.ok and len(result.suppressed) == 1


class TestOBS003:
    def test_flags_raw_serialisation_in_library_module(self, tmp_path):
        result = lint_source(tmp_path, """\
            import pickle
            import joblib
            import numpy as np

            def persist(model, x, path):
                pickle.dump(model, open(path, "wb"))
                blob = pickle.dumps(model)
                np.save(path, x)
                np.savez(path, x=x)
                np.savez_compressed(path, x=x)
                joblib.dump(model, path)
                return blob
            """, filename="repro/experiments/demo.py", select={"OBS003"})
        assert rule_ids(result) == ["OBS003"] * 6

    def test_flags_from_imports_of_serialisers(self, tmp_path):
        result = lint_source(tmp_path, """\
            from pickle import dumps, loads
            from numpy import save, asarray

            def persist(model, x, path):
                save(path, asarray(x))
                return dumps(model), loads
            """, filename="repro/core/demo.py", select={"OBS003"})
        assert rule_ids(result) == ["OBS003"] * 2

    def test_allows_loading_and_unrelated_calls(self, tmp_path):
        result = lint_source(tmp_path, """\
            import pickle
            import numpy as np

            def restore(path):
                with open(path, "rb") as fh:
                    state = pickle.load(fh)
                return state, np.load(path), np.saved_flag
            """, filename="repro/util/restore.py", select={"OBS003"})
        assert result.ok

    def test_exempts_seams_and_non_library_code(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import numpy as np\nnp.save('m.npy', np.zeros(3))\n",
            filename="repro/models/io.py",
            select={"OBS003"},
            extra_files=[
                ("repro/models/registry.py",
                 "import pickle\npickle.dump({}, open('x', 'wb'))\n"),
                ("repro/simulator/trace_io.py",
                 "import numpy as np\nnp.savez_compressed('t.npz')\n"),
                ("benchmarks/test_speed.py",
                 "import pickle\nblob = pickle.dumps([1])\n"),
                ("examples/sweep.py",
                 "import numpy as np\nnp.save('out.npy', np.zeros(2))\n"),
            ],
        )
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            import pickle

            def stash(obj, fh):
                pickle.dump(obj, fh)  # repro: noqa[OBS003]
            """, filename="repro/util/stash.py", select={"OBS003"})
        assert result.ok and len(result.suppressed) == 1


#: The real seam modules, linted at another module path by the liveness
#: checks below.
SRC = Path(repro.__file__).resolve().parent


def flagged(result):
    """The primitive each finding names (the text before the hint)."""
    return {f.message.split(" in library code;")[0] for f in result.findings}


class TestOBS005:
    def test_flags_every_store_primitive(self, tmp_path):
        result = lint_source(tmp_path, """\
            import fcntl
            from os import replace
            import os, tempfile
            os.replace(a, b)
            tempfile.mkstemp()
            ROOT = os.environ.get('REPRO_RESULTS_DIR', 'results')
            _ENV = 'REPRO_CACHE_DIR'
            HELP = '$REPRO_CACHE_DIR or .cache'
            """, filename="repro/core/persist.py", select={"OBS005"})
        assert [f.line for f in result.findings] == [1, 2, 4, 5, 6, 7]

    def test_the_store_uses_every_primitive_it_owns(self, tmp_path):
        # Liveness: the rule still recognises what the real store does.
        result = lint_source(
            tmp_path, (SRC / "util" / "store.py").read_text("utf-8"),
            filename="repro/core/store_copy.py", select={"OBS005"})
        assert flagged(result) == {
            "import fcntl", "os.replace",
            "'REPRO_RESULTS_DIR'", "'REPRO_CACHE_DIR'",
        }

    def test_exempts_the_store_and_non_library_code(self, tmp_path):
        result = lint_source(
            tmp_path,
            "import fcntl\nimport os\nos.replace('a', 'b')\n",
            filename="repro/util/store.py",
            select={"OBS005"},
            extra_files=[
                ("benchmarks/test_cache.py",
                 "import os\nos.environ['REPRO_CACHE_DIR'] = 'x'\n"),
            ],
        )
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            import fcntl  # repro: noqa[OBS005]
            """, filename="repro/util/lock.py", select={"OBS005"})
        assert result.ok and len(result.suppressed) == 1


class TestOBS006:
    def test_flags_every_writer_call_on_any_receiver(self, tmp_path):
        result = lint_source(tmp_path, """\
            obs.write_manifest(path, manifest)
            history.append_run(record)
            append_run(record)
            from repro.obs import write_manifest
            """, filename="repro/core/record.py", select={"OBS006"})
        assert [f.line for f in result.findings] == [1, 2, 3]

    def test_the_ledger_calls_every_writer(self, tmp_path):
        # Liveness: the rule still recognises what the real ledger does.
        result = lint_source(
            tmp_path,
            (SRC / "obs" / "history" / "ledger.py").read_text("utf-8"),
            filename="repro/core/ledger_copy.py", select={"OBS006"})
        assert flagged(result) == {"append_run()", "write_manifest()"}

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            def record(history, r):
                history.append_run(r)  # repro: noqa[OBS006]
            """, filename="repro/core/record.py", select={"OBS006"})
        assert result.ok and len(result.suppressed) == 1


class TestSeamScope:
    # Library code is the ``repro`` package, found by walking the
    # ``__init__.py`` chain; directory names elsewhere in the path
    # decide nothing.

    def test_script_under_a_directory_named_repro_is_not_library(
            self, tmp_path):
        script = tmp_path / "repro" / "examples" / "x.py"
        script.parent.mkdir(parents=True)
        script.write_text('print("cpi table")\n')
        result = LintRunner(select={"OBS001"}).run([str(script)])
        assert result.ok

    def test_package_under_a_directory_named_obs_is_library(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            def work():
                print("progress")
                return time.perf_counter()
            """, filename="obs/proj/repro/core/x.py",
            select={"OBS001", "OBS002"})
        assert rule_ids(result) == ["OBS001", "OBS002"]

    def test_only_the_named_front_ends_own_the_console(self, tmp_path):
        result = lint_source(tmp_path, 'print("usage")\n',
                             filename="repro/simulator/cli.py",
                             select={"OBS001"})
        assert rule_ids(result) == ["OBS001"]

    def test_aliased_imports_do_not_get_past_the_seams(self, tmp_path):
        result = lint_source(tmp_path, """\
            import os as _os
            import pickle as pk
            import time as clock

            def stash(obj, fh, a, b):
                _os.replace(a, b)
                pk.dump(obj, fh)
                return clock.perf_counter()
            """, filename="repro/core/demo.py",
            select={"OBS002", "OBS003", "OBS005"})
        assert rule_ids(result) == ["OBS002", "OBS003", "OBS005"]


class TestOBS004:
    def test_flags_blocking_calls_reachable_from_async(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time
            import socket

            async def handler(reader, writer):
                time.sleep(0.1)
                payload = open("body.json").read()
                record(payload)

            def record(payload):
                sock = socket.create_connection(("host", 80))
                log_path.write_text(payload)
            """, filename="repro/serve/http.py", select={"OBS004"})
        assert rule_ids(result) == ["OBS004"] * 4

    def test_unreachable_sync_code_is_not_constrained(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            async def handler(reader, writer):
                return respond()

            def respond():
                return 200

            def startup_only():
                time.sleep(1.0)
                return open("models.json").read()
            """, filename="repro/serve/app.py", select={"OBS004"})
        assert result.ok

    def test_self_method_calls_are_traversed(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            class Server:
                async def handle(self, request):
                    return self.slow()

                def slow(self):
                    time.sleep(2.0)
            """, filename="repro/serve/app.py", select={"OBS004"})
        assert rule_ids(result) == ["OBS004"]

    def test_only_serve_modules_are_in_scope(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            async def poll():
                time.sleep(1.0)
            """, filename="repro/obs/live/poll.py", select={"OBS004"})
        assert result.ok

    def test_inline_noqa_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            async def handler():
                time.sleep(0.01)  # repro: noqa[OBS004]
            """, filename="repro/serve/http.py", select={"OBS004"})
        assert result.ok and len(result.suppressed) == 1


class TestFramework:
    def test_syntax_error_becomes_finding(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n")
        assert rule_ids(result) == ["SYN001"]

    def test_bare_noqa_suppresses_all_rules(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np
            x = np.random.random(4)  # repro: noqa
            """)
        assert result.ok and len(result.suppressed) == 1

    def test_noqa_parsing_levels(self):
        supp = parse_suppressions(
            "# repro: noqa[DS001]\n"
            "x = 1  # repro: noqa[NUM002, RNG001]\n"
        )
        assert supp.is_suppressed("DS001", 99)  # file level
        assert supp.is_suppressed("NUM002", 2)
        assert supp.is_suppressed("RNG001", 2)
        assert not supp.is_suppressed("NUM002", 1)

    def test_baseline_grandfathers_then_catches_new(self, tmp_path):
        source = "def f(x):\n    return x == 1.0\n"
        path = tmp_path / "old.py"
        path.write_text(source)
        runner = LintRunner(select={"NUM002"})
        first = runner.run([str(path)])
        assert len(first.findings) == 1
        baseline = Baseline.from_findings(
            [(f, source.splitlines()) for f in first.findings])
        bl_path = tmp_path / "baseline.json"
        baseline.save(str(bl_path))
        reloaded = Baseline.load(str(bl_path))
        clean = runner.run([str(path)], baseline=reloaded)
        assert clean.ok and len(clean.baselined) == 1
        # a second, new violation is NOT grandfathered
        path.write_text(source + "def g(x):\n    return x != 2.0\n")
        second = runner.run([str(path)], baseline=reloaded)
        assert len(second.findings) == 1

    def test_fingerprint_survives_line_shift(self):
        lines_a = ["", "x == 1.0"]
        lines_b = ["", "", "", "x == 1.0"]
        fa = fingerprint(Finding("NUM002", "p.py", 2, 0, "m"), lines_a)
        fb = fingerprint(Finding("NUM002", "p.py", 4, 0, "m"), lines_b)
        assert fa == fb

    def test_reporters_render(self, tmp_path):
        import io

        result = lint_source(tmp_path, "x = 1 == 1.0\n")
        text = io.StringIO()
        render_text(result, text)
        assert "NUM002" in text.getvalue()
        blob = io.StringIO()
        render_json(result, blob)
        doc = json.loads(blob.getvalue())
        assert doc["ok"] is False
        assert doc["counts"] == {"NUM002": 1}
        assert doc["findings"][0]["rule"] == "NUM002"
        assert {"rule", "path", "line", "col", "message"} <= set(doc["findings"][0])

    def test_every_rule_has_id_title_and_docs(self):
        expected = {"RNG001", "NUM001", "NUM002", "DS001", "REG001",
                    "API001", "API002", "OBS001", "OBS002", "OBS003",
                    "OBS004", "OBS005", "OBS006"}
        assert expected <= set(RULES)
        for rule_id, cls in RULES.items():
            assert cls.title, rule_id
            assert cls.rationale, rule_id
            assert cls.scope in ("file", "project"), rule_id

    def test_context_from_source_parses_suppressions(self):
        ctx = FileContext.from_source("x.py", "a = 1  # repro: noqa[API001]\n")
        assert ctx.suppressions.is_suppressed("API001", 1)


class TestCli:
    def _run(self, *argv, cwd=None):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *argv],
            capture_output=True, text=True, env=env, cwd=cwd,
        )

    def test_exit_zero_on_clean_file_and_one_on_violation(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert self._run(str(clean)).returncode == 0
        proc = self._run(str(dirty))
        assert proc.returncode == 1
        assert "RNG001" in proc.stdout

    def test_json_format_is_machine_readable(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("x = 0.0\nassert x == 0.1\n")
        proc = self._run(str(dirty), "--format", "json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["counts"] == {"NUM002": 1}

    def test_select_and_list_rules(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert self._run(str(dirty), "--select", "NUM002").returncode == 0
        listing = self._run("--list-rules")
        assert listing.returncode == 0
        for rule_id in ("RNG001", "NUM001", "NUM002", "DS001", "REG001",
                        "API001", "API002", "OBS001", "OBS004", "OBS005",
                        "OBS006"):
            assert rule_id in listing.stdout

    def test_missing_path_is_usage_error(self):
        assert self._run("/nonexistent/nowhere").returncode == 2

    def test_repro_cli_lint_subcommand(self, tmp_path):
        from repro.cli import main as repro_main

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert repro_main(["lint", str(clean), "--no-baseline"]) == 0


class TestNoqaMultilineStatements:
    # Regression: suppression used to match only the physical line of the
    # finding's anchor, so a trailing noqa on any other line of a
    # multi-line statement (parenthesised call, decorated def) was lost.

    def test_trailing_noqa_anywhere_in_a_multiline_call(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            vals = np.random.random(
                4
            )  # repro: noqa[RNG001]
            """)
        assert rule_ids(result) == []
        assert [f.rule for f in result.suppressed] == ["RNG001"]

    def test_expansion_does_not_leak_past_the_statement(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            vals = np.random.random(
                4
            )  # repro: noqa[RNG001]
            more = np.random.random(4)
            """)
        assert rule_ids(result) == ["RNG001"]
        assert result.findings[0].line == 6

    def test_decorated_def_header_counts_as_one_span(self):
        src = (
            "@decorate(\n"
            "    arg=1,\n"
            ")  # repro: noqa[API001]\n"
            "def f():\n"
            "    x = 1\n"
            "    return x\n"
        )
        ctx = FileContext.from_source("x.py", src)
        for line in (1, 2, 3, 4):
            assert ctx.suppressions.is_suppressed("API001", line), line
        assert not ctx.suppressions.is_suppressed("API001", 5)

    def test_noqa_on_a_body_line_does_not_blanket_the_function(self):
        src = (
            "def f():\n"
            "    a = 1  # repro: noqa[NUM002]\n"
            "    b = 2\n"
            "    return a + b\n"
        )
        ctx = FileContext.from_source("x.py", src)
        assert ctx.suppressions.is_suppressed("NUM002", 2)
        assert not ctx.suppressions.is_suppressed("NUM002", 1)
        assert not ctx.suppressions.is_suppressed("NUM002", 3)
