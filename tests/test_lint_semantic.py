"""Tests for the project-wide semantic analysis layer and its three rules.

Each rule gets fixture packages with positive, negative and cross-module
cases; the acceptance contract is that every pass fires *across a call
boundary* (e.g. ``metric -> helper -> time.time()`` trips DET001 even
though the helper alone is clean).  SARIF output, ``--changed``
incremental mode and the real-tree worklists are covered at the end.
"""

import json
import os
import subprocess
import textwrap

import pytest

from repro.lint import LintRunner
from repro.lint.core import FileContext
from repro.lint.reporters import sarif_document
from repro.lint.runner import collect_files
from repro.lint.semantic import Project, module_name_for_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

SEMANTIC_RULES = {"DET001", "MUT001", "PAR001"}


def lint_tree(tmp_path, files, select=SEMANTIC_RULES):
    """Write ``{relpath: source}`` fixtures under ``tmp_path`` and lint."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return LintRunner(select=set(select)).run([str(tmp_path)])


def rule_ids(result):
    return sorted(f.rule for f in result.findings)


# -- DET001 ----------------------------------------------------------------


class TestDET001:
    def test_fires_across_a_call_boundary(self, tmp_path):
        # metric -> helpers.compute -> time.time(): the helper alone is a
        # perfectly ordinary function; only reachability makes it a bug.
        result = lint_tree(tmp_path, {
            "simpkg/__init__.py": "",
            "simpkg/helpers.py": """\
                import time

                def compute(x):
                    return x + time.time()
                """,
            "simpkg/runner.py": """\
                from simpkg import helpers

                class SimulationRunner:
                    def metric(self, points, name):
                        return [helpers.compute(p) for p in points]
                """,
        })
        assert rule_ids(result) == ["DET001"]
        finding = result.findings[0]
        assert finding.path.endswith("helpers.py")
        assert "wall clock" in finding.message
        assert "SimulationRunner.metric" in finding.message
        assert "helpers.compute" in finding.message

    def test_fires_through_self_method_chains(self, tmp_path):
        result = lint_tree(tmp_path, {
            "runner.py": """\
                import os

                class SimulationRunner:
                    def metric(self, points, name):
                        return self._lookup(name)

                    def _lookup(self, name):
                        return os.environ.get(name)
                """,
        })
        assert rule_ids(result) == ["DET001"]
        assert "environment" in result.findings[0].message

    def test_dict_order_and_fs_listing_witnesses(self, tmp_path):
        result = lint_tree(tmp_path, {
            "runner.py": """\
                import os

                class ProcessorConfig:
                    def key(self):
                        names = [k for k in vars(self)]
                        files = os.listdir(".")
                        return names, files
                """,
        })
        assert rule_ids(result) == ["DET001", "DET001"]
        messages = " ".join(f.message for f in result.findings)
        assert "namespace-order" in messages
        assert "filesystem" in messages

    def test_unreachable_nondeterminism_is_not_flagged(self, tmp_path):
        # time.time() in a function nothing cache-keyed reaches is fine
        # (that is RNG001/OBS002 territory, not DET001's).
        result = lint_tree(tmp_path, {
            "runner.py": """\
                import time

                def wall_clock_logger():
                    return time.time()

                class SimulationRunner:
                    def metric(self, points, name):
                        return [p * 2 for p in points]
                """,
        })
        assert rule_ids(result) == []

    def test_seeded_generators_are_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "runner.py": """\
                import numpy as np

                class SimulationRunner:
                    def metric(self, points, name):
                        rng = np.random.default_rng(1234)
                        return rng.normal(size=len(points))
                """,
        })
        assert rule_ids(result) == []

    def test_obs_exemption_follows_the_module_name(self, tmp_path):
        # Only the repro.obs package is the measurement seam; plain
        # directories that are merely named repro/obs are not exempt.
        sim = """\
            import time

            def stamp():
                return time.time()

            class SimulationRunner:
                def metric(self, points, name):
                    return [stamp() for _ in points]
            """
        plain = lint_tree(tmp_path / "plain", {"repro/obs/sim.py": sim})
        assert rule_ids(plain) == ["DET001"]
        package = lint_tree(tmp_path / "pkg", {
            "repro/__init__.py": "",
            "repro/obs/__init__.py": "",
            "repro/obs/sim.py": sim,
        })
        assert rule_ids(package) == []

    def test_global_rng_reachable_from_metric_fires(self, tmp_path):
        result = lint_tree(tmp_path, {
            "runner.py": """\
                import numpy as np

                def jitter(x):
                    return x + np.random.random()

                class SimulationRunner:
                    def metric(self, points, name):
                        return [jitter(p) for p in points]
                """,
        })
        assert rule_ids(result) == ["DET001"]
        assert "global NumPy RNG" in result.findings[0].message


# -- MUT001 ----------------------------------------------------------------


class TestMUT001:
    def test_subscript_write_through_alias(self, tmp_path):
        result = lint_tree(tmp_path, {
            "use.py": """\
                def normalise(runner, point):
                    res = runner.result_at(point)
                    alias = res
                    alias["cpi"] = 0.0
                    return res
                """,
        })
        assert rule_ids(result) == ["MUT001"]
        assert "result_at()" in result.findings[0].message

    def test_mutating_method_call_on_cached_value(self, tmp_path):
        result = lint_tree(tmp_path, {
            "use.py": """\
                def merge(runner, point, extra):
                    res = runner.result_at(point)
                    res.update(extra)
                    return res
                """,
        })
        assert rule_ids(result) == ["MUT001"]

    def test_cache_subscript_reads_are_protected(self, tmp_path):
        result = lint_tree(tmp_path, {
            "use.py": """\
                class Store:
                    def poke(self, key):
                        entry = self._cache[key]
                        entry["hits"] = 0
                        hit = self._cache.get(key)
                        hit.clear()
                """,
        })
        assert rule_ids(result) == ["MUT001", "MUT001"]

    def test_copy_before_modifying_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "use.py": """\
                def normalise(runner, point):
                    res = dict(runner.result_at(point))
                    res["cpi"] = 0.0
                    return res
                """,
        })
        assert rule_ids(result) == []

    def test_writing_a_new_cache_slot_is_clean(self, tmp_path):
        # Filling the cache is the cache's job; only mutating an *entry*
        # (one level deeper) corrupts previously returned values.
        result = lint_tree(tmp_path, {
            "use.py": """\
                class Store:
                    def fill(self, key, value):
                        self._cache[key] = value

                    def corrupt(self, key):
                        self._cache[key]["cpi"] = 0.0
                """,
        })
        assert rule_ids(result) == ["MUT001"]
        assert result.findings[0].line == 6


# -- PAR001 ----------------------------------------------------------------


class TestPAR001:
    def test_lambda_and_nested_function_payloads(self, tmp_path):
        result = lint_tree(tmp_path, {
            "fan.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(data):
                    def work(x):
                        return x + 1
                    with ProcessPoolExecutor() as pool:
                        a = list(pool.map(lambda x: x * 2, data))
                        b = list(pool.map(work, data))
                    return a, b
                """,
        })
        assert rule_ids(result) == ["PAR001", "PAR001"]
        messages = " ".join(f.message for f in result.findings)
        assert "lambda" in messages
        assert "'work' is a function defined inside a function" in messages

    def test_open_handle_submission(self, tmp_path):
        result = lint_tree(tmp_path, {
            "fan.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(worker, path):
                    fh = open(path)
                    with ProcessPoolExecutor() as pool:
                        fut = pool.submit(worker, fh)
                    return fut.result()
                """,
        })
        assert rule_ids(result) == ["PAR001"]
        assert "open file handle" in result.findings[0].message

    def test_module_level_worker_is_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "fan.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def work(x):
                    return x + 1

                def run(data):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(work, data))
                """,
        })
        assert rule_ids(result) == []

    def test_pool_bound_to_a_variable(self, tmp_path):
        result = lint_tree(tmp_path, {
            "fan.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(data):
                    pool = ProcessPoolExecutor(max_workers=2)
                    return list(pool.map(lambda x: x, data))
                """,
        })
        assert rule_ids(result) == ["PAR001"]

    def test_thread_pools_are_not_flagged(self, tmp_path):
        # Threads share an address space: no pickling involved.
        result = lint_tree(tmp_path, {
            "fan.py": """\
                from concurrent.futures import ThreadPoolExecutor

                def run(data):
                    with ThreadPoolExecutor() as pool:
                        return list(pool.map(lambda x: x, data))
                """,
        })
        assert rule_ids(result) == []


# -- real-tree contracts ---------------------------------------------------


@pytest.fixture(scope="module")
def src_project():
    files = collect_files([SRC])
    contexts = []
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            contexts.append(FileContext.from_source(path, fh.read()))
    return Project(contexts)


def test_call_graph_resolves_every_perf_target(src_project):
    # Meta-contract: the graph must cover the benchmarks/perf surface —
    # every registered benchmark function and its nested work() closure
    # resolve to graph nodes, and each work() has resolved callees.
    from repro.obs.prof.bench import registered_benchmarks

    graph = src_project.graph
    specs = registered_benchmarks()
    assert len(specs) >= 5
    for spec in specs:
        qname = f"repro.obs.prof.targets.{spec.setup.__name__}"
        assert qname in graph.functions, qname
        work = f"{qname}.work"
        assert work in graph.functions, work
        assert graph.callees(work), f"{work} resolved no callees"


def test_src_tree_has_no_semantic_errors(src_project):
    # The clean-tree gate extends to the semantic passes: no live
    # DET001/MUT001/PAR001 anywhere in src.
    from repro.lint.rules.semantic import (
        CacheMutationRule,
        DeterminismRule,
        PicklabilityRule,
    )

    for rule in (DeterminismRule(), CacheMutationRule(), PicklabilityRule()):
        findings = rule.check(src_project)
        rendered = "\n".join(
            f"{f.path}:{f.line} {f.message}" for f in findings)
        assert not findings, f"{rule.id} findings in src/:\n{rendered}"


# -- SARIF -----------------------------------------------------------------


SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "level", "message",
                                         "locations"],
                            "properties": {
                                "level": {"enum": ["none", "note",
                                                   "warning", "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region"],
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "required": [
                                                            "startLine"],
                                                        "properties": {
                                                            "startLine": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def test_round_trip_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        result = lint_tree(tmp_path, {
            "fan.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def run(data):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(lambda x: x, data))
                """,
        })
        doc = sarif_document(result)
        jsonschema.validate(doc, SARIF_SUBSET_SCHEMA)
        # And through json round-trip (what --format sarif writes).
        doc = json.loads(json.dumps(doc))
        levels = {r["ruleId"]: r["level"] for r in doc["runs"][0]["results"]}
        assert levels == {"PAR001": "error"}
        cols = [r["locations"][0]["physicalLocation"]["region"]["startColumn"]
                for r in doc["runs"][0]["results"]]
        assert all(c >= 1 for c in cols)

    def test_cli_emits_sarif(self, tmp_path):
        (tmp_path / "clean.py").write_text('"""Clean."""\nX = 1\n')
        proc = subprocess.run(
            ["python", "-m", "repro.lint.cli", str(tmp_path),
             "--format", "sarif"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []


# -- incremental (--changed) mode ------------------------------------------


def _git(args, cwd):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t"] + args,
        cwd=cwd, check=True, capture_output=True, text=True)


class TestChangedMode:
    def _seed_repo(self, tmp_path):
        (tmp_path / "helpers.py").write_text(textwrap.dedent("""\
            def compute(x):
                return x * 2
            """))
        (tmp_path / "runner.py").write_text(textwrap.dedent("""\
            import helpers

            class SimulationRunner:
                def metric(self, points, name):
                    return [helpers.compute(p) for p in points]
            """))
        _git(["init", "-q"], tmp_path)
        _git(["add", "-A"], tmp_path)
        _git(["commit", "-q", "-m", "seed"], tmp_path)

    def test_lints_only_changed_files_with_whole_program_facts(
            self, tmp_path, monkeypatch):
        self._seed_repo(tmp_path)
        # Regression enters through the *changed* helper; the root
        # (metric) lives in an unchanged file whose facts must come from
        # the project graph for DET001 to connect the chain.
        (tmp_path / "helpers.py").write_text(textwrap.dedent("""\
            import time

            def compute(x):
                return x * 2 + time.time()
            """))
        monkeypatch.chdir(tmp_path)
        result = LintRunner(select=SEMANTIC_RULES).run(
            [str(tmp_path)], changed_ref="HEAD")
        assert result.files_checked == 1
        assert rule_ids(result) == ["DET001"]
        assert "SimulationRunner.metric" in result.findings[0].message

    def test_undecodable_unchanged_file_is_left_out_of_the_graph(
            self, tmp_path, monkeypatch):
        (tmp_path / "latin1.py").write_bytes(b"\xff\xfe = 2\n")
        self._seed_repo(tmp_path)
        (tmp_path / "helpers.py").write_text("def compute(x):\n    return x\n")
        monkeypatch.chdir(tmp_path)
        result = LintRunner(select=SEMANTIC_RULES).run(
            [str(tmp_path)], changed_ref="HEAD")
        assert result.files_checked == 1
        assert result.findings == []

    def test_no_changes_means_nothing_linted(self, tmp_path, monkeypatch):
        self._seed_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        result = LintRunner(select=SEMANTIC_RULES).run(
            [str(tmp_path)], changed_ref="HEAD")
        assert result.files_checked == 0
        assert result.findings == []

    def test_unknown_ref_fails_loudly(self, tmp_path, monkeypatch):
        from repro.lint.incremental import ChangedFilesError

        self._seed_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ChangedFilesError):
            LintRunner(select=SEMANTIC_RULES).run(
                [str(tmp_path)], changed_ref="no-such-ref")


# -- plumbing --------------------------------------------------------------


def test_module_name_walks_init_chains(tmp_path):
    pkg = tmp_path / "alpha" / "beta"
    pkg.mkdir(parents=True)
    (tmp_path / "alpha" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("")
    assert module_name_for_path(str(pkg / "mod.py")) == "alpha.beta.mod"
    assert module_name_for_path(str(pkg / "__init__.py")) == "alpha.beta"
    (tmp_path / "script.py").write_text("")
    assert module_name_for_path(str(tmp_path / "script.py")) == "script"


def test_semantic_rules_are_registered():
    from repro.lint.core import RULES, ProjectRule

    project_rules = {rule_id for rule_id, cls in RULES.items()
                     if issubclass(cls, ProjectRule)}
    assert project_rules == SEMANTIC_RULES
