"""Tests for the model registry, model cards, and prediction provenance.

Covers the registry contract end to end: content-addressed registration
with lineage versions, byte-determinism of the index and cards under a
pinned clock, the observer-only guarantee (registering perturbs nothing),
honest uncertainty (held-out coverage and extrapolation flags), the
probe-grid drift gate, and the ``repro models`` CLI including the build
auto-registration path.
"""

import errno
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.models import registry as reg
from repro.models.base import Uncertainty
from repro.models.linear import LinearInteractionModel
from repro.models.mlp import MLPModel
from repro.models.rbf import RBFNetwork, build_rbf_from_tree
from repro.models.spline import SplineModel
from repro.models.tree import RegressionTree
from repro.obs import modelcard

PINNED_NOW = "2026-08-08T00:00:00+00:00"


def target(x):
    return 1.0 + np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2]


@pytest.fixture
def fitted(rng):
    x = rng.random((60, 3))
    y = target(x) + rng.normal(0.0, 0.05, len(x))
    net, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
    return net, x, y


def make_registry(tmp_path, name="registry"):
    return reg.ModelRegistry(tmp_path / name)


def register(registry, model, **overrides):
    kwargs = dict(benchmark="mcf", sample_size=60, seed=42,
                  design_space_hash="abcd" * 4, git_sha="f" * 8,
                  parameter_names=["a", "b", "c"], now=PINNED_NOW)
    kwargs.update(overrides)
    return registry.register(model, **kwargs)


class TestContentAddressing:
    def test_register_load_round_trip_bitwise(self, fitted, tmp_path, rng):
        net, x, y = fitted
        registry = make_registry(tmp_path)
        entry = register(registry, net)
        assert entry.sha == reg.content_hash(net)
        assert entry.version == 1
        loaded, names, _ = registry.load(entry)
        assert names == ["a", "b", "c"]
        xt = rng.random((20, 3))
        np.testing.assert_array_equal(loaded.predict(xt), net.predict(xt))

    def test_identical_refit_shares_sha_new_version(self, fitted, tmp_path):
        net, x, y = fitted
        registry = make_registry(tmp_path)
        first = register(registry, net)
        second = register(registry, net)
        assert second.sha == first.sha
        assert (first.version, second.version) == (1, 2)
        assert registry.predecessor(second) == first
        assert registry.predecessor(first) is None

    def test_lineage_versions_are_independent(self, fitted, tmp_path):
        net, x, y = fitted
        registry = make_registry(tmp_path)
        register(registry, net)
        other = register(registry, net, benchmark="gcc")
        assert other.version == 1  # its own lineage starts at v1

    def test_find_by_sha_prefix_and_benchmark(self, fitted, tmp_path):
        net, x, y = fitted
        registry = make_registry(tmp_path)
        entry = register(registry, net)
        assert registry.find(entry.sha[:6]) == entry
        assert registry.find("mcf") == entry
        assert registry.find("nope") is None

    def test_reregistration_keeps_the_earlier_card(self, fitted, tmp_path):
        # An identical refit is a new version whose card carries its own
        # run's cost; the earlier entry's card must keep its bytes.
        net, x, y = fitted
        registry = make_registry(tmp_path)

        def card(wall_time_s):
            return modelcard.build_card(
                family="rbf", benchmark="mcf", sample_size=60, seed=42,
                cost={"wall_time_s": wall_time_s}, created=PINNED_NOW)

        first = register(registry, net, card=card(1.0))
        before = (registry.root / first.card).read_bytes()
        second = register(registry, net, card=card(9.0))
        assert (second.sha, second.version) == (first.sha, 2)
        assert (registry.root / first.card).read_bytes() == before
        assert registry.card(first)["cost"]["wall_time_s"] == 1.0
        assert registry.card(second)["cost"]["wall_time_s"] == 9.0

    @pytest.mark.parametrize("torn", ["artifacts", "cards"])
    def test_torn_reregistration_keeps_the_listed_files(
            self, fitted, tmp_path, monkeypatch, torn):
        # Registering the same fit again rewrites the files the index
        # already lists (their names are the content hash).  A rewrite
        # that stops half-way, here on a full disk, must leave them
        # byte-identical and loadable.
        net, x, y = fitted
        registry = make_registry(tmp_path)
        card = modelcard.build_card(family="rbf", benchmark="mcf",
                                    sample_size=60, seed=42,
                                    created=PINNED_NOW)
        entry = register(registry, net, card=card)
        before = (registry.artifact_path(entry.sha).read_bytes(),
                  (registry.root / entry.card).read_bytes())
        write_text = Path.write_text

        def disk_full(path, text, *args, **kwargs):
            if path.parent.name != torn:
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", disk_full)
            with pytest.raises(OSError):
                register(registry, net, card=card)
        assert (registry.artifact_path(entry.sha).read_bytes(),
                (registry.root / entry.card).read_bytes()) == before
        loaded, _, _ = registry.load(entry)
        np.testing.assert_array_equal(loaded.predict(x), net.predict(x))
        assert registry.card(entry) == json.loads(before[1])

    def test_tampered_artifact_fails_hash_verification(self, fitted,
                                                       tmp_path):
        net, x, y = fitted
        registry = make_registry(tmp_path)
        entry = register(registry, net)
        path = registry.artifact_path(entry.sha)
        payload = json.loads(path.read_text())
        payload["model"]["weights"][0] += 0.5
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="hash"):
            registry.load(entry)


class TestByteDeterminism:
    def test_index_and_card_bytes_reproduce(self, fitted, tmp_path):
        net, x, y = fitted
        net.calibrate(x, y)
        card = modelcard.build_card(
            family="rbf", benchmark="mcf", sample_size=60, seed=42,
            diagnostics=net.diagnostics(),
            uncertainty=net.uncertainty.as_dict(),
            created=PINNED_NOW)
        blobs = []
        for name in ("first", "second"):
            registry = make_registry(tmp_path, name)
            entry = register(registry, net, card=card)
            blobs.append((
                registry.index_path.read_bytes(),
                (registry.root / entry.card).read_bytes(),
                registry.artifact_path(entry.sha).read_bytes(),
            ))
        assert blobs[0] == blobs[1]

    def test_card_json_sorted_and_strict(self, fitted):
        net, x, y = fitted
        card = modelcard.build_card(
            family="rbf", benchmark="mcf", sample_size=60, seed=42,
            selection={"trajectory": [{"criterion_value": float("inf")}]},
            created=PINNED_NOW)
        text = modelcard.card_to_json(card)
        parsed = json.loads(text)  # allow_nan=False already enforced strict
        assert list(parsed) == sorted(parsed)
        assert parsed["selection"]["trajectory"][0]["criterion_value"] is None

    def test_created_timestamp_honours_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1754000000")
        stamp = modelcard.created_timestamp()
        assert stamp == modelcard.created_timestamp()
        assert stamp.startswith("2025-")


class TestObserverOnly:
    def test_registering_perturbs_nothing(self, fitted, tmp_path, rng):
        net, x, y = fitted
        xt = rng.random((40, 3))
        before = net.predict(xt).copy()
        net.calibrate(x, y)
        register(make_registry(tmp_path), net)
        np.testing.assert_array_equal(net.predict(xt), before)

    def test_provenance_values_match_predict_bitwise(self, fitted, rng):
        net, x, y = fitted
        net.calibrate(x, y)
        xt = rng.random((40, 3))
        prov = net.predict_with_provenance(xt)
        np.testing.assert_array_equal(prov.values, net.predict(xt))


class TestUncertainty:
    def test_held_out_coverage_within_tolerance(self, fitted, rng):
        # Nominal q10-q90 band: held-out coverage should land near 80%.
        net, x, y = fitted
        net.calibrate(x, y)
        xt = rng.random((200, 3))
        yt = target(xt) + rng.normal(0.0, 0.05, len(xt))
        prov = net.predict_with_provenance(xt)
        in_hull = ~prov.extrapolated
        assert in_hull.sum() >= 150
        covered = (yt >= prov.lower) & (yt <= prov.upper)
        coverage = covered[in_hull].mean()
        assert 0.55 <= coverage <= 0.98

    def test_band_is_ordered_and_finite(self, fitted, rng):
        net, x, y = fitted
        net.calibrate(x, y)
        prov = net.predict_with_provenance(rng.random((50, 3)))
        assert np.all(prov.lower <= prov.values)
        assert np.all(prov.values <= prov.upper)
        assert np.all(np.isfinite(prov.lower) & np.isfinite(prov.upper))

    def test_extrapolation_flags_fire_out_of_hull(self, fitted):
        net, x, y = fitted
        net.calibrate(x, y)
        far = np.full((5, 3), 2.5)
        assert net.predict_with_provenance(far).extrapolated.all()
        near = x[:10]
        assert not net.predict_with_provenance(near).extrapolated.any()

    def test_uncalibrated_provenance_raises(self, fitted):
        net, x, y = fitted
        with pytest.raises(RuntimeError, match="calibrate"):
            net.predict_with_provenance(x[:3])

    def test_rbf_calibration_is_loo_quantile(self, fitted):
        net, x, y = fitted
        net.calibrate(x, y)
        unc = net.uncertainty
        assert unc.kind == "loo-quantile"
        q10, q50, q90 = unc.residual_quantiles
        assert q10 <= q50 <= q90
        assert unc.center_distance_cap is not None

    def test_uncertainty_dict_round_trip(self, fitted):
        net, x, y = fitted
        net.calibrate(x, y)
        unc = net.uncertainty
        assert Uncertainty.from_dict(unc.as_dict()) == unc


class TestDiagnostics:
    def test_all_families_report_family_and_shape(self, rng):
        x = rng.random((50, 3))
        y = target(x)
        net, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
        models = {
            "rbf": net,
            "linear": LinearInteractionModel.fit(x, y),
            "spline": SplineModel.fit(x, y, max_terms=12),
            "mlp": MLPModel.fit(x, y, hidden=(6,), epochs=200, seed=1),
            "tree": RegressionTree(x, y, p_min=2),
        }
        for name, model in models.items():
            diag = model.diagnostics()
            assert diag["family"] == name
            assert diag["dimension"] == 3
            assert json.dumps(diag)  # JSON-ready for the card


class TestDriftGate:
    def test_clean_refit_passes(self, fitted, rng):
        net, x, y = fitted
        refit, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
        report = reg.drift_report(reg.probe_predictions(net),
                                  reg.probe_predictions(refit))
        assert report["score"] == 0.0 and not report["drifted"]

    def test_injected_noise_fails(self, fitted, rng):
        net, x, y = fitted
        noisy = RBFNetwork(net.centers, net.radii,
                           net.weights + rng.normal(0.0, 2.0,
                                                    net.weights.shape))
        report = reg.drift_report(reg.probe_predictions(net),
                                  reg.probe_predictions(noisy))
        assert report["drifted"] and report["score"] > reg.DRIFT_TOLERANCE

    def test_probe_grid_is_seeded_and_stable(self):
        a = reg.probe_grid(3)
        b = reg.probe_grid(3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (reg.PROBE_POINTS, 3)

    def test_baseline_document_round_trip(self, fitted, tmp_path):
        net, x, y = fitted
        doc = reg.baseline_document(net, benchmark="mcf", sample_size=60,
                                    seed=42)
        path = reg.write_baseline(doc, tmp_path / "baseline.json")
        loaded = reg.read_baseline(path)
        report = reg.check_against_baseline(net, loaded)
        assert not report["drifted"] and report["score"] == 0.0
        assert report["baseline_sha"] == report["candidate_sha"]

    def test_corrupt_baseline_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            reg.read_baseline(path)


class TestModelsCLI:
    @pytest.fixture
    def built(self, tmp_path, monkeypatch):
        """One registered ``repro build`` in an isolated results tree."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1754000000")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        code = cli_main([
            "build", "--benchmark", "mcf", "--sample-size", "20",
            "--test-points", "8", "--trace-length", "2048",
        ])
        assert code == 0
        return tmp_path

    def test_build_registers_and_records_in_ledger(self, built):
        from repro import obs

        registry = reg.ModelRegistry(built / "results" / "models")
        entries = registry.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.benchmark, entry.family) == ("mcf", "rbf")
        assert entry.sample_size == 20 and entry.version == 1
        card = registry.card(entry)
        assert card["seed"] == 42
        assert card["errors"]["holdout"]["count"] == 8
        assert card["cost"]["simulations_run"] == 28.0  # registration adds 0
        assert card["selection"]["trajectory"]
        assert card["uncertainty"]["kind"] == "loo-quantile"
        manifest = obs.read_manifest(built / "results" / "manifest.json")
        assert manifest["metrics"]["counters"]["simulations_run"] == 28.0
        runs = (built / "results" / "history" /
                "runs.jsonl").read_text().splitlines()
        record = json.loads(runs[-1])
        assert record["model_sha"] == entry.sha
        assert record["model_version"] == 1
        assert record["model_family"] == "rbf"

    def test_models_list_show_card(self, built, capsys):
        assert cli_main(["models", "list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "rbf" in out
        assert cli_main(["models", "show"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["benchmark"] == "mcf"
        assert cli_main(["models", "card"]) == 0
        assert "model card" in capsys.readouterr().out
        assert cli_main(["models", "card", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["family"] == "rbf"

    def test_check_trivial_then_clean_then_drift(self, built, capsys, rng):
        # v1 alone: trivially passes (no predecessor).
        assert cli_main(["models", "check"]) == 0
        assert "trivially" in capsys.readouterr().out
        registry = reg.ModelRegistry(built / "results" / "models")
        entry = registry.latest()
        model, names, _ = registry.load(entry)
        # Identical re-registration: clean pass against the predecessor.
        registry.register(model, benchmark=entry.benchmark,
                          sample_size=entry.sample_size, seed=entry.seed,
                          parameter_names=names, now=PINNED_NOW)
        assert cli_main(["models", "check"]) == 0
        assert "passed" in capsys.readouterr().out
        # Degraded fit: injected weight noise must trip the gate.
        noisy = RBFNetwork(model.centers, model.radii,
                           model.weights + rng.normal(0.0, 2.0,
                                                      model.weights.shape))
        registry.register(noisy, benchmark=entry.benchmark,
                          sample_size=entry.sample_size, seed=entry.seed,
                          parameter_names=names, now=PINNED_NOW)
        assert cli_main(["models", "check"]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_check_against_written_baseline(self, built, tmp_path, capsys):
        baseline = tmp_path / "probe-baseline.json"
        assert cli_main(["models", "check",
                         "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert cli_main(["models", "check", "--baseline",
                         str(baseline)]) == 0
        assert "passed" in capsys.readouterr().out

    def test_no_register_skips_registry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        code = cli_main([
            "build", "--benchmark", "mcf", "--sample-size", "20",
            "--test-points", "8", "--trace-length", "2048", "--no-register",
        ])
        assert code == 0
        assert not (tmp_path / "results" / "models" / "index.jsonl").exists()

    def test_empty_registry_is_one_line_exit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["models", "list"])
        assert "empty model registry" in str(excinfo.value)
