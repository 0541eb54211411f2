"""Tests for the versioned on-disk model registry."""

import json

import numpy as np
import pytest

from repro.registry import ModelRegistry, RegistryError


class TestPushAndVersioning:
    def test_first_push_is_version_1(self, registry, point_predictor):
        manifest = registry.push("m6core", point_predictor)
        assert manifest.ref == "m6core@1"
        assert manifest.version == 1

    def test_versions_increment(self, registry, point_predictor):
        assert registry.push("m", point_predictor).version == 1
        assert registry.push("m", point_predictor).version == 2
        assert registry.push("m", point_predictor).version == 3

    def test_latest_tracks_newest(self, registry, point_predictor):
        registry.push("m", point_predictor)
        registry.push("m", point_predictor)
        assert registry.latest("m").version == 2

    def test_manifest_provenance(self, registry, point_predictor):
        manifest = registry.push("m", point_predictor, created_at="2026-08-06T00:00:00+00:00")
        assert manifest.artifact == "predictor"
        assert manifest.kind == "linear"
        assert manifest.feature_set == "F"
        assert manifest.processor_name == point_predictor.processor_name
        assert manifest.train_size == point_predictor.train_size
        assert len(manifest.content_hash) == 64
        assert manifest.created_at == "2026-08-06T00:00:00+00:00"

    def test_push_rejects_versioned_name(self, registry, point_predictor):
        with pytest.raises(RegistryError, match="bare name"):
            registry.push("m@1", point_predictor)

    def test_push_rejects_unfitted(self, registry):
        from repro.core.methodology import PerformancePredictor

        with pytest.raises(RegistryError, match="unfitted"):
            registry.push("m", PerformancePredictor())

    def test_names_and_list_sorted(self, populated_registry):
        assert populated_registry.names() == ["band", "point"]
        refs = [m.ref for m in populated_registry.list()]
        assert refs == ["band@1", "point@1"]


class TestRoundtrip:
    def test_point_predictions_bit_identical(
        self, registry, point_predictor, feature_rows, observations
    ):
        registry.push("m", point_predictor)
        restored, manifest = registry.get("m@1")
        assert manifest.ref == "m@1"
        assert np.array_equal(
            restored.predict_rows(feature_rows),
            point_predictor.predict_rows(feature_rows),
        )
        assert np.array_equal(
            restored.predict_observations(observations),
            point_predictor.predict_observations(observations),
        )

    def test_neural_predictions_bit_identical(
        self, registry, neural_predictor, observations
    ):
        registry.push("nn", neural_predictor)
        restored, _manifest = registry.get("nn")
        assert np.array_equal(
            restored.predict_observations(observations),
            neural_predictor.predict_observations(observations),
        )

    def test_ensemble_roundtrip_bit_identical(
        self, registry, ensemble, feature_rows
    ):
        registry.push("band", ensemble)
        restored, manifest = registry.get("band@1")
        assert manifest.artifact == "ensemble"
        means0, stds0 = ensemble.predict_rows(feature_rows)
        means1, stds1 = restored.predict_rows(feature_rows)
        assert np.array_equal(means0, means1)
        assert np.array_equal(stds0, stds1)

    def test_bare_name_resolves_latest(self, registry, point_predictor, ensemble):
        registry.push("m", point_predictor)
        registry.push("m", ensemble)
        _artifact, manifest = registry.get("m")
        assert manifest.version == 2
        assert manifest.artifact == "ensemble"


class TestFailureModes:
    def test_empty_registry(self, registry):
        with pytest.raises(RegistryError, match="is empty"):
            registry.get("ghost")

    def test_unknown_name_lists_known(self, populated_registry):
        with pytest.raises(RegistryError, match=r"unknown model 'ghost'.*point"):
            populated_registry.get("ghost")

    def test_unknown_version_lists_available(self, populated_registry):
        with pytest.raises(RegistryError, match=r"unknown version 9.*\[1\]"):
            populated_registry.get("point@9")

    def test_bad_name_syntax(self, registry):
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.get("../etc/passwd")

    def test_bad_version_syntax(self, registry):
        with pytest.raises(RegistryError, match="invalid version"):
            registry.get("m@one")

    def test_version_zero_rejected(self, registry):
        with pytest.raises(RegistryError, match="start at 1"):
            registry.get("m@0")

    def test_hash_mismatch_rejected(self, registry, point_predictor):
        manifest = registry.push("m", point_predictor)
        path = registry.root / "m" / "1" / "model.json"
        data = json.loads(path.read_text())
        data["model"]["bias"] = data["model"]["bias"] + 1.0  # tamper
        path.write_text(json.dumps(data, indent=2))
        with pytest.raises(RegistryError, match="content hash mismatch"):
            registry.get(manifest.ref)

    def test_corrupted_payload_rejected(self, registry, point_predictor):
        import hashlib

        registry.push("m", point_predictor)
        path = registry.root / "m" / "1" / "model.json"
        path.write_text("{not json at all")
        # Re-sign the manifest so corruption (not tampering) is what trips.
        manifest_path = registry.root / "m" / "1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["content_hash"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RegistryError, match="corrupted payload.*not valid JSON"):
            registry.get("m@1")

    def test_semantically_corrupt_payload_rejected(self, registry, point_predictor):
        import hashlib

        registry.push("m", point_predictor)
        path = registry.root / "m" / "1" / "model.json"
        data = json.loads(path.read_text())
        del data["model"]
        path.write_text(json.dumps(data))
        manifest_path = registry.root / "m" / "1" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["content_hash"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RegistryError, match="corrupted payload"):
            registry.get("m@1")

    def test_missing_model_payload(self, registry, point_predictor):
        registry.push("m", point_predictor)
        (registry.root / "m" / "1" / "model.json").unlink()
        with pytest.raises(RegistryError, match="missing model payload"):
            registry.get("m@1")

    def test_missing_manifest(self, registry, point_predictor):
        registry.push("m", point_predictor)
        (registry.root / "m" / "1" / "manifest.json").unlink()
        with pytest.raises(RegistryError, match="unknown model|missing manifest"):
            registry.get("m@1")

    def test_manifest_identity_mismatch(self, registry, point_predictor):
        registry.push("m", point_predictor)
        manifest_path = registry.root / "m" / "1" / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["version"] = 7
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="tampered"):
            registry.get("m@1")

    def test_malformed_manifest(self, registry, point_predictor):
        registry.push("m", point_predictor)
        manifest_path = registry.root / "m" / "1" / "manifest.json"
        manifest_path.write_text(json.dumps({"name": "m"}))
        with pytest.raises(RegistryError, match="malformed manifest"):
            registry.get("m@1")

    def test_missing_root_reads_empty(self, tmp_path):
        registry = ModelRegistry(tmp_path / "nowhere")
        assert registry.list() == []
        assert registry.names() == []
        with pytest.raises(RegistryError, match="is empty"):
            registry.get("m")
