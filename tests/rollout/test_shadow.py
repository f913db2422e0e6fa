"""ShadowRollout end to end: parity promotes, regression aborts, safely."""

import pytest

from repro.rollout import (
    ManualHoldPolicy,
    MetricParityPolicy,
    ShadowRollout,
    load_rollout_state,
    save_rollout_state,
)
from tests.rollout.conftest import (
    ExplodingModel,
    InvertedModel,
    expected_probs,
    feed,
)

LOOSE_PARITY = dict(
    min_events=40, promote_agreement=0.95, abort_agreement=0.5,
    max_mean_divergence=0.25,
)


class TestParityPromotion:
    def test_parity_candidate_is_promoted(self, scanner, stocked_store,
                                          rollout_dataset, parity_model):
        store, prod_version, cand_version = stocked_store
        rollout = ShadowRollout(
            scanner, "candidate", store=store,
            policy=MetricParityPolicy(**LOOSE_PARITY),
        )
        assert rollout.production_version == prod_version

        codes = rollout_dataset.bytecodes
        feed(scanner, codes)

        assert rollout.state == "promoted"
        assert rollout.last_decision.action == "promote"
        # The store tag moved atomically …
        assert store.tags()["production"] == cand_version
        # … and the scanner's one service serves the candidate now.
        assert scanner.service.artifact_digest == cand_version
        assert scanner.service._serving[1] == (
            f"pred:artifact:{cand_version}"
        )
        # The rollout detached itself once decided.
        assert rollout not in scanner.observers

    def test_zero_dropped_and_no_misscoring(self, scanner, stocked_store,
                                            rollout_dataset,
                                            production_model, parity_model):
        store, __, __ = stocked_store
        rollout = ShadowRollout(
            scanner, "candidate", store=store,
            policy=MetricParityPolicy(**LOOSE_PARITY),
        )
        codes = rollout_dataset.bytecodes
        by_production = expected_probs(production_model, codes)
        by_candidate = expected_probs(parity_model, codes)

        feed(scanner, codes, start=0)
        assert rollout.state == "promoted"
        first_pass_scanned = scanner.stats.scanned
        assert first_pass_scanned == len(codes)
        assert scanner.stats.dropped == 0

        # Every event was scored exactly once, by whichever model was
        # production *at that moment* — never a mixture, never neither.
        for alert in scanner.alerts:
            assert alert.probability in (
                pytest.approx(by_production[codes[int(alert.address, 16)]]),
                pytest.approx(by_candidate[codes[int(alert.address, 16)]]),
            )

        # Traffic after promotion scores as the candidate, bit-for-bit.
        scanner.alerts.clear()
        scanner._seen.clear()
        feed(scanner, codes, start=len(codes))
        assert scanner.stats.dropped == 0
        assert scanner.stats.scanned == first_pass_scanned + len(codes)
        for alert in scanner.alerts:
            index = int(alert.address, 16) - len(codes)
            assert alert.probability == pytest.approx(
                by_candidate[codes[index]]
            )

    def test_features_extracted_once(self, scanner, stocked_store,
                                     rollout_dataset):
        store, __, __ = stocked_store
        rollout = ShadowRollout(
            scanner, "candidate", store=store, policy=ManualHoldPolicy(),
        )
        # The candidate service shares the scanner's FeatureCache object.
        assert rollout._candidate_service.cache is scanner.service.cache
        codes = rollout_dataset.bytecodes[:16]
        feed(scanner, codes)
        stats = scanner.service.cache.stats.as_dict()["by_namespace"]
        # Decoded mnemonic IDs were computed once per unique bytecode —
        # the shadow pass produced zero additional feature misses.
        assert stats["ids"]["misses"] == len(set(codes))
        assert stats["ids"]["hits"] > 0


class TestSharedDecode:
    """Primary and candidate share decodes only while a shadow is
    attached."""

    def test_one_decode_per_distinct_code_across_both_models(
            self, scanner, stocked_store, rollout_dataset, monkeypatch):
        import repro.features.histogram as histogram
        import repro.serve.cache as cache_module

        store, __, __ = stocked_store
        ShadowRollout(
            scanner, "candidate", store=store, policy=ManualHoldPolicy(),
        )
        original = histogram.decode_mnemonic_ids
        calls = []

        def spy(bytecode):
            calls.append(bytecode)
            return original(bytecode)

        # The cache decodes through its own import of the same function.
        monkeypatch.setattr(histogram, "decode_mnemonic_ids", spy)
        monkeypatch.setattr(cache_module, "decode_mnemonic_ids", spy)
        codes = rollout_dataset.bytecodes[:32]
        feed(scanner, codes)
        assert len(calls) == len(set(codes))

    @pytest.mark.parametrize("action", ["promote", "abort"])
    def test_no_model_keeps_the_shared_decoder(
            self, scanner, stocked_store, rollout_dataset, action):
        store, __, __ = stocked_store
        primary = scanner.service.model
        rollout = ShadowRollout(
            scanner, "candidate", store=store, policy=ManualHoldPolicy(),
        )
        candidate = rollout._candidate_service.model
        cache = scanner.service.cache
        for model in (primary, candidate):
            assert model.extractor_._decoder == cache.mnemonic_ids
        feed(scanner, rollout_dataset.bytecodes[:16])
        getattr(rollout, action)()
        for model in (primary, candidate):
            assert model.extractor_._decoder is None
        # Serving on after the decision caches no decode.
        ids_entries = sum(1 for (ns, __) in cache._store if ns == "ids")
        feed(scanner, rollout_dataset.bytecodes[16:32], start=16)
        assert sum(1 for (ns, __) in cache._store if ns == "ids") == (
            ids_entries
        )


class TestRegressionAbort:
    def test_regressed_candidate_is_aborted(self, scanner, stocked_store,
                                            rollout_dataset,
                                            production_model):
        store, prod_version, __ = stocked_store
        rollout = ShadowRollout(
            scanner, model=InvertedModel(production_model),
            policy=MetricParityPolicy(**LOOSE_PARITY),
        )
        codes = rollout_dataset.bytecodes
        by_production = expected_probs(production_model, codes)
        feed(scanner, codes)

        assert rollout.state == "aborted"
        assert "regression" in rollout.last_decision.reason
        # Production serving is completely untouched.
        assert store.tags()["production"] == prod_version
        assert scanner.service.artifact_digest == prod_version
        assert scanner.stats.dropped == 0
        assert scanner.stats.scanned == len(codes)
        for alert in scanner.alerts:
            assert alert.probability == pytest.approx(
                by_production[codes[int(alert.address, 16)]]
            )
        assert rollout not in scanner.observers

    def test_broken_candidate_never_breaks_production(self, scanner,
                                                      stocked_store,
                                                      rollout_dataset):
        rollout = ShadowRollout(
            scanner, model=ExplodingModel(), policy=ManualHoldPolicy(),
        )
        codes = rollout_dataset.bytecodes[:20]
        feed(scanner, codes)
        assert scanner.stats.scanned == len(codes)
        assert rollout.shadow_errors > 0
        assert rollout.comparison.events == 0
        assert rollout.state == "shadowing"

    def test_raising_observer_never_breaks_production(self, scanner,
                                                      rollout_dataset):
        class BrokenObserver:
            def observe(self, **kwargs):
                raise OSError("observer exploded outside any guard")

        scanner.add_observer(BrokenObserver())
        codes = rollout_dataset.bytecodes[:20]
        feed(scanner, codes)
        # Every batch still scored and alerted; the failures are counted.
        assert scanner.stats.scanned == len(codes)
        assert scanner.stats.dropped == 0
        assert scanner.stats.observer_errors > 0
        assert scanner.summary()["observer_errors"] > 0


class TestManualFlow:
    def test_manual_hold_then_operator_promote(self, scanner, stocked_store,
                                               rollout_dataset):
        store, __, cand_version = stocked_store
        rollout = ShadowRollout(
            scanner, "candidate", store=store, policy=ManualHoldPolicy(),
        )
        feed(scanner, rollout_dataset.bytecodes)
        assert rollout.state == "shadowing"
        assert rollout.comparison.events == len(rollout_dataset.bytecodes)

        rollout.promote()
        assert rollout.state == "promoted"
        assert store.tags()["production"] == cand_version
        assert scanner.service.artifact_digest == cand_version

    def test_actions_require_shadowing_state(self, scanner, stocked_store):
        store, __, __ = stocked_store
        rollout = ShadowRollout(
            scanner, "candidate", store=store, policy=ManualHoldPolicy(),
        )
        rollout.abort("operator changed their mind")
        with pytest.raises(RuntimeError):
            rollout.promote()
        with pytest.raises(RuntimeError):
            rollout.abort()

    def test_needs_source_xor_model(self, scanner, stocked_store,
                                    production_model):
        store, __, __ = stocked_store
        with pytest.raises(ValueError):
            ShadowRollout(scanner, store=store)
        with pytest.raises(ValueError):
            ShadowRollout(
                scanner, "candidate", model=production_model, store=store
            )


class TestStatusAndState:
    def test_status_record(self, scanner, stocked_store, rollout_dataset):
        store, prod_version, cand_version = stocked_store
        rollout = ShadowRollout(
            scanner, "candidate", store=store, policy=ManualHoldPolicy(),
        )
        feed(scanner, rollout_dataset.bytecodes[:16])
        status = rollout.status()
        assert status["state"] == "shadowing"
        assert status["production_version"] == prod_version
        assert status["candidate_version"] == cand_version
        assert status["decision"] == "hold"
        assert status["comparison"]["events"] == 16
        assert status["policy"]["policy"] == "ManualHoldPolicy"

    def test_state_round_trip_through_store(self, scanner, stocked_store,
                                            rollout_dataset):
        store, __, __ = stocked_store
        rollout = ShadowRollout(
            scanner, "candidate", store=store, policy=ManualHoldPolicy(),
        )
        feed(scanner, rollout_dataset.bytecodes[:16])
        saved = save_rollout_state(store, rollout.status())
        loaded = load_rollout_state(store)
        assert loaded == saved
        assert loaded["comparison"]["events"] == 16
        assert "updated_at" in loaded
