"""End-to-end secret extraction: the PR's acceptance criteria as tests.

The suite fixture runs the full three-mitigation campaign once (the
slowest fixture in the test suite, by design — it IS the acceptance
run): ``none`` must recover a 16-byte secret with 100% byte accuracy,
and both mitigations must degrade the attack measurably.
"""

import pytest

from repro.attacks.extraction import (
    DEFAULT_COLLISION_BUDGET,
    SecretExtraction,
    run_suite,
)
from repro.runtime.atomic import content_key

SECRET = bytes((index * 37 + 11) & 0xFF for index in range(16))


@pytest.fixture(scope="module")
def suite():
    reports = run_suite(SECRET, seed=2024)
    return {report.mitigation: report for report in reports}


class TestUnmitigatedRecovery:
    def test_recovers_every_byte(self, suite):
        report = suite["none"]
        assert report.accuracy == 1.0
        assert report.recovered == SECRET
        assert report.failure is None

    def test_secret_is_long_enough_to_count(self):
        assert len(SECRET) >= 16

    def test_cost_accounting_present(self, suite):
        report = suite["none"]
        assert report.cycles > 0
        assert report.cycles_per_byte > 0
        assert report.bytes_per_second > 0
        assert report.validation_attempts >= 1


class TestMitigationDeltas:
    """ssbd/fence must *measurably* degrade recovery vs the baseline."""

    @pytest.mark.parametrize("mitigation", ["ssbd", "fence"])
    def test_accuracy_strictly_below_baseline(self, suite, mitigation):
        assert suite[mitigation].accuracy < suite["none"].accuracy

    @pytest.mark.parametrize("mitigation", ["ssbd", "fence"])
    def test_mitigated_campaign_fails_cleanly(self, suite, mitigation):
        report = suite[mitigation]
        assert report.failure is not None
        assert report.recovered != SECRET
        assert report.byte_errors == len(SECRET)

    @pytest.mark.parametrize("mitigation", ["ssbd", "fence"])
    def test_attacker_still_pays_cycles(self, suite, mitigation):
        # The mitigations do not make the attack free to *attempt*; the
        # burnt budget is the cost they impose.
        assert suite[mitigation].cycles > 0

    def test_fence_starves_the_collision_scan(self, suite):
        # Fenced victims never charge a predictor entry, so not one
        # candidate collision is even found (vs ssbd, where trivially
        # sticky candidates appear but none validates).
        assert suite["fence"].validation_attempts == 0
        assert suite["ssbd"].validation_attempts > 0


class TestDeterminism:
    #: ``content_key`` of each report's ``to_dict()``: any drift in the
    #: simulator, the attack or the report shows up here in tier-1.
    PINNED = {
        "none": "63e3cd26fc65758dcee214edac924d380434472e708a8f7be286a66672c9b580",
        "ssbd": "9d3711753638e4558f062075e5c4238bbd6080322d53dc027c9f35a3a8b06770",
        "fence": "d870846684bfcccc9339e4022fde92523d261bcc2e1cc1f1bc82640a62ac2363",
    }

    def test_same_seed_same_report(self, suite):
        again = SecretExtraction(seed=2024, mitigation="none").run(SECRET)
        assert again.to_dict() == suite["none"].to_dict()

    @pytest.mark.parametrize("mitigation", ["none", "ssbd", "fence"])
    def test_report_matches_pinned_digest(self, suite, mitigation):
        assert content_key(suite[mitigation].to_dict()) == self.PINNED[mitigation]


class TestValidation:
    def test_unknown_mitigation_rejected(self):
        with pytest.raises(ValueError):
            SecretExtraction(mitigation="prayer")

    def test_redundancy_validated(self):
        with pytest.raises(ValueError):
            SecretExtraction(redundancy=0)

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            SecretExtraction().run(b"")

    def test_budget_covers_two_pages(self):
        # The scan resumes past the previous hit, so the next colliding
        # offset can be nearly two pages away; the default budget must
        # cover that or unmitigated campaigns give up spuriously.
        assert DEFAULT_COLLISION_BUDGET > 2 * 4096
