"""ASLR derandomization through predictor collisions."""

import math

import pytest

from repro.attacks.aslr import AslrDerandomizer
from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.runtime.atomic import content_key


@pytest.fixture(scope="module")
def outcome():
    derandomizer = AslrDerandomizer(Machine(seed=4242))
    return derandomizer, derandomizer.recover()


class TestSubPageRecovery:
    def test_recovers_the_exact_placement(self, outcome):
        derandomizer, report = outcome
        assert report.recovered_sub_offset == derandomizer.true_sub_offset
        assert report.sub_page_recovered

    def test_needs_only_unprivileged_probes(self, outcome):
        derandomizer, report = outcome
        # Everything is accounted for as probes (attacker-local loads)
        # or victim invocations (calling the victim's own routines).
        assert report.probes > 0
        assert report.victim_invocations > 0


class TestPhysicalWindowNarrowing:
    def test_candidate_set_shrinks_but_keeps_the_truth(self, outcome):
        derandomizer, report = outcome
        assert 0 < report.candidates_remaining < 1 << report.window_bits
        assert report.true_base_in_candidates

    def test_partial_bits_match_the_carry_chain_limit(self, outcome):
        _, report = outcome
        # Hash differences of nearby frames depend only on the carry
        # pattern, so narrowing is partial (SPOILER-style), never total.
        assert 1.0 <= report.physical_bits_recovered < report.window_bits
        expected = report.window_bits - math.log2(report.candidates_remaining)
        assert report.physical_bits_recovered == pytest.approx(expected)

    def test_success_summarizes_both_phases(self, outcome):
        _, report = outcome
        assert report.success
        data = report.to_dict()
        assert data["success"] is True
        assert data["sub_page_recovered"] is True
        assert data["candidates_remaining"] == report.candidates_remaining


class TestDeterminism:
    #: ``content_key`` of the report's ``to_dict()``: any drift in the
    #: victim, the attacker probe or the simulator shows up in tier-1.
    PINNED = "6ba57a3c7782f7827cad42b7fe3cf31063b0a10d6e5ca5b3319d442c2af082bc"

    def test_same_seed_same_report(self, outcome):
        _, report = outcome
        again = AslrDerandomizer(Machine(seed=4242)).recover()
        assert again.to_dict() == report.to_dict()

    def test_report_matches_pinned_digest(self, outcome):
        _, report = outcome
        assert content_key(report.to_dict()) == self.PINNED


class TestConfiguration:
    def test_distance_beyond_region_rejected(self):
        with pytest.raises(ConfigError):
            AslrDerandomizer(
                Machine(seed=1), region_pages=8, site_distances=(1, 8)
            )

    def test_victim_region_is_physically_contiguous(self, outcome):
        derandomizer, _ = outcome
        space = derandomizer.victim_process.address_space
        base_page = derandomizer.region_va >> 12
        frames = [space.mapping(base_page + index).frame for index in range(4)]
        assert frames == list(range(frames[0], frames[0] + 4))

    def test_ground_truth_lives_inside_the_window(self, outcome):
        derandomizer, _ = outcome
        assert 0 <= derandomizer.true_secret < 1 << derandomizer.window_bits
