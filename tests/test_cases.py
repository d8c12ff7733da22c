"""Tests for the scripted production cases (§6.2, §2.1).

Each test checks one finding's row of the claims ledger
(``tests/test_claims.py``), which holds the band.
"""

from .test_claims import assert_claims


class TestCase1LossyMigration:
    def test_attack_classified_as_ddos(self):
        assert_claims("case1", "classified_ddos")

    def test_exactly_one_migration(self):
        """Several backends alert on the same flood; the responses
        coalesce into a single migration."""
        assert_claims("case1", "lossy_migrations")

    def test_sessions_reset(self):
        assert_claims("case1", "sessions_reset")

    def test_completes_within_seconds(self):
        assert_claims("case1", "migration_duration_s")

    def test_peers_unaffected(self):
        assert_claims("case1", "peers_unaffected")


class TestCase2LosslessMigration:
    def test_autoscaling_kept_firing(self):
        assert_claims("case2", "scaling_events")

    def test_lossless_migration_happened(self):
        assert_claims("case2", "lossless_migrations")

    def test_no_sessions_reset(self):
        assert_claims("case2", "sessions_reset")

    def test_takes_minutes_not_seconds(self):
        """Completion bounded by existing-flow timeout: median ~20 min."""
        assert_claims("case2", "migration_duration_min")


class TestCase3Hotspot:
    def test_cascade_without_throttling(self):
        """The cross-platform query of death: every platform dies."""
        assert_claims("case3", "platforms_down_without")

    def test_throttling_prevents_cascade(self):
        assert_claims("case3", "platforms_down_with",
                      "a_survives_with_throttle")


class TestCrossRegionVpn:
    def test_100mbps_delays_much_larger(self):
        assert_claims("case_vpn", "delay_ratio")

    def test_queue_grows_on_saturated_vpn(self):
        """Updates arrive faster than the link drains them."""
        assert_claims("case_vpn", "queue_growth_100mbps")

    def test_1gbps_is_timely(self):
        assert_claims("case_vpn", "p50_delay_1gbps")


class TestPhaseMigrationCase:
    def test_in_phase_group_detected(self):
        assert_claims("case_phase", "in_phase_groups")

    def test_migrations_scatter_the_group(self):
        assert_claims("case_phase", "migrations_executed")

    def test_daily_peak_reduced(self):
        assert_claims("case_phase", "peak_water_after/peak_water_before",
                      "peak_reduction")
