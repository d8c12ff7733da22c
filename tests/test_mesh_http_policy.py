"""Tests for L7 requests, routing and zero-trust policy objects."""

import random

import pytest

from repro.mesh import (
    AuthorizationPolicy,
    AuthorizationTable,
    HttpMatch,
    HttpRequest,
    RouteError,
    RouteRule,
    RouteTable,
    WeightedDestination,
)


@pytest.fixture
def rng():
    return random.Random(0)


class TestHttpRequest:
    @pytest.mark.parametrize("field, value", [
        ("body_bytes", -1),
        ("response_bytes", -1),
        # Sizes are ints: NaN once failed only inside ``CpuResource.run``,
        # and a bool counted as 1 byte.
        ("body_bytes", float("nan")),
        ("body_bytes", 128.0),
        ("body_bytes", True),
        ("response_bytes", float("inf")),
        ("response_bytes", False),
        ("response_bytes", "1024"),
    ])
    def test_bad_size_rejected_by_name(self, field, value):
        with pytest.raises(ValueError,
                           match=rf"^HttpRequest\.{field} must be an int"):
            HttpRequest(**{field: value})

    def test_zero_sizes_accepted(self):
        assert HttpRequest(body_bytes=0, response_bytes=0).total_bytes == 0


class TestHttpMatch:
    def test_path_prefix(self):
        match = HttpMatch(path_prefix="/api")
        assert match.matches(HttpRequest(path="/api/users"))
        assert not match.matches(HttpRequest(path="/web"))

    def test_header_clause(self):
        match = HttpMatch(headers=(("x-canary", "true"),))
        assert match.matches(HttpRequest(
            headers={"x-canary": "true", "other": "x"}))
        assert not match.matches(HttpRequest(headers={}))

    def test_method_clause(self):
        match = HttpMatch(method="POST")
        assert match.matches(HttpRequest(method="POST"))
        assert not match.matches(HttpRequest(method="GET"))

    def test_clauses_are_anded(self):
        match = HttpMatch(path_prefix="/api", method="GET")
        assert not match.matches(HttpRequest(path="/api", method="POST"))


class TestRouteRule:
    def test_needs_destinations(self):
        with pytest.raises(ValueError):
            RouteRule(HttpMatch(), destinations=())

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            RouteRule(HttpMatch(),
                      destinations=(WeightedDestination("v1", 0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedDestination("v1", -1)

    def test_weighted_split_converges(self, rng):
        """A 90/10 canary split lands near 90/10 — the paper's
        percentage-based traffic splitting."""
        rule = RouteRule(HttpMatch(), destinations=(
            WeightedDestination("v1", 90), WeightedDestination("v2", 10)))
        picks = [rule.pick_destination(rng) for _ in range(5000)]
        share_v2 = picks.count("v2") / len(picks)
        assert 0.07 < share_v2 < 0.13


class TestRouteTable:
    def _table(self):
        table = RouteTable("svc")
        table.add_rule(RouteRule(
            HttpMatch(path_prefix="/v2"),
            destinations=(WeightedDestination("canary"),), name="canary"))
        table.add_rule(RouteRule(
            HttpMatch(), destinations=(WeightedDestination("stable"),)))
        return table

    def test_first_match_wins(self, rng):
        table = self._table()
        assert table.route(HttpRequest(path="/v2/x"), rng) == "canary"
        assert table.route(HttpRequest(path="/other"), rng) == "stable"

    def test_no_match_raises(self, rng):
        table = RouteTable("svc", [RouteRule(
            HttpMatch(path_prefix="/only"),
            destinations=(WeightedDestination("v1"),))])
        with pytest.raises(RouteError):
            table.route(HttpRequest(path="/nope"), rng)

    def test_config_size_grows_with_rules(self):
        small = self._table()
        big = self._table()
        big.add_rule(RouteRule(HttpMatch(headers=(("a", "b"),)),
                               destinations=(WeightedDestination("x"),)))
        assert big.config_size_bytes() > small.config_size_bytes()


class TestAuthorization:
    def _table(self):
        table = AuthorizationTable()
        table.add(AuthorizationPolicy(
            service="payments",
            allowed_identities=("spiffe://t1/frontend",),
            allowed_methods=("GET", "POST")))
        return table

    def test_allowed_identity_passes(self):
        table = self._table()
        request = HttpRequest(source_identity="spiffe://t1/frontend")
        assert table.check("payments", request)

    def test_unknown_identity_denied(self):
        table = self._table()
        request = HttpRequest(source_identity="spiffe://t1/attacker")
        assert not table.check("payments", request)

    def test_disallowed_method_denied(self):
        table = self._table()
        request = HttpRequest(method="DELETE",
                              source_identity="spiffe://t1/frontend")
        assert not table.check("payments", request)

    def test_service_without_rules_is_open(self):
        table = self._table()
        assert table.check("unprotected", HttpRequest())

    def test_config_size(self):
        assert self._table().config_size_bytes() > 0
