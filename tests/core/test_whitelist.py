"""Tests for the whitelist and PII blacklist."""

from repro.core.whitelist import Whitelist


class TestDomainWhitelist:
    def test_allowed_domain(self):
        wl = Whitelist(["shop.com"])
        allowed, reason = wl.check("http://shop.com/product/x", "shop.com",
                                   "/product/x", time=0.0)
        assert allowed and reason == ""

    def test_unknown_domain_rejected_and_logged(self):
        wl = Whitelist(["shop.com"])
        allowed, reason = wl.check("http://evil.com/p", "evil.com", "/p", time=5.0)
        assert not allowed and reason == "not-whitelisted"
        assert len(wl.rejected) == 1
        assert wl.rejected[0].domain == "evil.com"
        assert wl.rejected[0].time == 5.0

    def test_add_after_manual_inspection(self):
        wl = Whitelist()
        wl.check("http://new.com/p", "new.com", "/p", time=0.0)
        wl.add("new.com")
        allowed, _ = wl.check("http://new.com/p", "new.com", "/p", time=1.0)
        assert allowed


class TestPiiBlacklist:
    def test_account_pages_rejected(self):
        wl = Whitelist(["shop.com"])
        allowed, reason = wl.check(
            "http://shop.com/account/orders", "shop.com", "/account/orders", 0.0
        )
        assert not allowed and reason == "pii-blacklisted"

    def test_all_default_patterns(self):
        wl = Whitelist(["shop.com"])
        for path in ("/account", "/profile/me", "/settings", "/orders/1",
                     "/wishlist", "/checkout", "/login"):
            assert wl.url_pii_blacklisted(path)

    def test_case_insensitive(self):
        wl = Whitelist(["shop.com"])
        assert wl.url_pii_blacklisted("/ACCOUNT/me")

    def test_product_pages_pass(self):
        wl = Whitelist(["shop.com"])
        assert not wl.url_pii_blacklisted("/product/p-1")

    def test_custom_patterns(self):
        wl = Whitelist(["shop.com"], pii_patterns=("/secret",))
        assert wl.url_pii_blacklisted("/secret/x")
        assert not wl.url_pii_blacklisted("/account")
