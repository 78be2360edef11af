"""Unit tests for the GCS-API provider registry."""

import pytest

from repro.cloud.gcsapi import GcsApi


class TestRegistry:
    def test_register_and_lookup(self, providers):
        api = GcsApi(providers.values())
        assert len(api.names()) == 4
        assert "aliyun" in api.names()
        assert api.provider("aliyun").name == "aliyun"
        assert api.providers() == list(providers.values())

    def test_duplicate_rejected(self, providers):
        api = GcsApi([providers["aliyun"]])
        with pytest.raises(ValueError):
            api.register(providers["aliyun"])
        assert api.names() == ["aliyun"]

    def test_unknown_lookup(self, providers):
        api = GcsApi(providers.values())
        assert "nope" not in api.names()
        with pytest.raises(KeyError):
            api.provider("nope")

    def test_names_preserve_registration_order(self, providers):
        api = GcsApi(providers.values())
        assert api.names() == list(providers)
