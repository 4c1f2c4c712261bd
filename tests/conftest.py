"""Settings shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def no_proxy_settings(monkeypatch):
    """Loopback requests go straight to the server, whatever proxy the shell sets."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
