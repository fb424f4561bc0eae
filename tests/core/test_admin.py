"""Tests for the admin console's panels."""

import pytest

from repro.core.admin import AdminConsole


@pytest.fixture
def console(sheriff):
    return AdminConsole(sheriff)


class TestPanels:
    def test_panels_render(self, console, es_user):
        assert "Available Sheriff servers" in console.servers_panel()
        panel = console.peers_panel(self_peer_id=es_user.peer_id)
        assert "SELF" in panel
