"""The paper's simulated results must be byte-identical to the golden.

The ``fig3_stats`` (Fig. 3's monthly IA-trace statistics) and ``fig6``
(a reduced Fig. 6 run) facets of ``tests/data/simulated_golden.json``
against the session's one rebuild (``tests/conftest.py``).  Every float is
compared by ``repr``, so even a last-bit drift fails.
"""

import pytest

from tests.test_simulated_golden import check


class TestFig3Identity:
    def test_monthly_stats_byte_identical(self, simulated_golden, simulated_rebuild):
        assert len(simulated_golden["fig3_stats"]) == 12
        check(simulated_golden["fig3_stats"], simulated_rebuild["fig3_stats"])


class TestFig6Identity:
    @pytest.mark.parametrize("section", ["normal", "outage", "degraded_fraction"])
    def test_section_byte_identical(self, simulated_golden, simulated_rebuild, section):
        check(simulated_golden["fig6"][section], simulated_rebuild["fig6"][section])
