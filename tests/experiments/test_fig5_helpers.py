"""Unit tests for the Fig. 5 result helpers."""

from repro.experiments.fig5_adoption import Fig5Result
from repro.workloads.deployment import AdoptionSeries


def series(days, downloads, active):
    return AdoptionSeries(days=list(days), daily_downloads=list(downloads),
                          active_users=list(active))


class TestWeeklyRows:
    def test_weekly_sums(self):
        s = series(range(14), [1.0] * 14, [float(i) for i in range(14)])
        rows = Fig5Result(series=s).weekly_rows()
        assert len(rows) == 2
        assert rows[0] == (0, 7.0, 6.0)  # week total + week-end actives
        assert rows[1] == (7, 7.0, 13.0)

    def test_partial_final_week(self):
        s = series(range(10), [2.0] * 10, [1.0] * 10)
        rows = Fig5Result(series=s).weekly_rows()
        assert rows[-1][1] == 6.0  # only three days in the last window


class TestSpikeDetection:
    def test_spikes_above_threshold(self):
        downloads = [2.0] * 50
        downloads[25] = 100.0
        s = series(range(50), downloads, [0.0] * 50)
        assert s.spike_days() == [25]

    def test_no_spikes_in_flat_series(self):
        s = series(range(30), [3.0] * 30, [0.0] * 30)
        assert s.spike_days() == []
