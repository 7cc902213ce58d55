"""The one sweep fold (``repro.sweep.collect``) and its callers.

Two halves: the fold's own contract under an injected run function,
and goldens for every batch driver that became a request builder around
it.  The goldens were captured on the commit *before* the rewire (five
hand-rolled ``iter_runs`` loops, ``SamplePair``, ``GridAccumulator``),
serially and through the pool, so they pin that the drivers' output did
not move by a byte.  Exact ``==`` on floats is deliberate, as in
``tests/test_determinism.py``.
"""

import time

import pytest

from repro.core.executor import ProtocolSpec, RunRecord, RunRequest
from repro.core.runner import (
    build_plt_heatmap,
    compare_page_load,
    compare_quic_variants,
)
from repro.http import page, single_object_page
from repro.netem import emulated
from repro.quic import quic_config
from repro.store import SqliteStore
from repro.sweep import collect, run_requests

SCN = emulated(10.0)
PAGE = single_object_page(20_000)


def cell(key, seeds):
    return (key, [RunRequest(scenario=SCN, page=PAGE,
                             protocol=ProtocolSpec.quic(), seed=seed)
                  for seed in seeds])


#: Three cells of unequal size; seeds are unique so a value names its slot.
CELLS = [cell("c", (7, 3, 5)), cell("a", (1,)), cell("b", (6, 2))]
EXPECTED = {"c": [7.0, 3.0, 5.0], "a": [1.0], "b": [6.0, 2.0]}


# module-level: run functions must be picklable for the pool
def _seed_run(request):
    return RunRecord(request=request, plt=float(request.seed), complete=True)


def _scrambling_run(request):
    """Finish in reverse seed order: later requests complete first."""
    time.sleep(0.04 * (8 - request.seed))
    return _seed_run(request)


def _must_not_run(request):
    raise AssertionError("a duplicate key must be refused before any run")


def logging_value(log):
    """A ``value=`` that also records the terminal events it is handed."""
    def value(event):
        log.append(event)
        return event.require()
    return value


class TestCollect:
    def test_cell_order_times_request_order_serial(self):
        result = collect(CELLS, run_fn=_seed_run)
        assert result == EXPECTED
        assert list(result) == ["c", "a", "b"]  # keys in the order given

    def test_completion_order_does_not_matter(self):
        events = []
        result = collect(CELLS, run_fn=_scrambling_run, jobs=2,
                         force_pool=True, value=logging_value(events))
        # the pool did scramble
        assert [event.seed for event in events] != [7, 3, 5, 1, 6, 2]
        assert result == EXPECTED
        assert list(result) == ["c", "a", "b"]

    def test_on_cell_fires_once_per_full_cell(self):
        fired = []
        collect(CELLS, run_fn=_scrambling_run, jobs=2, force_pool=True,
                on_cell=lambda key, values: fired.append((key, list(values))))
        # exactly once each, and only with every slot of the cell filled
        assert sorted(fired) == sorted(
            (key, values) for key, values in EXPECTED.items())

    def test_duplicate_key_raises_before_anything_runs(self):
        with pytest.raises(ValueError, match=r"duplicate sweep cell.*'a'"):
            collect(CELLS + [cell("a", (9,))], run_fn=_must_not_run)

    def test_empty(self):
        assert collect([]) == {}
        assert collect([cell("only", ())]) == {"only": []}

    def test_value_sees_the_terminal_event(self):
        result = collect(CELLS[1:2], run_fn=_seed_run,
                         value=lambda event: (event.kind, event.seed))
        assert result == {"a": [("complete", 1)]}

    def test_store_hits_and_misses_slot_identically(self, tmp_path):
        store = SqliteStore(tmp_path / "fold.sqlite")
        executed = []

        def counting_run(request):
            executed.append(request.seed)
            return _seed_run(request)

        # warm two of the six runs: one whole cell, one slot of another
        collect([cell("a", (1,)), cell("x", (3,))], run_fn=counting_run,
                store=store)
        del executed[:]
        events = []
        result = collect(CELLS, run_fn=counting_run, store=store,
                         value=logging_value(events))
        assert result == EXPECTED
        assert sorted(executed) == [2, 5, 6, 7]
        assert {event.seed for event in events if event.kind == "hit"} == \
            {1, 3}


# ----------------------------------------------------------------------
# goldens captured on the parent commit (serial == pooled there too)
# ----------------------------------------------------------------------
JOBS = pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pooled"])


class TestRewireGoldens:
    @JOBS
    def test_compare_page_load(self, jobs):
        cell = compare_page_load(
            emulated(10.0, loss_pct=1.0), single_object_page(100 * 1024),
            runs=4, seed_base=7, jobs=jobs)
        assert cell.describe() == (
            "10Mbps+0ms+1%loss / 1x100KB: QUIC 0.132s (sd 0.008) vs TCP "
            "0.378s (sd 0.144) -> +65.0% (p=0.0415, inconclusive)")

    @JOBS
    def test_compare_quic_variants(self, jobs):
        cell = compare_quic_variants(
            emulated(50.0, extra_delay_ms=20.0),
            single_object_page(10 * 1024),
            treatment_cfg=quic_config(34, zero_rtt=True),
            baseline_cfg=quic_config(34, zero_rtt=False), runs=3,
            seed_base=3, treatment_name="0-RTT", baseline_name="1-RTT",
            jobs=jobs)
        assert cell.describe() == (
            "50Mbps+20ms+0%loss / 1x10KB: 0-RTT 0.059s (sd 0.001) vs 1-RTT "
            "0.117s (sd 0.001) -> +49.2% (p=0.0000, quic)")

    @JOBS
    def test_build_plt_heatmap(self, jobs):
        heatmap = build_plt_heatmap(
            "golden grid",
            [emulated(5.0), emulated(50.0, loss_pct=1.0)],
            [single_object_page(10 * 1024), page(4, 20 * 1024)],
            runs=3, seed_base=11, jobs=jobs)
        assert heatmap.render() == (
            "golden grid\n"
            "(positive = QUIC faster; '·' = not significant at p<0.01)\n"
            "                     1x10KB  4x20KB\n"
            "5Mbps+0ms+0%loss       +66%       ·\n"
            "50Mbps+0ms+1%loss      +73%    +62%")
        # grid order, whatever order the runs completed in
        assert list(heatmap.cells) == [
            (row, col) for row in heatmap.row_labels
            for col in heatmap.col_labels]

    @JOBS
    def test_run_requests_record_list(self, jobs):
        requests = [RunRequest(scenario=SCN, page=workload, protocol=proto,
                               seed=seed)
                    for workload in (single_object_page(20 * 1024),
                                     page(3, 10 * 1024))
                    for proto in (ProtocolSpec.quic(), ProtocolSpec.tcp())
                    for seed in (0, 5)]
        records = run_requests(requests, jobs=jobs, force_pool=jobs > 1)
        assert [record.request for record in records] == requests
        assert all(record.ok and record.attempts == 1
                   and record.metrics["plt"] == record.plt
                   for record in records)
        assert [record.plt for record in records] == [
            0.05558006007523848, 0.055674609731854285,
            0.1924522509538189, 0.19300146655944822,
            0.0640856600752385, 0.0641802097318543,
            0.20115146765463976, 0.20196466655944822]

    def test_compare_callback_is_gone(self):
        with pytest.raises(TypeError, match="compare"):
            build_plt_heatmap("t", [SCN], [PAGE], runs=1,
                              compare=lambda scenario, page: None)
