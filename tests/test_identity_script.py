"""Contract of ``scripts/identity.py``: per-cell comparison, the first
difference it names and the exit codes, through an injected cell dump —
no git, no sweep."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

#: Stands in for the real dump: three cells, read from the tree it runs
#: in; ``IDENTITY_MODE`` makes the change side differ in one component.
FAKE_DUMP = '''
import json, os, sys
side = os.path.basename(os.getcwd())
mode = os.environ.get("IDENTITY_MODE", "equal") if side == "change" else "equal"
seed = int(sys.argv[1])
for cell in range(3):
    row = {"cell": cell, "label": f"c{cell}", "plt": 0.5 + cell + seed,
           "complete": True, "client": {"acks_sent": 4}, "server": {"acks_sent": 9},
           "loss": {"client": {"cwnd": 100}, "server": {"cwnd": 200, "dupthresh": 3}},
           "links": {"a->b": {"delivered_packets": 3}}, "now": 2.0, "events": 40}
    if cell == 1 and mode == "link":
        row["links"]["a->b"]["delivered_packets"] = 4
    if cell == 0 and mode == "loss":
        row["loss"]["server"]["dupthresh"] = 5
    if cell == 2 and mode == "events":
        row["events"] = 41
    print(json.dumps(row))
'''


@pytest.fixture
def identity(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "identity", SCRIPTS / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trees = {side: tmp_path / side for side in module.SIDES}
    for tree in trees.values():
        tree.mkdir()

    def run(mode, *argv):
        monkeypatch.setenv("IDENTITY_MODE", mode)
        return module.main(["--parent", "unused", *argv], trees=trees,
                           code=FAKE_DUMP)

    run.module = module
    return run


def test_equal_sides_exit_zero_per_seed(identity, capsys):
    assert identity("equal", "--seeds", "0,7") == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed 0: equal over 3 cells", "seed 7: equal over 3 cells"]


def test_first_differing_cell_and_component_named(identity, capsys):
    assert identity("link", "--seeds", "3") == 1
    assert capsys.readouterr().out.strip() == (
        "seed 3: DIFFERENT at cell 1 (c1): links.a->b.delivered_packets: "
        "parent 3, change 4")


def test_event_count_is_compared(identity, capsys):
    assert identity("events") == 1
    assert "cell 2 (c2): events: parent 40, change 41" in \
        capsys.readouterr().out


def test_loss_state_is_compared_when_stats_agree(identity, capsys):
    assert identity("loss") == 1
    assert capsys.readouterr().out.strip() == (
        "seed 0: DIFFERENT at cell 0 (c0): loss.server.dupthresh: "
        "parent 3, change 5")


def test_loss_state_reads_both_transports(identity):
    """The dump's ``loss_state`` on real endpoints: the congestion window
    everywhere, TCP's duplicate threshold, QUIC's detector counters."""
    from repro.core.runner import run_page_load
    from repro.http.objects import page
    from repro.netem.profiles import emulated

    namespace = {}
    exec(identity.module.LOSS_STATE, namespace)
    loss_state = namespace["loss_state"]
    lossy = emulated(10.0, loss_pct=2.0)
    tcp = run_page_load(lossy, page(1, 100 * 1024), "tcp", seed=1).server
    assert loss_state(tcp) == {"cwnd": tcp.cc.cwnd,
                               "dupthresh": tcp.dupthresh}
    quic = run_page_load(lossy, page(1, 100 * 1024), "quic", seed=1).server
    detector = quic.loss_detector
    assert detector.losses_declared > 0
    assert loss_state(quic) == {
        "cwnd": quic.cc.cwnd, "losses_declared": detector.losses_declared,
        "false_losses": detector.false_losses,
        "threshold": detector.threshold}


def test_cell_count_mismatch_is_a_difference(identity):
    rows = [{"cell": 0, "label": "x"}]
    assert identity.module.first_difference(rows, rows * 2) == \
        "cell count: parent 1, change 2"
    assert identity.module.first_difference(rows, rows) is None


def test_failed_dump_is_loud(identity, tmp_path):
    with pytest.raises(RuntimeError, match="cell dump .* failed"):
        identity.module.dump(tmp_path, 0, "import sys; sys.exit(3)")


def test_default_seeds_are_0_and_7(identity, capsys):
    assert identity("equal") == 0
    assert [line.split(":")[0] for line in
            capsys.readouterr().out.splitlines()] == ["seed 0", "seed 7"]
