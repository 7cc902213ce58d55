"""Tests for the content-addressed results store (repro.store).

The correctness contract: the same logical request always maps to the
same key (across object identities and across processes), while *any*
change to the configuration, seed, or the code the run exercises maps
to a different key — a cache hit can therefore never be stale.  Every
backend-facing test runs through the ``make_store`` fixture against the
shard store, the one format a location opens.  The legacy sqlite format
is only a source ``repro store sync`` reads; ``SqliteStore`` writes the
legacy files those tests sync.
"""

import ast
import hashlib
import inspect
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

from repro.core.executor import (
    ProtocolSpec,
    RunFailure,
    RunRecord,
    RunRequest,
    execute_request,
)
from repro.core.experiment import (
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    experiment_requests,
    run_experiment,
)
from repro.core.manyflow import (
    ManyflowConfig,
    manyflow_requests,
    manyflow_scenario,
)
from repro.devices import NEXUS6, DeviceProfile
from repro.http import page, single_object_page
from repro.netem import emulated
from repro.netem.profiles import CELLULAR_PROFILES
from repro.quic import quic_config
from repro.store import (
    RunCache,
    ShardStore,
    SqliteStore,
    StoreBackend,
    StoreNotFoundError,
    canonical,
    canonical_json,
    code_fingerprints,
    fingerprint_for,
    fsck,
    merge_into,
    open_store,
    record_from_dict,
    record_to_dict,
    request_from_dict,
    request_to_dict,
    run_key,
)
from repro.store import keys as store_keys
from repro.store.backend import _kind_at
from repro.store.rows import encode_row
from repro.sweep import iter_runs, run_requests
from repro.tcp import tcp_config
from repro.transport.cc.cubic import CubicConfig

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: An explicit QUIC config the spelling variants of
#: ``test_any_field_change_changes_key`` are ``==`` to.
SPELLED = quic_config(34).with_(min_rto=0.0)

SCN = emulated(10.0)
PAGE = single_object_page(20_000)


def req(seed=0, **overrides):
    kwargs = dict(scenario=SCN, page=PAGE, protocol=ProtocolSpec.quic(),
                  seed=seed)
    kwargs.update(overrides)
    return RunRequest(**kwargs)


def _line(request):
    """The store line a record of ``request`` is written as."""
    record = record_to_dict(RunRecord(request=request, plt=1.0))
    return encode_row("k", 1.0, "pinned", record)


def fresh_req(seed=0):
    """The same logical request as ``req(seed)``, all-new objects."""
    return RunRequest(scenario=emulated(10.0),
                      page=single_object_page(20_000),
                      protocol=ProtocolSpec.quic(), seed=seed)


@pytest.fixture(params=["shards"])
def make_store(request, tmp_path):
    """A factory building fresh stores of the one store format."""

    def _make(name="store"):
        return ShardStore(tmp_path / f"{name}-shards")

    return _make


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def _manyflow_req(cc, aqm):
    config = ManyflowConfig(flows=50, duration=20.0, cc=cc, aqm=aqm)
    return manyflow_requests(config, manyflow_scenario(), seeds=[1])[0]


#: ``run_key(request, fingerprint="pinned")`` as computed by the commit
#: *before* the single-walk serialiser and the fragment memo landed
#: (KEY_SCHEMA_VERSION 3).  Any drift of the canonical form silently
#: orphans every existing store, so it has to fail here instead.  To
#: change the form on purpose: bump KEY_SCHEMA_VERSION and re-pin.
GOLDEN_KEYS = {
    "quic-default": (
        lambda: req(),
        "d38e1922b74f40bffe8d4ab82ceb87a7fb4f53586ddfba18aa149a1ded3faf2c"),
    "quic-v34-explicit": (
        lambda: req(seed=3, protocol=ProtocolSpec.quic(version=34)),
        "90239120f3f15325530098253b84171746e0cf34721f60145de2768f36bc6292"),
    "quic-v34-nack50": (
        lambda: req(protocol=ProtocolSpec(
            "quic", quic_config(34).with_(nack_threshold=50))),
        "6a1691d72dabc2209f0093f81b20dccbe85d39969b249f19ee6c2eb6171dfa85"),
    "tcp-default": (
        lambda: req(protocol=ProtocolSpec.tcp()),
        "8185438e4325c000b0ffc134d0d7530f2d5776a4a3ddcc79bf87165a504bf1a1"),
    "tcp-dupthresh10": (
        lambda: req(protocol=ProtocolSpec("tcp", tcp_config(dupthresh=10))),
        "1afffcb598fce1474bb9b1a774e48a9e855c05124ee64ed840cbc243d21aeeeb"),
    "proxied": (
        lambda: req(proxied=True),
        "5dcffcf871950934a6697020e803393a5a5b05553e232f86997a392f86d89622"),
    "traced": (
        lambda: req(trace=True, cwnd_interval=0.05),
        "9ef6bbc988bf292c6a0d4ed0b98e75a519449139e1e37b6296cc806ae18b773a"),
    "page-100x10KB-lossy": (
        lambda: req(seed=7, scenario=emulated(50.0, loss_pct=1.0),
                    page=page(100, 10 * 1024)),
        "9ed2baee81a97ebb49244a378a41c45df7685b04957defc5110e3eae2fb87068"),
    "nexus6": (
        lambda: req(device=NEXUS6),
        "9c69211c317cb5c60abe1fc505b51fce8f5f3e91a1e08cf39e7c5b931787f09c"),
    "custom-device": (
        lambda: req(device=DeviceProfile("bench-phone", 1e-5, 2e-4, 3e-6,
                                         0.01, noise=0.0)),
        "27d70be61a5772aef9048212b47ee1f08b9b713f727d55e3efea6d5ee7ce391e"),
    "int-rate-scenario": (
        lambda: req(scenario=emulated(10.0).with_(rate_mbps=10)),
        "f587289600aaf10f513db37e78cc316c58ac9440215c0a59dd86fe0fc25dc38a"),
    "manyflow-reno": (
        lambda: _manyflow_req("reno", "droptail"),
        "9405d9a4c92280e442f78a1ab1feb297e6a316ae433373ae6fc8c09f8a618c7a"),
    "manyflow-cubic": (
        lambda: _manyflow_req("cubic", "codel"),
        "9e403957607ff0396a4b9384fa12bc879f199c93a44185752164c69c9f933f23"),
    "manyflow-bbr": (
        lambda: _manyflow_req("bbr", "fq_codel"),
        "cc354bcead4e8859b3335eec19aa22c5c22c253bec81b4977700045a9761c2c5"),
}


def _reference_json(obj):
    """The canonical serialisation, spelled the slow two-pass way."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


class TestRunKey:
    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_golden_keys(self, name):
        build, expected = GOLDEN_KEYS[name]
        assert run_key(build(), fingerprint="pinned") == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_single_walk_matches_two_pass_reference(self, name):
        request = GOLDEN_KEYS[name][0]()
        assert canonical_json(request) == _reference_json(request)
        assert canonical_json(request) == _reference_json(request)  # memo hit

    def test_single_walk_matches_reference_on_plain_data(self):
        odd = {"b": [1, 2.5, float("inf"), float("-inf"), None, True,
                     "\u00e9\"\\\n"],
               3: {"z": (), "a": {}}, "a": -0.0, "big": 10 ** 30,
               "e": 1e-7, "E": 1e22}
        assert canonical_json(odd) == _reference_json(odd)
        assert canonical_json(float("nan")) == "NaN"
        with pytest.raises(TypeError, match="cannot canonicalise"):
            canonical_json({"x": object()})
        with pytest.raises(TypeError, match="cannot canonicalise"):
            canonical(object())

    def test_repeated_and_equal_fresh_requests_agree(self):
        request = req(seed=9, page=page(100, 10_000))
        first = run_key(request, fingerprint="pinned")
        assert run_key(request, fingerprint="pinned") == first
        fresh = RunRequest(scenario=emulated(10.0), page=page(100, 10_000),
                           protocol=ProtocolSpec.quic(), seed=9)
        assert run_key(fresh, fingerprint="pinned") == first

    def test_key_shape(self):
        key = run_key(req())
        assert len(key) == 64
        int(key, 16)  # hex

    def test_same_logical_request_same_key(self):
        assert run_key(req(seed=5)) == run_key(fresh_req(seed=5))

    def test_key_is_stable_across_processes(self):
        code = (
            "from repro.core.executor import ProtocolSpec, RunRequest\n"
            "from repro.http import single_object_page\n"
            "from repro.netem import emulated\n"
            "from repro.store import run_key\n"
            "r = RunRequest(scenario=emulated(10.0),\n"
            "               page=single_object_page(20_000),\n"
            "               protocol=ProtocolSpec.quic(), seed=3)\n"
            "print(run_key(r))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH",
                                                                "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == run_key(req(seed=3))

    @pytest.mark.parametrize("variant", [
        lambda: req(seed=1),
        lambda: req(scenario=emulated(10.0, loss_pct=1.0)),
        lambda: req(scenario=emulated(50.0)),
        lambda: req(page=single_object_page(20_001)),
        lambda: req(page=page(2, 10_000)),
        lambda: req(protocol=ProtocolSpec.tcp()),
        lambda: req(protocol=ProtocolSpec.quic(version=36)),
        lambda: req(protocol=ProtocolSpec(
            "quic", quic_config(34).with_(nack_threshold=50))),
        lambda: req(protocol=ProtocolSpec(
            "tcp", tcp_config(dupthresh=10))),
        lambda: req(device=NEXUS6),
        lambda: req(trace=True),
        lambda: req(proxied=True),
        lambda: req(timeout=123.0),
        # Changes ``==`` cannot see (True == 1, 0.0 == -0.0) but JSON can.
        pytest.param(lambda: req(protocol=ProtocolSpec(
            "quic", replace(SPELLED, zero_rtt=1))), id="zero_rtt-true-to-1"),
        pytest.param(lambda: req(protocol=ProtocolSpec(
            "quic", replace(SPELLED, min_rto=-0.0))),
            id="min_rto-zero-to-minus-zero"),
        pytest.param(lambda: req(protocol=ProtocolSpec("quic", replace(
            SPELLED, cc=replace(SPELLED.cc, prr=1)))), id="cc.prr-true-to-1"),
        pytest.param(lambda: req(protocol=ProtocolSpec("quic", replace(
            SPELLED, cc=replace(SPELLED.cc, beta=0.5)))), id="cc.beta"),
    ])
    def test_any_field_change_changes_key(self, variant):
        request = variant()
        for base in (req(), req(protocol=ProtocolSpec("quic", SPELLED))):
            assert run_key(request) != run_key(base)
            assert _line(request) != _line(base)

    def test_default_and_explicit_default_config_differ(self):
        # ProtocolSpec(None) defers to the *current* defaults, so it is
        # deliberately a different address than a pinned explicit config.
        assert (run_key(req(protocol=ProtocolSpec.quic()))
                != run_key(req(protocol=ProtocolSpec.quic(quic_config(34)))))

    def test_code_fingerprint_changes_key(self):
        base = run_key(req(), fingerprint="aaaa")
        assert run_key(req(), fingerprint="bbbb") != base
        assert run_key(req(), fingerprint="aaaa") == base


class TestRunKeyMemo:
    """The fragment memo may never serve a stale key."""

    @pytest.mark.parametrize("config", [quic_config(34), tcp_config()],
                             ids=["quic", "tcp"])
    def test_configs_refuse_assignment(self, config):
        with pytest.raises(FrozenInstanceError):
            config.mss = 1200
        with pytest.raises(FrozenInstanceError):
            config.cc = CubicConfig()
        with pytest.raises(FrozenInstanceError):
            config.cc.beta = 0.5

    @pytest.mark.parametrize("build, change", [
        (lambda: ProtocolSpec.quic(version=34),
         lambda config: replace(config, nack_threshold=50)),
        (lambda: ProtocolSpec("tcp", tcp_config()),
         lambda config: replace(config, dupthresh=10)),
        (lambda: ProtocolSpec.quic(version=34),
         lambda config: replace(config, cc=replace(config.cc, beta=0.5))),
        (lambda: ProtocolSpec("tcp", tcp_config()),
         lambda config: replace(config, cc=replace(config.cc,
                                                   max_cwnd_packets=77))),
    ], ids=["quic-field", "tcp-field", "quic-nested-cc", "tcp-nested-cc"])
    def test_mutated_config_is_rehashed(self, build, change):
        """A config is changed by building a new one: the memoised key
        of the old one stands, the new one gets its own."""
        request = req(protocol=build())
        before = run_key(request, fingerprint="pinned")
        protocol = ProtocolSpec(request.protocol.name,
                                change(request.protocol.config))
        after = run_key(req(protocol=protocol), fingerprint="pinned")
        assert after != before
        assert run_key(request, fingerprint="pinned") == before
        # ...and it is the key an equal, freshly built request gets.
        fresh_protocol = build()
        fresh_protocol = ProtocolSpec(fresh_protocol.name,
                                      change(fresh_protocol.config))
        assert after == run_key(req(protocol=fresh_protocol),
                                fingerprint="pinned")

    def test_int_and_float_rates_keep_distinct_keys(self):
        # Equal (and equal-hashing) scenarios whose canonical JSON
        # differs: the memo is by identity, never by equality.
        as_int = emulated(10.0).with_(rate_mbps=10)
        as_float = emulated(10.0).with_(rate_mbps=10.0)
        assert as_int == as_float
        int_key = run_key(req(scenario=as_int), fingerprint="pinned")
        float_key = run_key(req(scenario=as_float), fingerprint="pinned")
        assert int_key != float_key
        assert int_key == GOLDEN_KEYS["int-rate-scenario"][1]
        assert float_key == GOLDEN_KEYS["quic-default"][1]

    def test_memo_is_bounded(self):
        bound = store_keys._PARTS_BOUND
        pages = [single_object_page(1_000 + n) for n in range(bound + 50)]
        for index, workload in enumerate(pages):
            run_key(req(page=workload), fingerprint="pinned")
            request_to_dict(req(page=workload))
            assert len(store_keys._PARTS) <= bound
            assert len(store_keys._PART_OF_DATA) <= bound
        # Dropped entries are simply re-walked: same key as a cold equal.
        assert (run_key(req(page=pages[0]), fingerprint="pinned")
                == run_key(req(page=single_object_page(1_000)),
                           fingerprint="pinned"))

    def test_frozen_shell_around_a_list_is_not_memoised(self):
        from repro.http.objects import WebObject, WebPage

        objects = [WebObject(0, 1_000)]
        leaky = WebPage("leaky", objects)  # type: ignore[arg-type]
        before = run_key(req(page=leaky), fingerprint="pinned")
        part = request_to_dict(req(page=leaky))["page"]
        objects.append(WebObject(1, 2_000))
        after = run_key(req(page=leaky), fingerprint="pinned")
        assert after != before
        assert after == run_key(
            req(page=WebPage("leaky", tuple(objects))), fingerprint="pinned")
        assert part["objects"] == [[0, 1_000]]
        assert request_to_dict(req(page=leaky))["page"]["objects"] == [
            [0, 1_000], [1, 2_000]]

    def test_rows_of_one_page_share_its_part(self):
        # Every seed of a cell carries the same page object, so its rows
        # share one {"name", "objects"} dict instead of a list per object
        # per row; the bytes written are unchanged.
        first, second = (request_to_dict(req(seed=seed)) for seed in (1, 2))
        assert first["page"] is second["page"]
        assert first["page"] == {"name": PAGE.name,
                                 "objects": [[0, 20_000]]}
        equal_page = single_object_page(20_000)  # equal, not the same object
        assert (request_to_dict(req(page=equal_page))["page"]
                is not first["page"])

    def test_fake_package_still_tracked_after_default_dir_memoised(
            self, tmp_path):
        default = fingerprint_for(req())  # memoises the default dir
        assert fingerprint_for(req()) == default
        pkg = _fake_package(tmp_path)
        edited = _edited_copy(pkg, "netem/mod.py", "rate = 2\n")
        assert fingerprint_for(req(), pkg) != default
        assert fingerprint_for(req(), pkg) != fingerprint_for(req(), edited)
        assert fingerprint_for(req()) == default
        # Dropping a directory's cached fingerprints re-hashes it.
        (pkg / "netem" / "mod.py").write_text("rate = 3\n")
        stale = fingerprint_for(req(), pkg)
        store_keys._FINGERPRINTS.pop(str(pkg))
        assert fingerprint_for(req(), pkg) != stale


def _walked_key(request, fingerprint):
    """The run key spelled the slow way: sha256 of the two-pass canonical
    JSON of the whole envelope, no memo involved."""
    envelope = {"code": fingerprint, "request": request,
                "schema": store_keys.KEY_SCHEMA_VERSION}
    return hashlib.sha256(_reference_json(envelope).encode()).hexdigest()


def _has_cell(request, fingerprint):
    """Whether ``request`` finds a memoised cell by its fields' ids."""
    ids = tuple(map(id, store_keys._cell_values(request)))
    return (fingerprint, ids) in store_keys._CELL_OF_IDS


class TestCellMemo:
    """A key from a cell's memoised sha256 state is the whole walk's."""

    def _assert_walked(self, request, fingerprint="pinned"):
        for _ in range(2):  # the cell's first key, then a memo hit
            assert run_key(request, fingerprint=fingerprint) == _walked_key(
                request, fingerprint)

    def test_every_sweep_request_and_variant(self):
        spec = ExperimentSpec(
            name="cells",
            scenarios=[ScenarioSpec(rate_mbps=10.0),
                       ScenarioSpec(rate_mbps=50, loss_pct=1.0),
                       ScenarioSpec(rate_mbps=5.0, delay_ms=50.0,
                                    jitter_ms=10.0)],
            workloads=[WorkloadSpec(1, 5), WorkloadSpec(10, 10)],
            runs=3, device="nexus6", quic_version=34)
        requests = [request for _cell, cell in experiment_requests(
            spec, seed_base=40) for request in cell]
        for cc in ("reno", "bbr"):
            requests += manyflow_requests(
                ManyflowConfig(flows=20, duration=30.0, cc=cc, aqm="codel"),
                manyflow_scenario(), seeds=range(3))
        assert len(requests) == 42
        for request in requests:
            for variant in (request, request.with_(proxied=True),
                            request.with_(trace=True),
                            request.with_(cwnd_interval=0.05)):
                self._assert_walked(variant)
                assert _has_cell(variant, "pinned")
                assert run_key(variant) == _walked_key(
                    variant, fingerprint_for(variant))

    @pytest.mark.parametrize("field", ["cwnd_interval", "timeout"])
    def test_minus_zero_is_not_zero(self, field):
        # -0.0 == 0.0 and they hash alike: a memo keyed on values would
        # hand the second request the first one's cell.
        zero = req(seed=4, **{field: 0.0})
        minus_zero = req(seed=4, **{field: -0.0})
        self._assert_walked(zero)
        self._assert_walked(minus_zero)
        assert (run_key(zero, fingerprint="pinned")
                != run_key(minus_zero, fingerprint="pinned"))

    def test_int_is_not_float_and_bool_seed_is_not_int(self):
        as_int, as_float = req(timeout=60), req(timeout=60.0)
        self._assert_walked(as_int)
        self._assert_walked(as_float)
        assert (run_key(as_int, fingerprint="pinned")
                != run_key(as_float, fingerprint="pinned"))
        as_bool, as_one = req(seed=True), req(seed=1)
        self._assert_walked(as_one)
        self._assert_walked(as_bool)
        assert (run_key(as_bool, fingerprint="pinned")
                != run_key(as_one, fingerprint="pinned"))

    def test_a_subclass_is_walked_and_a_list_page_keys_by_its_text(self):
        from dataclasses import dataclass

        from repro.http.objects import WebObject, WebPage

        @dataclass(frozen=True)
        class Sub(RunRequest):
            pass

        sub = Sub(scenario=SCN, page=PAGE, protocol=ProtocolSpec.quic(),
                  seed=2)
        self._assert_walked(sub)
        assert (run_key(sub, fingerprint="pinned")
                != run_key(req(seed=2), fingerprint="pinned"))
        # A page around a list is never memoised as a part; its cell is
        # found by its current text, so an appended object moves the key.
        objects = [WebObject(0, 1_000)]
        leaky = req(seed=2, page=WebPage("leaky", objects))
        self._assert_walked(leaky)
        before = run_key(leaky, fingerprint="pinned")
        objects.append(WebObject(1, 2_000))
        self._assert_walked(leaky)
        assert run_key(leaky, fingerprint="pinned") != before

    def test_a_field_id_is_not_recycled_under_a_cell(self):
        # Each timeout is freed with its request; a memo that did not
        # hold it would find the next one, at the same address, by id.
        quic = ProtocolSpec.quic()
        for n in range(50):
            request = req(seed=1, protocol=quic, timeout=float(f"{n}.5"))
            self._assert_walked(request)
            del request

    def test_keys_after_the_memo_overflows(self):
        bound = store_keys._PARTS_BOUND
        # Equal fields in new objects: one cell, a new id entry each.
        for n in range(bound + 10):
            self._assert_walked(req(seed=n, timeout=float("900.0")))
            assert len(store_keys._CELL_OF_IDS) <= bound
        first = [req(seed=seed, page=page(2, 1_000)) for seed in range(3)]
        keys = [run_key(request, fingerprint="pinned") for request in first]
        for n in range(bound + 10):
            request = req(seed=n, page=single_object_page(5_000 + n))
            self._assert_walked(request)
            assert len(store_keys._CELLS) <= bound
            assert len(store_keys._PARTS) <= bound
        # The cells went with the parts; the first requests key afresh.
        assert not _has_cell(first[0], "pinned")
        assert [run_key(request, fingerprint="pinned")
                for request in first] == keys
        for request in first:
            self._assert_walked(request)


# ----------------------------------------------------------------------
# code fingerprints
# ----------------------------------------------------------------------
def _fake_package(root: Path) -> Path:
    """A miniature repro tree: keyed packages, the unkeyed layers, and a
    package no earlier tree had (``manyflow``)."""
    pkg = root / "pkg"
    for sub in ("core", "netem", "transport", "quic", "tcp", "http",
                "proxy", "video", "fabric", "manyflow"):
        (pkg / sub).mkdir(parents=True)
        (pkg / sub / "mod.py").write_text(f"name = {sub!r}\n")
    (pkg / "devices.py").write_text("profiles = {}\n")
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("entry = None\n")
    (pkg / "faults.py").write_text("plan = None\n")
    (pkg / "sweep.py").write_text("engine = None\n")
    (pkg / "store").mkdir()
    (pkg / "store" / "keys.py").write_text("schema = 1\n")
    (pkg / "core" / "models.py").write_text("oracle = 1\n")
    (pkg / "transport" / "cc").mkdir()
    (pkg / "transport" / "cc" / "kernels.py").write_text("step = 1\n")
    return pkg


def _edited_copy(pkg: Path, relative: str, text: str) -> Path:
    """A sibling copy of ``pkg`` with one file changed.

    A copy (not an in-place edit) because fingerprints are cached per
    process per directory — exactly how two checkouts would differ.
    """
    clone = pkg.parent / f"{pkg.name}-edited-{relative.replace('/', '_')}"
    shutil.copytree(pkg, clone)
    (clone / relative).write_text(text)
    return clone


class TestSubsystemFingerprints:
    def test_video_edit_leaves_plt_keys_unchanged(self, tmp_path):
        # The acceptance criterion: a comment-only touch under video/
        # must not invalidate a cached QUIC-vs-TCP PLT sweep.
        pkg = _fake_package(tmp_path)
        edited = _edited_copy(pkg, "video/mod.py",
                              "name = 'video'\n# doc tweak only\n")
        for request in (req(), req(protocol=ProtocolSpec.tcp())):
            before = run_key(request,
                             fingerprint=fingerprint_for(request, pkg))
            after = run_key(request,
                            fingerprint=fingerprint_for(request, edited))
            assert before == after

    def test_netem_edit_changes_plt_keys(self, tmp_path):
        pkg = _fake_package(tmp_path)
        edited = _edited_copy(pkg, "netem/mod.py",
                              "name = 'netem'\nrate = 2\n")
        for request in (req(), req(protocol=ProtocolSpec.tcp())):
            before = run_key(request,
                             fingerprint=fingerprint_for(request, pkg))
            after = run_key(request,
                            fingerprint=fingerprint_for(request, edited))
            assert before != after

    @pytest.mark.parametrize("relative", [
        "transport/mod.py", "quic/mod.py", "tcp/mod.py", "http/mod.py",
        "core/mod.py", "devices.py",
        # No table lists manyflow/: a module is keyed unless UNKEYED
        # names it, so a new package cannot serve stale hits.
        "manyflow/mod.py",
    ])
    def test_exercised_subsystem_edits_change_keys(self, tmp_path, relative):
        pkg = _fake_package(tmp_path)
        edited = _edited_copy(pkg, relative, "changed = True\n")
        assert (fingerprint_for(req(), pkg)
                != fingerprint_for(req(), edited))

    @pytest.mark.parametrize("relative", [
        "store/keys.py", "cli.py", "proxy/mod.py", "fabric/mod.py",
        "faults.py", "sweep.py",
    ])
    def test_unexercised_edits_leave_keys_alone(self, tmp_path, relative):
        # The UNKEYED layers are outside every fingerprint; proxy/ only
        # enters the key of proxied runs.
        pkg = _fake_package(tmp_path)
        edited = _edited_copy(pkg, relative, "changed = True\n")
        assert (fingerprint_for(req(), pkg)
                == fingerprint_for(req(), edited))

    def test_proxied_requests_cover_proxy_code(self, tmp_path):
        pkg = _fake_package(tmp_path)
        edited = _edited_copy(pkg, "proxy/mod.py", "changed = True\n")
        proxied = req(proxied=True)
        assert (fingerprint_for(proxied, pkg)
                != fingerprint_for(proxied, edited))

    def test_code_fingerprints_cover_requests(self, tmp_path):
        pkg = _fake_package(tmp_path)
        plain, proxied = code_fingerprints(pkg)
        assert fingerprint_for(req(), pkg) == plain
        assert fingerprint_for(req(proxied=True), pkg) == proxied
        assert plain != proxied

    def test_an_edit_to_the_sweep_engine_leaves_keys_alone(self, tmp_path):
        # The real package, not a miniature: a one-line edit to the file
        # that defines iter_runs must leave every cached run reusable.
        package = (SRC_DIR / "repro").resolve()
        engine = Path(inspect.getsourcefile(iter_runs)).resolve()
        copy = tmp_path / "parent" / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        edited = tmp_path / "edited" / "repro"
        shutil.copytree(copy, edited)
        with open(edited / engine.relative_to(package), "a") as handle:
            handle.write("# a one-line edit to the sweep engine\n")
        assert code_fingerprints(copy) == code_fingerprints(package)
        assert code_fingerprints(edited) == code_fingerprints(copy)

    @pytest.mark.parametrize("kind", ["quic", "tcp", "proxied", "manyflow"])
    def test_no_unkeyed_code_runs_inside_a_run(self, kind):
        # UNKEYED is sound only if a run never calls into those entries:
        # an edit there could otherwise change an outcome under a key
        # that did not move.
        request = {
            "quic": req(),
            "tcp": req(protocol=ProtocolSpec.tcp()),
            "proxied": req(proxied=True),
            "manyflow": manyflow_requests(
                ManyflowConfig(flows=20, duration=10.0), seeds=(0,))[0],
        }[kind]
        package = Path(store_keys.__file__).parent.parent
        unkeyed = tuple(str(package / entry)
                        for entry in store_keys.UNKEYED)
        called = set()

        def profile(frame, event, _arg):
            if (event == "call"
                    and frame.f_code.co_filename.startswith(unkeyed)):
                called.add((frame.f_code.co_filename, frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            record = execute_request(request)
        finally:
            sys.setprofile(None)
        assert record.ok
        assert called == set()

    def test_unkeyed_entries_exist_in_real_package(self):
        # A typo in UNKEYED would silently key a layer it meant to skip.
        package = SRC_DIR / "repro"
        assert all((package / entry).exists()
                   for entry in store_keys.UNKEYED)
        empty = __import__("hashlib").sha256().hexdigest()
        assert empty not in code_fingerprints()

    @pytest.mark.parametrize("relative", [
        # The analytical CC oracle layer and the kernels themselves.
        "core/models.py",
        "transport/cc/kernels.py",
    ])
    def test_cc_edits_move_only_transport_partition(self, tmp_path,
                                                    relative):
        pkg = _fake_package(tmp_path)
        edited = _edited_copy(pkg, relative, "changed = True\n")
        assert fingerprint_for(req(), pkg) != fingerprint_for(req(), edited)

    def test_profile_attributes_frames_by_top_level_package(self):
        from repro.core.bench import _package_of

        assert _package_of("/x/src/repro/core/models.py") == "core"
        assert _package_of(
            "/x/src/repro/transport/cc/kernels.py") == "transport"
        assert _package_of("/x/src/repro/store/shards.py") == "store"
        assert _package_of("/x/src/repro/fabric/server.py") == "fabric"
        assert _package_of("/x/src/repro/cli.py") == "cli.py"
        assert _package_of("/x/repro/src/repro/faults.py") == "faults.py"
        assert _package_of("/usr/lib/python3/heapq.py") == "(stdlib/other)"


# ----------------------------------------------------------------------
# the JSON codec
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("request_", [
        req(seed=7),
        req(protocol=ProtocolSpec("quic",
                                  quic_config(36).with_(zero_rtt=False))),
        req(protocol=ProtocolSpec("tcp", tcp_config(tls_rtts=1))),
        req(scenario=CELLULAR_PROFILES["verizon-3g"].scenario(),
            device=NEXUS6, trace=True, cwnd_interval=0.5, proxied=True),
        req(device=DeviceProfile("weird", 1e-6, 2e-6, 3e-6, 0.1, noise=0.0)),
    ])
    def test_request_round_trip(self, request_):
        rebuilt = request_from_dict(request_to_dict(request_))
        assert rebuilt == request_
        assert run_key(rebuilt) == run_key(request_)

    def test_request_dict_is_json_safe(self):
        json.dumps(request_to_dict(req()))

    def test_record_round_trip(self):
        record = RunRecord(request=req(), plt=1.25, complete=True,
                           metrics={"plt": 1.25, "bytes": 20480.0},
                           wall_time=0.5, attempts=2)
        rebuilt = record_from_dict(record_to_dict(record))
        assert rebuilt.plt == record.plt
        assert rebuilt.metrics == record.metrics
        assert rebuilt.request == record.request
        assert rebuilt.failure is None

    def test_failure_round_trip(self):
        record = RunRecord(request=req(), failure=RunFailure(
            "incomplete", "ran out of simulated time"))
        rebuilt = record_from_dict(record_to_dict(record))
        assert rebuilt.failure == record.failure
        assert not rebuilt.ok


# ----------------------------------------------------------------------
# the backend contract, on the shard store
# ----------------------------------------------------------------------
class TestStoreBackends:
    def record(self, seed=0, plt=1.0):
        return RunRecord(request=req(seed=seed), plt=plt, complete=True,
                         metrics={"plt": plt})

    def test_put_get_contains_len_delete(self, make_store):
        store = make_store()
        assert len(store) == 0
        store.put("k1", self.record())
        assert "k1" in store
        assert "k2" not in store
        assert store.get("k1").plt == 1.0
        assert store.get("k2") is None
        assert len(store) == 1
        assert store.delete("k1")
        assert not store.delete("k1")
        assert len(store) == 0

    def test_put_replaces(self, make_store):
        store = make_store()
        store.put("k1", self.record(plt=1.0))
        store.put("k1", self.record(plt=2.0))
        assert len(store) == 1
        assert store.get("k1").plt == 2.0

    def test_persists_across_reopen(self, make_store):
        with make_store("reopen") as store:
            path = store.path
            store.put("k1", self.record(plt=2.5), fingerprint="f1")
        with open_store(path) as store:
            assert store.kind == "shards"
            assert store.get("k1").plt == 2.5
            assert store.fingerprints() == {"f1": 1}

    def test_jsonl_round_trip(self, make_store, tmp_path):
        store = make_store("src")
        for i in range(3):
            store.put(f"k{i}", self.record(seed=i, plt=float(i)),
                      fingerprint="f")
        out = tmp_path / "dump.jsonl"
        assert store.export_jsonl(out) == 3
        other = make_store("dst")
        assert merge_into(other, out) == (3, 0)
        assert other.keys() == store.keys()
        for key in store.keys():
            assert other.get(key).plt == store.get(key).plt

    def test_rows_oldest_first(self, make_store):
        store = make_store()
        store.put("b", self.record(seed=1), created=2_000.0,
                  fingerprint="f2")
        store.put("a", self.record(seed=0), created=1_000.0,
                  fingerprint="f1")
        rows = list(store.rows())
        assert [row[0] for row in rows] == ["a", "b"]
        assert [row[1] for row in rows] == [1_000.0, 2_000.0]
        assert [row[2] for row in rows] == ["f1", "f2"]
        assert all(row[3].startswith("quic ") for row in rows)  # req label

    def test_gc_drops_only_old_rows(self, make_store):
        store = make_store()
        store.put("old", self.record(), created=1_000.0)
        store.put("new", self.record(seed=1), created=2_000.0)
        dropped = store.gc(500.0, now=2_100.0)  # horizon: 1600
        assert dropped == 1
        assert "old" not in store and "new" in store

    def test_gc_dry_run_touches_nothing(self, make_store):
        store = make_store()
        store.put("old", self.record(), created=1_000.0)
        store.put("new", self.record(seed=1), created=2_000.0)
        assert store.gc(500.0, now=2_100.0, dry_run=True) == 1
        assert "old" in store and "new" in store
        assert len(store) == 2

    def test_counters(self, make_store):
        store = make_store()
        assert store.counters() == {}
        store.bump_counter("hits")
        store.bump_counter("hits", 2)
        assert store.counters() == {"hits": 3}


class TestShardLayout:
    def test_records_bucket_by_key_prefix(self, tmp_path):
        store = ShardStore(tmp_path / "shards")
        record = RunRecord(request=req(), plt=1.0, complete=True)
        store.put("aa11", record)
        store.put("ab22", record)
        store.put("0c33", record)
        store.put("zz44", record)  # non-hex prefix
        assert (tmp_path / "shards" / "a.jsonl").exists()
        assert (tmp_path / "shards" / "0.jsonl").exists()
        assert (tmp_path / "shards" / "misc.jsonl").exists()
        # appends go through per-shard lockfiles that survive the write
        assert (tmp_path / "shards" / "a.lock").exists()
        assert len(store) == 4

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        store = ShardStore(tmp_path / "shards")
        store.put("aa11", RunRecord(request=req(), plt=1.0, complete=True))
        shard = tmp_path / "shards" / "a.jsonl"
        with open(shard, "a") as handle:
            handle.write('{"key": "ab22", "created": 1.0, "rec')  # torn
        with pytest.warns(RuntimeWarning, match="torn line"):
            assert store.keys() == ["aa11"]
        assert store.get("aa11").plt == 1.0
        # warned once per shard: another writer's append forces a
        # re-parse, which meets the same debris again and stays silent
        ShardStore(tmp_path / "shards").put(
            "ac33", RunRecord(request=req(), plt=2.0, complete=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.keys() == ["aa11", "ac33"]
        assert store.torn_lines == {"a": 1}

    def test_refuses_foreign_directory(self, tmp_path):
        target = tmp_path / "notastore"
        target.mkdir()
        (target / "store.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            ShardStore(target)

    def test_compaction_is_atomic_rename(self, tmp_path):
        store = ShardStore(tmp_path / "shards")
        record = RunRecord(request=req(), plt=1.0, complete=True)
        store.put("aa11", record)
        store.put("ab22", record)
        store.delete("aa11")
        shard = tmp_path / "shards" / "a.jsonl"
        assert shard.exists()
        assert not shard.with_suffix(".jsonl.tmp").exists()
        assert store.keys() == ["ab22"]
        store.delete("ab22")
        assert not shard.exists()  # empty shard files are removed


class TestShardAutoCompaction:
    def _dup_heavy(self, tmp_path, overwrites=16):
        """A shard whose ledger is one live key under many overwrites."""
        writer = ShardStore(tmp_path / "shards", compact_ratio=None)
        for i in range(overwrites):
            writer.put("aa11", RunRecord(request=req(), plt=float(i),
                                         complete=True))
        return tmp_path / "shards" / "a.jsonl"

    @staticmethod
    def _lines(shard):
        return len(shard.read_text().splitlines())

    def test_dead_heavy_shard_compacts_on_read(self, tmp_path):
        shard = self._dup_heavy(tmp_path)
        assert self._lines(shard) == 16
        store = ShardStore(tmp_path / "shards", compact_min_lines=8)
        assert store.get("aa11").plt == 15.0  # last write wins
        assert self._lines(shard) == 1  # 15 dead lines reclaimed
        assert store.compactions == 1
        assert store.counters()["compactions"] == 1
        # steady state: a compact shard is never rewritten again
        assert store.get("aa11").plt == 15.0
        assert store.compactions == 1

    def test_compact_ratio_none_disables(self, tmp_path):
        shard = self._dup_heavy(tmp_path)
        store = ShardStore(tmp_path / "shards", compact_ratio=None,
                           compact_min_lines=8)
        assert store.get("aa11").plt == 15.0
        assert self._lines(shard) == 16
        assert store.compactions == 0

    def test_small_shards_never_compact(self, tmp_path):
        # 16 lines is dead-heavy but below the default min-lines floor,
        # so the rewrite cost is not worth the reclaimed bytes.
        shard = self._dup_heavy(tmp_path)
        store = ShardStore(tmp_path / "shards")
        assert store.get("aa11").plt == 15.0
        assert self._lines(shard) == 16
        assert store.compactions == 0

    def test_ratio_at_threshold_does_not_trigger(self, tmp_path):
        # exactly half dead is not *more than* the 0.5 default ratio
        writer = ShardStore(tmp_path / "shards", compact_ratio=None)
        for i in range(4):
            writer.put("aa11", RunRecord(request=req(), plt=float(i),
                                         complete=True))
        for key in ("ab22", "ac33", "ad44", "ae55"):
            writer.put(key, RunRecord(request=req(), plt=1.0,
                                      complete=True))
        shard = tmp_path / "shards" / "a.jsonl"
        store = ShardStore(tmp_path / "shards", compact_min_lines=4)
        assert len(store.keys()) == 5
        assert self._lines(shard) == 8  # 4 dead / 8 lines == ratio
        assert store.compactions == 0

    def test_compaction_preserves_envelope(self, tmp_path):
        writer = ShardStore(tmp_path / "shards", compact_ratio=None)
        for i in range(16):
            writer.put("aa11", RunRecord(request=req(), plt=float(i),
                                         complete=True),
                       fingerprint="fp-final", created=123.5)
        store = ShardStore(tmp_path / "shards", compact_min_lines=8)
        store.get("aa11")
        assert store.compactions == 1
        ((key, created, fingerprint, _record),) = list(store.items())
        assert (key, created, fingerprint) == ("aa11", 123.5, "fp-final")


# ----------------------------------------------------------------------
# concurrent writers (the reason the sharded backend exists)
# ----------------------------------------------------------------------
_WRITER_CODE = """
import hashlib, sys
from repro.core.executor import ProtocolSpec, RunRecord, RunRequest
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import open_store

path, worker, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = open_store(path)
request = RunRequest(scenario=emulated(10.0),
                     page=single_object_page(20_000),
                     protocol=ProtocolSpec.quic(), seed=worker)
record = RunRecord(request=request, plt=float(worker), complete=True,
                   metrics={"plt": float(worker)})
for i in range(count):
    key = hashlib.sha256(f"w{worker}-r{i}".encode()).hexdigest()
    store.put(key, record, fingerprint=f"w{worker}")
    store.bump_counter("writes")
store.close()
"""


class TestConcurrentWriters:
    WORKERS = 4
    RECORDS = 20

    def test_parallel_appends_lose_no_records(self, tmp_path):
        import hashlib

        store_dir = tmp_path / "shared-shards"
        ShardStore(store_dir).close()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get(
            "PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_CODE, str(store_dir),
                 str(worker), str(self.RECORDS)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for worker in range(self.WORKERS)
        ]
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()

        store = ShardStore(store_dir)
        total = self.WORKERS * self.RECORDS
        assert len(store) == total
        for worker in range(self.WORKERS):
            for i in range(self.RECORDS):
                key = hashlib.sha256(f"w{worker}-r{i}".encode()).hexdigest()
                record = store.get(key)  # parses: no torn/corrupt lines
                assert record is not None
                assert record.plt == float(worker)
        # every shard file is fully valid JSONL (no interleaved writes)
        for shard in store_dir.glob("[0-9a-f]*.jsonl"):
            for line in shard.read_text().splitlines():
                json.loads(line)
        assert store.counters() == {"writes": total}
        assert store.fingerprints() == {
            f"w{w}": self.RECORDS for w in range(self.WORKERS)}


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_suffix_convention(self, tmp_path):
        # A new .sqlite/.db path is refused, not made a directory of
        # that name; any other new path becomes a shard directory.
        for name in ("a.sqlite", "b.db"):
            with pytest.raises(ValueError, match="repro store .*sync"):
                open_store(tmp_path / name)
        assert open_store(tmp_path / "c-store").kind == "shards"
        assert sorted(os.listdir(tmp_path)) == ["c-store"]

    def test_existing_paths_win_over_suffix(self, tmp_path):
        sqlite_path = tmp_path / "store.db.bak"
        SqliteStore(sqlite_path).close()
        before = sqlite_path.read_bytes()
        with pytest.raises(ValueError, match=f"sync {sqlite_path}"):
            open_store(sqlite_path)
        assert sqlite_path.read_bytes() == before
        for name in ("weird.sqlite.d", "named.sqlite"):
            ShardStore(tmp_path / name).close()
            assert open_store(tmp_path / name).kind == "shards"

    def test_instance_passthrough_and_mismatch(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        assert open_store(store) is store

    def test_anything_but_a_location_is_a_type_error(self, tmp_path,
                                                     monkeypatch):
        # A number or a SqliteStore object is neither a store nor a
        # location: refused by its type before a run starts or a
        # directory is made (3.5 used to become a directory "3.5").
        from repro.fabric import StoreServer

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError, match="not float$"):
            open_store(3.5)
        ran = []
        with SqliteStore(tmp_path / "p.sqlite") as legacy:
            for use in (lambda: RunCache(legacy),
                        lambda: list(iter_runs([req(seed=0)],
                                               run_fn=ran.append,
                                               store=legacy)),
                        lambda: StoreServer(legacy, port=0)):
                with pytest.raises(TypeError, match="not SqliteStore$"):
                    use()
        assert ran == []
        assert os.listdir(tmp_path) == ["p.sqlite"]

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        store = open_store(None)
        assert store.kind == "shards"
        assert store.path == str(tmp_path / "env-store")

    def test_resultstore_alias_and_open(self, tmp_path):
        # The pre-split name is gone, and so are the other openers:
        # open_store() is the one way in.
        with pytest.raises(ImportError):
            from repro.store import ResultStore  # noqa: F401
        for name in ("resolve_store", "resolve_store_path", "store_kind_at"):
            with pytest.raises(ImportError):
                exec(f"from repro.store import {name}")
        assert not hasattr(StoreBackend, "open")


class TestResolveStore:
    """The resolution rules every entry point shares through open_store."""

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        explicit = tmp_path / "mine"
        store = open_store(explicit)
        assert store.path == str(explicit) and store.kind == "shards"

    def test_env_var_beats_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        assert open_store(None).path == str(tmp_path / "env-store")
        assert open_store(None).kind == "shards"

    def test_falls_back_to_default_path(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.chdir(tmp_path)
        from repro.store import default_store_path
        assert open_store(None).path == str(default_store_path())

    def test_must_exist_raises_store_not_found(self, tmp_path):
        missing = tmp_path / "nope.sqlite"
        with pytest.raises(StoreNotFoundError, match="no results store"):
            open_store(missing, must_exist=True)
        # StoreNotFoundError is a FileNotFoundError for generic handlers
        assert issubclass(StoreNotFoundError, FileNotFoundError)
        SqliteStore(missing).close()  # a legacy store: found, and refused
        with pytest.raises(ValueError, match=f"sync {missing}"):
            open_store(missing, must_exist=True)
        ShardStore(tmp_path / "here").close()
        assert open_store(tmp_path / "here", must_exist=True).kind == "shards"

    def test_missing_default_names_a_legacy_default(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(StoreNotFoundError) as plain:
            open_store(None, must_exist=True)
        assert "sync" not in str(plain.value)
        SqliteStore(tmp_path / ".repro-store.sqlite").close()
        with pytest.raises(StoreNotFoundError, match=(
                "no results store at .repro-store .*"
                "`repro store sync .repro-store.sqlite`")):
            open_store("", must_exist=True)
        assert sorted(os.listdir(tmp_path)) == [".repro-store.sqlite"]

    def test_instance_passthrough(self, tmp_path):
        store = ShardStore(tmp_path / "s")
        assert open_store(store) is store

    def test_store_kind_at(self, tmp_path):
        # (kind the path holds or would get, whether a store exists)
        assert _kind_at(tmp_path / "absent") == ("shards", False)
        assert _kind_at(tmp_path / "absent.db") == ("sqlite", False)
        sqlite_path = tmp_path / "a.sqlite"
        SqliteStore(sqlite_path).close()
        assert _kind_at(sqlite_path) == ("sqlite", True)
        shard_dir = tmp_path / "b-dir"
        ShardStore(shard_dir).close()
        assert _kind_at(shard_dir) == ("shards", True)
        # Only a store counts as one: a directory without the shard
        # manifest, or a file without the sqlite magic, holds none.
        # (A legacy sqlite file "exists" only as a source for sync.)
        plain = tmp_path / "plain"
        plain.mkdir()
        assert _kind_at(plain) == ("shards", False)
        export = tmp_path / "export.jsonl"
        export.write_text("{}\n")
        assert _kind_at(export) == ("file", False)


def _served_store(location):
    from repro.fabric import StoreServer

    server = StoreServer(location, port=0)
    server.shutdown()
    return server.store


class TestEmptyLocationIsUnset:
    """``""`` means "unset" at every entry point — never the cwd."""

    @pytest.fixture
    def cwd(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.chdir(tmp_path)
        yield tmp_path
        assert not (tmp_path / "store.json").exists()

    @pytest.mark.parametrize("opener", [
        open_store, lambda location: RunCache(location).store, _served_store,
    ], ids=["open_store", "RunCache", "StoreServer"])
    def test_opens_the_default_store(self, cwd, opener):
        store = opener("")
        assert (store.kind, store.path) == ("shards", ".repro-store")
        assert (cwd / ".repro-store" / "store.json").is_file()

    def test_iter_runs_writes_to_the_default_store(self, cwd):
        list(iter_runs([req(seed=0)], run_fn=_instant, store=""))
        assert len(ShardStore(cwd / ".repro-store")) == 1

    def test_merge_into_refuses_it(self, cwd):
        with pytest.raises(FileNotFoundError,
                           match="no store or export at ''"):
            merge_into(ShardStore(cwd / "dst"), "")

    def test_store_sync_refuses_it(self, cwd):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no store or export at ''"):
            main(["store", "--store", str(cwd / "dst"), "sync", ""])


class TestReadOnlyCommandsLeaveNonStoresAlone:
    """A directory without the shard manifest, or a file, holds no store:
    a read-only command says so (or, for a legacy sqlite file, names
    ``repro store sync``) and writes nothing there."""

    STORE_COMMANDS = [["ls"], ["stats"], ["show", "ab"],
                      ["gc", "--older-than", "0"], ["fsck"],
                      ["export", "OUT"]]

    @pytest.fixture
    def plain(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / "readme.txt").write_text("not a store\n")
        return plain

    @pytest.mark.parametrize("command", STORE_COMMANDS,
                             ids=lambda command: command[0])
    def test_store_commands(self, plain, tmp_path, capsys, command):
        from repro.cli import main

        out = str(tmp_path / "out.jsonl")
        argv = [out if part == "OUT" else part for part in command]
        assert main(["store", "--store", str(plain), *argv]) == 0
        assert f"no results store at {plain}" in capsys.readouterr().out
        assert os.listdir(plain) == ["readme.txt"]
        assert not Path(out).exists()

    def test_report_and_validate(self, plain, capsys):
        from repro.cli import main

        assert main(["report", "--from-store", str(plain)]) == 0
        assert f"no results store at {plain}" in capsys.readouterr().out
        assert main(["validate", "--from-store", str(plain)]) == 1
        assert f"no results store at {plain}" in capsys.readouterr().out
        assert os.listdir(plain) == ["readme.txt"]

    def test_sync_from_a_plain_directory(self, plain, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no store or export at"):
            main(["store", "--store", str(tmp_path / "dst"), "sync",
                  str(plain)])
        assert os.listdir(plain) == ["readme.txt"]

    def test_a_non_sqlite_file_is_no_store(self, tmp_path, capsys):
        from repro.cli import main

        source = ShardStore(tmp_path / "src")
        source.put("ab", RunRecord(request=req(), plt=1.0, complete=True))
        export = tmp_path / "export.jsonl"
        source.export_jsonl(export)
        before = export.read_bytes()
        assert main(["store", "--store", str(export), "ls"]) == 0
        assert f"no results store at {export}" in capsys.readouterr().out
        assert export.read_bytes() == before
        # ...while sync still reads it as the export it is
        assert merge_into(ShardStore(tmp_path / "dst"), export) == (1, 0)

    @pytest.mark.parametrize("command", [
        ["store", "--store", "LEGACY", "ls"],
        ["store", "--store", "LEGACY", "fsck"],
        ["report", "--from-store", "LEGACY"],
    ], ids=lambda command: command[-1])
    def test_a_legacy_sqlite_file_names_the_sync_command(
            self, tmp_path, capsys, command):
        from repro.cli import main

        legacy = tmp_path / "old.sqlite"
        with SqliteStore(legacy) as store:
            store.put("ab", RunRecord(request=req(), plt=1.0, complete=True))
        before = legacy.read_bytes()
        argv = [str(legacy) if part == "LEGACY" else part for part in command]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        message = str(exit_.value.code)
        assert message.startswith("error: ") and "\n" not in message
        assert f"`repro store [--store DIR] sync {legacy}`" in message
        assert capsys.readouterr().out == ""
        assert legacy.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["old.sqlite"]

    @pytest.mark.parametrize("command", [
        ["compare", "--rate", "10", "--size-kb", "10", "--runs", "2",
         "--cache", "EXPORT"],
        ["store", "--store", "EXPORT", "sync", "EXPORT"],
    ], ids=lambda command: command[0])
    def test_a_write_to_a_non_sqlite_file_is_one_error_line(
            self, tmp_path, tmp_path_factory, command):
        from repro.cli import main

        source = ShardStore(tmp_path_factory.mktemp("src") / "s")
        source.put("ab", RunRecord(request=req(), plt=1.0, complete=True))
        export = tmp_path / "export.jsonl"
        source.export_jsonl(export)
        before = export.read_bytes()
        argv = [str(export) if part == "EXPORT" else part
                for part in command]
        with pytest.raises(SystemExit,
                           match=r"^error: .* is not a results store$"):
            main(argv)
        assert export.read_bytes() == before
        assert os.listdir(tmp_path) == ["export.jsonl"]
        # ...and sync still reads it as the export it is
        assert main(["store", "--store", str(tmp_path / "dst"), "sync",
                     str(export)]) == 0


class TestStatsFreshness:
    def test_rows_of_either_current_fingerprint_are_reusable(
            self, tmp_path, capsys):
        from repro.cli import main

        plain, proxied = code_fingerprints()
        with ShardStore(tmp_path / "s") as store:
            for key, request, fingerprint in (
                    ("a" * 64, req(), plain),
                    ("b" * 64, req(proxied=True), proxied),
                    ("c" * 64, req(seed=1), "0" * 64)):
                store.put(key, RunRecord(request=request, plt=1.0),
                          fingerprint=fingerprint)
        assert main(["store", "--store", str(tmp_path / "s"), "stats"]) == 0
        out = capsys.readouterr().out
        assert "runs:    3 stored (2 reusable by the current code)" in out
        assert ("stale:   1 run(s) from 1 older code fingerprint(s)"
                in out)
        assert f"code:    plain={plain[:8]}, proxied={proxied[:8]}" in out

    def test_rows_of_a_pinned_release_are_reusable_with_its_fingerprint(
            self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s"
        cache = RunCache(path, fingerprint="release-1")
        run_requests([req(seed=seed) for seed in range(16)], store=cache,
                     run_fn=_instant)
        cache.store.close()
        assert main(["store", "--store", str(path), "stats",
                     "--fingerprint", "release-1"]) == 0
        out = capsys.readouterr().out
        assert "runs:    16 stored (16 reusable" in out
        assert "stale:" not in out
        # Without it the release's rows are stale, and gc (which drops
        # rows by age, fresh ones too) is not offered as the remedy.
        assert main(["store", "--store", str(path), "stats"]) == 0
        out = capsys.readouterr().out
        assert "runs:    16 stored (0 reusable" in out
        assert "stale:   16 run(s) from 1 older code fingerprint(s)" in out
        assert "store gc" not in out


# ----------------------------------------------------------------------
# cross-store sync and parity
# ----------------------------------------------------------------------
def _store_dump(store):
    """Canonical bytes of every row (key, created, fingerprint, record)."""
    return [json.dumps({"key": k, "created": c, "fingerprint": f,
                        "record": r}, sort_keys=True)
            for k, c, f, r in store.items()]


class TestSyncAndParity:
    def fill(self, store, n=5):
        for i in range(n):
            record = RunRecord(request=req(seed=i), plt=float(i),
                               complete=True, metrics={"plt": float(i)})
            store.put(run_key(record.request), record,
                      fingerprint="fp", created=1_000.0 + i)

    def test_sync_skips_present_keys(self, tmp_path):
        src = SqliteStore(tmp_path / "src.sqlite")
        self.fill(src, n=4)
        dst = ShardStore(tmp_path / "dst-shards")
        assert merge_into(dst, src.path) == (4, 0)
        self.fill(src, n=6)  # two new rows beyond the four already synced
        assert merge_into(dst, src.path) == (2, 4)
        assert len(dst) == 6

    def test_sync_from_paths_and_jsonl(self, tmp_path):
        src = ShardStore(tmp_path / "src-shards")
        self.fill(src, n=3)
        # from a shard-directory path
        dst1 = ShardStore(tmp_path / "d1-shards")
        assert merge_into(dst1, tmp_path / "src-shards") == (3, 0)
        # from a legacy sqlite-file path (sniffed by magic bytes, not
        # suffix)
        legacy = SqliteStore(tmp_path / "legacy.sqlite")
        self.fill(legacy, n=3)
        legacy.close()
        odd_name = tmp_path / "peer.store"
        shutil.copyfile(tmp_path / "legacy.sqlite", odd_name)
        dst2 = ShardStore(tmp_path / "d2-shards")
        assert merge_into(dst2, odd_name) == (3, 0)
        # from a JSONL export
        dump = tmp_path / "dump.jsonl"
        src.export_jsonl(dump)
        dst3 = ShardStore(tmp_path / "d3-shards")
        assert merge_into(dst3, dump) == (3, 0)
        assert (_store_dump(dst1) == _store_dump(dst2)
                == _store_dump(dst3) == _store_dump(src))

    def test_sync_missing_source_raises(self, tmp_path):
        dst = ShardStore(tmp_path / "dst")
        with pytest.raises(FileNotFoundError):
            merge_into(dst, tmp_path / "nope")

    def test_sync_into_a_non_store_is_a_type_error(self, tmp_path):
        # Refused by the destination's type before a source row is read,
        # whether the source has rows or none (which once returned (0, 0)).
        empty = ShardStore(tmp_path / "empty")
        full = ShardStore(tmp_path / "full")
        self.fill(full, n=2)
        with SqliteStore(tmp_path / "legacy.sqlite") as legacy:
            for dst, name in ((3.5, "float"), (legacy, "SqliteStore")):
                for source in (empty, full):
                    with pytest.raises(TypeError, match=f"not {name}$"):
                        merge_into(dst, source)
        assert len(empty) == 0 and len(full) == 2


class TestLegacyMigration:
    """A sqlite store — the format the default ``--cache`` wrote before
    shard directories became the only one — enters through ``repro store
    sync`` with every cached run intact."""

    SMOKE = Path(__file__).resolve().parent.parent / "examples/specs/smoke.json"

    def test_smoke_runs_sync_into_a_shard_store_as_all_hits(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.chdir(tmp_path)
        # The smoke spec's runs, copied row for row (created stamp and
        # fingerprint kept) into a file of the old default's format.
        filled = ShardStore(tmp_path / "filled")
        run_experiment(ExperimentSpec.from_json(self.SMOKE.read_text()),
                       store=filled)
        with SqliteStore(tmp_path / ".repro-store.sqlite") as legacy:
            for key, created, fingerprint, record in filled.items():
                legacy.put(key, record_from_dict(record),
                           fingerprint=fingerprint, created=created)
            assert legacy._db.execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0] == 16
        # The default is a shard directory now: a read-only command
        # finds none, and names the sync that migrates the old default.
        assert main(["store", "ls"]) == 0
        assert ("`repro store sync .repro-store.sqlite`"
                in capsys.readouterr().out)
        assert not (tmp_path / ".repro-store").exists()

        shards = str(tmp_path / "shards")
        assert main(["store", "--store", shards, "sync",
                     ".repro-store.sqlite"]) == 0
        assert "16 imported, 0 already present" in capsys.readouterr().out
        assert main(["spec", "--file", str(self.SMOKE), "--cache",
                     shards]) == 0
        assert "cache: 16/16 hits (100%)" in capsys.readouterr().out
        assert len(ShardStore(shards)) == 16

    def test_sync_reads_a_pre_checksum_file_without_writing_it(
            self, tmp_path, capsys):
        # A file from before the checksum column: every row comes in,
        # and the sync (a read of its source) changes no byte of it.
        from repro.cli import main

        legacy = tmp_path / "old.sqlite"
        records = [RunRecord(request=req(seed=seed), plt=1.0 + seed,
                             complete=True) for seed in range(3)]
        db = sqlite3.connect(legacy)
        db.execute("CREATE TABLE runs (key TEXT PRIMARY KEY, created REAL "
                   "NOT NULL, fingerprint TEXT NOT NULL, label TEXT NOT "
                   "NULL, record TEXT NOT NULL)")
        db.executemany("INSERT INTO runs VALUES (?, ?, ?, ?, ?)", [
            (run_key(record.request), 1_000.0 + index,
             fingerprint_for(record.request), record.request.label,
             json.dumps(record_to_dict(record)))
            for index, record in enumerate(records)])
        db.commit()
        db.close()

        def on_disk():
            db = sqlite3.connect(f"file:{legacy}?mode=ro", uri=True)
            schema = db.execute("PRAGMA table_info(runs)").fetchall()
            db.close()
            return hashlib.sha256(legacy.read_bytes()).hexdigest(), schema

        before = on_disk()
        assert "checksum" not in {column[1] for column in before[1]}
        migrated = tmp_path / "migrated"
        assert main(["store", "--store", str(migrated), "sync",
                     str(legacy)]) == 0
        assert "3 imported, 0 already present" in capsys.readouterr().out
        assert on_disk() == before
        store = ShardStore(migrated)
        for record in records:
            assert store.get(run_key(record.request)).plt == record.plt
        assert fsck(store).clean


class TestLegacyFormatIsContained:
    """sqlite is one module's business: the legacy file format a sync
    reads, and the writer of such files that is no store."""

    def test_one_module_imports_sqlite3(self):
        importers = []
        for path in sorted((SRC_DIR / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "sqlite3" for name in names):
                    importers.append(path.relative_to(SRC_DIR).as_posix())
                    break
        assert importers == ["repro/store/legacy.py"]

    def test_sqlite_store_is_no_backend(self):
        assert not issubclass(SqliteStore, StoreBackend)
        public = {name for name in vars(SqliteStore)
                  if not name.startswith("_")}
        assert public == {"put", "get", "close"}


# ----------------------------------------------------------------------
# cache-aware execution
# ----------------------------------------------------------------------
class TestCacheAwareExecution:
    def test_second_run_is_all_hits_and_bit_identical(self, make_store):
        cache = RunCache(make_store())
        requests = [req(seed=s) for s in range(3)]
        cold = run_requests(requests, store=cache)
        assert cache.session_stats == (0, 3, 3)
        assert all(r.ok and not r.cached for r in cold)

        executed = []

        def must_not_run(request):
            executed.append(request)
            raise AssertionError("cache hit should not execute")

        warm = run_requests([fresh_req(seed=s) for s in range(3)],
                            store=cache, run_fn=must_not_run)
        assert executed == []
        assert all(r.cached for r in warm)
        assert [r.plt for r in warm] == [r.plt for r in cold]
        assert [r.metrics for r in warm] == [r.metrics for r in cold]
        assert cache.session_stats == (3, 3, 3)

    def test_interrupted_sweep_resumes_missing_cells_only(self, make_store):
        cache = RunCache(make_store())
        # The "interrupted" first attempt completed seeds 0 and 2 only.
        run_requests([req(seed=0), req(seed=2)], store=cache)

        executed = []

        def spy(request):
            executed.append(request.seed)
            return RunRecord(request=request, plt=float(request.seed),
                             complete=True, metrics={"plt": float(request.seed)})

        records = run_requests([req(seed=s) for s in range(4)],
                               store=cache, run_fn=spy)
        assert executed == [1, 3]  # only the missing cells ran
        assert [r.cached for r in records] == [True, False, True, False]
        assert all(r.ok for r in records)

    def test_misses_execute_heaviest_first(self, make_store):
        # Cache-aware scheduling: the miss list runs in expected-cost
        # order (object count, then total bytes, descending) so the
        # longest run never starts last on an otherwise-drained pool —
        # while the returned records stay in request order.
        cache = RunCache(make_store())
        small = req(page=single_object_page(1_000))
        medium = req(page=page(4, 8_000))
        big = req(page=page(9, 8_000))
        executed = []

        def spy(request):
            executed.append(request.page.object_count)
            return RunRecord(request=request, plt=1.0, complete=True,
                             metrics={"plt": 1.0})

        records = run_requests([small, big, medium], store=cache, run_fn=spy)
        assert executed == [9, 4, 1]
        assert [r.request.page.object_count for r in records] == [1, 9, 4]

    def test_results_are_written_back_as_they_complete(self, make_store):
        # Resumability hinges on incremental write-back: if run 2 of 3
        # dies, runs 0..1 must already be in the store.
        cache = RunCache(make_store())

        def dies_at_seed_two(request):
            if request.seed == 2:
                raise KeyboardInterrupt()
            return RunRecord(request=request, plt=1.0, complete=True)

        with pytest.raises(KeyboardInterrupt):
            run_requests([req(seed=s) for s in range(3)], store=cache,
                         run_fn=dies_at_seed_two)
        assert len(cache.store) == 2

    def test_error_failures_are_not_cached(self, make_store):
        cache = RunCache(make_store())

        def broken(request):
            raise RuntimeError("boom")

        records = run_requests([req()], store=cache, run_fn=broken)
        assert records[0].failure.kind == "error"
        assert len(cache.store) == 0

    def test_incomplete_runs_are_cached(self, make_store):
        cache = RunCache(make_store())
        cold = run_requests([req(timeout=0.001)], store=cache)
        assert cold[0].failure.kind == "incomplete"
        assert len(cache.store) == 1
        warm = run_requests([req(timeout=0.001)], store=cache)
        assert warm[0].cached
        assert warm[0].failure == cold[0].failure

    def test_progress_fires_for_hits_and_misses(self, make_store):
        cache = RunCache(make_store())
        run_requests([req(seed=0)], store=cache)
        seen = [event.record for event in iter_runs(
            [req(seed=s) for s in range(2)], store=cache, keep_records=True)
            if event.terminal]
        assert sorted(r.request.seed for r in seen) == [0, 1]
        assert {r.request.seed: r.cached for r in seen} == {0: True, 1: False}

    def test_store_accepts_a_bare_path(self, tmp_path):
        shard_path = tmp_path / "store-dir"
        run_requests([req()], store=shard_path)
        reopened = open_store(shard_path)
        assert reopened.kind == "shards"
        assert len(reopened) == 1
        # ...while a sqlite-flavoured one is refused before anything runs
        with pytest.raises(ValueError, match="sync"):
            run_requests([req()], store=tmp_path / "store.sqlite")
        assert os.listdir(tmp_path) == ["store-dir"]

    def test_code_change_invalidates_hits(self, make_store):
        store = make_store()
        old_code = RunCache(store, fingerprint="old-code")
        run_requests([req()], store=old_code)
        new_code = RunCache(store, fingerprint="new-code")
        executed = []

        def spy(request):
            executed.append(request.seed)
            return RunRecord(request=request, plt=1.0, complete=True)

        run_requests([req()], store=new_code, run_fn=spy)
        assert executed == [0]  # old result was not served
        assert new_code.session_stats == (0, 1, 1)

    def test_default_fingerprint_is_per_request_composite(self, make_store):
        cache = RunCache(make_store())
        assert cache.fingerprint is None
        assert cache.fingerprint_of(req()) == fingerprint_for(req())
        assert (cache.fingerprint_of(req(proxied=True))
                == fingerprint_for(req(proxied=True)))
        assert cache.fingerprint_of(req()) != cache.fingerprint_of(
            req(proxied=True))


def _instant(request):
    return RunRecord(request=request, plt=1.0 + request.seed, complete=True,
                     metrics={"plt": 1.0 + request.seed})


class TestCacheAccounting:
    """Each request is hashed once; persistent counters land coalesced
    and equal the session's after any completed or closed sweep."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = []

        def counting(request, **kwargs):
            calls.append(request)
            return run_key(request, **kwargs)

        monkeypatch.setattr("repro.store.cache.run_key", counting)
        return calls

    def test_serial_cold_sweep_hashes_each_request_once(self, make_store,
                                                        hashed):
        cache = RunCache(make_store())
        requests = [req(seed=s) for s in range(12)]
        events = list(iter_runs(requests, run_fn=_instant, store=cache))
        assert len(hashed) == 12  # lookup only; offer reuses the key
        assert cache.session_stats == (0, 12, 12)
        assert cache._keyed == {}
        # Each record sits under the address its event announced.
        for event in events:
            if event.terminal:
                assert cache.store.get(event.key).request.seed == event.seed

    def test_copied_request_is_rehashed_to_the_right_key(self, make_store,
                                                         hashed):
        cache = RunCache(make_store(), fingerprint="pinned")

        def copying(request):
            return _instant(request.with_())  # an equal, distinct object

        requests = [req(seed=s) for s in range(5)]
        list(iter_runs(requests, run_fn=copying, store=cache))
        assert len(hashed) == 10  # the fallback: lookup + offer
        assert sorted(cache.store.keys()) == sorted(
            run_key(request, fingerprint="pinned") for request in requests)
        assert cache._keyed == {}  # unconsumed entries go with the sweep

    def test_offer_without_lookup_still_hashes(self, make_store):
        cache = RunCache(make_store(), fingerprint="pinned")
        assert cache.offer(_instant(req(seed=4)))
        assert run_key(req(seed=4), fingerprint="pinned") in cache.store
        cache.flush()
        assert cache.store.counters() == {"writes": 1}

    def test_counters_exact_after_completed_sweep(self, make_store):
        cache = RunCache(make_store())
        list(iter_runs([req(seed=s) for s in range(6)], run_fn=_instant,
                       store=cache))
        assert cache.store.counters() == {"misses": 6, "writes": 6}
        list(iter_runs([req(seed=s) for s in range(9)], run_fn=_instant,
                       store=cache))
        assert cache.session_stats == (6, 9, 9)
        assert cache.store.counters() == {"hits": 6, "misses": 9,
                                          "writes": 9}

    def test_counters_exact_after_closing_half_way(self, make_store):
        cache = RunCache(make_store())
        list(iter_runs([req(seed=s) for s in range(3)], run_fn=_instant,
                       store=cache))
        stream = iter_runs([req(seed=s) for s in range(10)], run_fn=_instant,
                           store=cache)
        terminals = 0
        for event in stream:
            terminals += event.terminal
            if terminals == 6:  # 3 hits + 3 executed misses
                break
        stream.close()
        hits, misses, writes = cache.session_stats
        assert (hits, misses, writes) == (3, 10, 6)
        assert cache.store.counters() == {"hits": hits, "misses": misses,
                                          "writes": writes}
        assert cache._keyed == {}

    def test_one_shot_lookup_and_describe_flush_themselves(self, make_store):
        cache = RunCache(make_store())
        assert cache.lookup(req()) is None
        assert cache.store.counters() == {"misses": 1}
        assert cache._keyed == {}
        cache.offer(_instant(req()))
        assert "1 new results stored" in cache.describe_session()
        assert cache.store.counters() == {"misses": 1, "writes": 1}
        assert cache.lookup(req()).cached
        assert cache.store.counters() == {"hits": 1, "misses": 1,
                                          "writes": 1}

    def test_counter_ledger_lines_are_coalesced(self, tmp_path):
        from repro.store.cache import COUNTER_FLUSH_EVERY

        cells = 2 * COUNTER_FLUSH_EVERY + 88
        store = ShardStore(tmp_path / "shards")
        cache = RunCache(store, fingerprint="pinned")
        list(iter_runs([req(seed=s) for s in range(cells)], run_fn=_instant,
                       store=cache))
        assert store.counters() == {"misses": cells, "writes": cells}
        lines = [json.loads(line)["name"] for line in
                 (tmp_path / "shards" / "counters.jsonl").read_text()
                 .splitlines()]
        ceiling = -(-cells // COUNTER_FLUSH_EVERY) + 3
        assert 0 < lines.count("misses") <= ceiling
        assert 0 < lines.count("writes") <= ceiling

    def test_failed_bump_stays_pending(self, make_store):
        cache = RunCache(make_store())
        cache.lookup_with_key(req())
        real = cache.store.bump_counter
        cache.store.bump_counter = lambda *a, **k: (_ for _ in ()).throw(
            OSError("disk full"))
        with pytest.raises(OSError):
            cache.flush()
        cache.store.bump_counter = real
        cache.flush()
        assert cache.store.counters() == {"misses": 1}


# ----------------------------------------------------------------------
# experiment-level caching (the resumable-sweep contract)
# ----------------------------------------------------------------------
class TestExperimentCaching:
    def spec(self, **overrides):
        kwargs = dict(
            name="store-smoke",
            scenarios=[ScenarioSpec(10.0), ScenarioSpec(50.0)],
            workloads=[WorkloadSpec(1, 20)],
            runs=2,
        )
        kwargs.update(overrides)
        return ExperimentSpec(**kwargs)

    def test_rerun_is_all_hits_with_identical_json(self, make_store):
        cache = RunCache(make_store())
        first = run_experiment(self.spec(), store=cache)
        runs_total = cache.misses
        assert cache.hits == 0 and runs_total > 0
        second = run_experiment(self.spec(), store=cache)
        assert cache.hits == runs_total  # 100% hit rate on the rerun
        assert cache.misses == runs_total  # no new misses
        assert second.to_json() == first.to_json()

    def test_config_change_misses(self, make_store):
        cache = RunCache(make_store())
        run_experiment(self.spec(), store=cache)
        cache.hits = cache.misses = 0
        run_experiment(self.spec(quic_version=30), store=cache)
        # QUIC cells miss (different config); TCP cells still hit.
        assert cache.misses > 0 and cache.hits > 0
