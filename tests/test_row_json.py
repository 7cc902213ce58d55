"""Row JSON is spliced from per-part texts, and is still the stdlib's.

Every seed of a sweep cell carries the same page, scenario, device and
protocol objects, so ``repro.store.keys`` serialises each such part once
— run-key fragment, ``request_to_dict`` dict, one neutral text — and
``encode_row`` / ``row_check`` write a row around those texts, deriving
the spaced line and the compact checksum payload from one encoding of
the record.  This suite holds the splice to what it replaced:

* **differential** — ``encode_row`` and ``row_check`` against the stdlib
  encoders, kept here as the oracle, over records with shared and
  unshared parts and awkward values (signed zeros, non-finite floats,
  subnormals, ``bool`` vs ``int``, escapes, nesting);
* **distinct spellings** — a config is frozen, so a changed config is a
  new object with its own memo entry: a change the ``==`` operator
  cannot see (``True`` -> ``1``, ``0.0`` -> ``-0.0``) must still move
  the key and the line;
* **census** — N rows over one cell cost one stdlib encode per distinct
  part, not 2 N; N decoded rows cost N, not 2 N.
"""

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import ProtocolSpec, RunFailure, RunRecord, RunRequest
from repro.devices import DESKTOP, DeviceProfile
from repro.http.objects import WebObject, WebPage
from repro.netem.profiles import Scenario
from repro.quic import quic_config
from repro.store import ShardStore, record_to_dict, request_to_dict, row_check
from repro.store import keys as store_keys
from repro.store import run_key
from repro.store.rows import encode_row
from repro.tcp import tcp_config

from .test_store import req

LINE_ORACLE = json.JSONEncoder(sort_keys=True)
CHECK_ORACLE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def oracle_line(key, created, fingerprint, record, check=False):
    raw = {"key": key, "created": created, "fingerprint": fingerprint,
           "record": record}
    if check:
        raw["check"] = oracle_check(key, record)
    return LINE_ORACLE.encode(raw) + "\n"


def oracle_check(key, record):
    payload = CHECK_ORACLE.encode({"key": key, "record": record})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Text(str):
    """A ``str`` subclass: not plain data to the splice, fine to JSON."""


# ----------------------------------------------------------------------
# differential: the splice against the stdlib
# ----------------------------------------------------------------------
AWKWARD_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, 1e16, 1e-7, 1e22, 0.1, -2.5]
floats = st.one_of(st.sampled_from(AWKWARD_FLOATS),
                   st.floats(allow_nan=True, allow_infinity=True))
#: C0 controls beside the plain ones: a row is encoded once with
#: ``"\x00\x02"`` / ``"\x01\x03"`` as its separators, so a string holding
#: them (or the separators' spaced spellings) must still come out escaped.
CONTROL_TEXTS = ["\x00", "\x01", "\x02", "\x03", "\x00\x02", "\x01\x03",
                 "a\x01b\x00c", "\x1f\x02\x7f", '", "', '": "',
                 "\x00\x02, \x01\x03: "]
texts = st.one_of(st.text(max_size=12),
                  st.text(alphabet=st.characters(max_codepoint=0x20),
                          max_size=6),
                  st.sampled_from(["", "été", '"q"\\\n\t\x00',
                                   "\U0001f600", "\ud800", "%s %%", "/",
                                   *CONTROL_TEXTS]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts,
                    st.sampled_from([True, 1, False, 0, 10 ** 30]))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
        st.dictionaries(st.integers(), inner, min_size=1, max_size=3),
        texts.map(Text)),
    max_leaves=12)


@st.composite
def part_objects(draw):
    """One cell's shareable parts (some of them unshareable)."""
    scenario = Scenario(
        name=draw(texts), rate_mbps=draw(st.one_of(st.none(), floats)),
        rtt=draw(floats), loss_rate=draw(st.sampled_from([0.0, -0.0, 0, 1])),
        queue_bytes=draw(st.one_of(st.none(), st.integers())))
    objects = [WebObject(index, size) for index, size in enumerate(
        draw(st.lists(st.integers(1, 10 ** 9), min_size=1, max_size=5)))]
    # A frozen page around a list reaches mutable state: never shared.
    page = WebPage(draw(texts), objects if draw(st.booleans())
                   else tuple(objects))
    config = draw(st.sampled_from([None, "quic", "tcp"]))
    if config == "quic":
        config = quic_config(draw(st.integers(25, 37)))
        config = config.with_(
            zero_rtt=draw(st.sampled_from([True, 1, False, 0])),
            min_rto=draw(floats), cc=replace(config.cc, beta=draw(floats)))
        protocol = ProtocolSpec("quic", config)
    else:
        protocol = ProtocolSpec("tcp", None if config is None else tcp_config(
            dupthresh=draw(st.integers(1, 99)),
            scheduler=draw(st.sampled_from(["roundrobin", "fifo"]))))
    device = draw(st.sampled_from([DESKTOP, None]))
    if device is None:
        device = DeviceProfile(draw(texts), draw(floats), 0.0, -0.0, 1e-3,
                               noise=draw(floats))
    return scenario, page, protocol, device


@st.composite
def records(draw):
    scenario, page, protocol, device = draw(part_objects())
    request = RunRequest(scenario=scenario, page=page, protocol=protocol,
                         seed=draw(st.integers()), device=device,
                         trace=draw(st.booleans()),
                         cwnd_interval=draw(floats),
                         timeout=draw(floats))
    failure = draw(st.one_of(st.none(), st.builds(RunFailure, texts, texts)))
    record = record_to_dict(RunRecord(
        request=request, plt=draw(st.one_of(st.none(), floats)),
        complete=draw(st.booleans()),
        metrics=draw(st.dictionaries(texts, json_values, max_size=4)),
        wall_time=draw(floats), attempts=draw(st.integers(0, 5)),
        failure=failure))
    if draw(st.booleans()):
        # A row as a file or the wire hands it back: no shared parts.
        record = json.loads(json.dumps(record))
    elif draw(st.booleans()):
        record["extra"] = draw(json_values)  # a mutated shared record
    return record


class TestSpliceEqualsStdlib:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(record=records(), key=texts,
           fingerprint=st.one_of(texts, texts.map(Text)),
           created=st.one_of(st.none(), floats, st.integers(), json_values),
           check=st.booleans())
    def test_encode_row_and_row_check(self, record, key, fingerprint,
                                      created, check):
        assert (encode_row(key, created, fingerprint, record, check=check)
                == oracle_line(key, created, fingerprint, record, check))
        assert row_check(key, record) == oracle_check(key, record)

    def test_a_shared_record_is_spliced_and_a_decoded_one_is_not(self):
        shared = record_to_dict(RunRecord(request=req(seed=4), plt=1.5))
        decoded = json.loads(json.dumps(shared))
        for record in (shared, decoded):
            assert (encode_row("k", 1.0, "fp", record, check=True)
                    == oracle_line("k", 1.0, "fp", record, check=True))
        assert store_keys._PART_OF_DATA[id(shared["request"]["page"])]
        assert not any(id(value) in store_keys._PART_OF_DATA
                       for value in decoded["request"].values())

    def test_separator_lookalikes_in_every_string(self):
        """Strings holding the placeholder separators, and the spellings
        they are replaced by, on the spliced and the decoded path."""
        odd = 'a\x00b\x01c\x02d\x03", "e": "f\x00\x02, \x01\x03: '
        request = RunRequest(
            scenario=Scenario(odd, rate_mbps=10.0),
            page=WebPage(odd, (WebObject(0, 1000),)),
            protocol=ProtocolSpec("quic", quic_config(34)), seed=5,
            device=DeviceProfile(odd, 0.0, 0.0, 0.0, 0.0))
        shared = record_to_dict(RunRecord(
            request=request, plt=1.0,
            metrics={odd: odd, "\x01\x03": ["\x00\x02"]},
            failure=RunFailure(odd, odd)))
        decoded = json.loads(json.dumps(shared))
        assert store_keys._PART_OF_DATA[id(shared["request"]["page"])]
        for record in (shared, decoded):
            for check in (False, True):
                assert (encode_row(odd, 1.0, odd, record, check=check)
                        == oracle_line(odd, 1.0, odd, record, check))
            assert row_check(odd, record) == oracle_check(odd, record)

    def test_unserialisable_values_raise_what_the_stdlib_raises(self):
        record = record_to_dict(RunRecord(request=req(), plt=1.0,
                                          metrics={"x": object()}))
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_row("k", 1.0, "fp", record)
        record["metrics"] = {"x": 1.0, 2: 3.0}  # keys the sort cannot mix
        with pytest.raises(TypeError):
            encode_row("k", 1.0, "fp", record)

    def test_every_part_of_one_cell_is_shared(self):
        spec = ProtocolSpec.quic(version=34)  # a sweep's one spec object
        first, second = (request_to_dict(req(seed=seed, protocol=spec))
                         for seed in (1, 2))
        for name in ("scenario", "page", "protocol", "device"):
            assert first[name] is second[name], name
        assert first["manyflow"] is None


# ----------------------------------------------------------------------
# distinct spellings: a changed config is a new object, with its own entry
# ----------------------------------------------------------------------
def _set(path, value):
    def change(config):
        *parents, name = path.split(".")
        if parents:
            return replace(config, cc=replace(config.cc, **{name: value}))
        return replace(config, **{name: value})
    return change


#: name -> (the change the base config is built with, the change); the
#: last two are invisible to ``==`` (True == 1, 0.0 == -0.0) but not to
#: JSON.
CHANGES = {
    "top-level": (None, _set("nack_threshold", 50)),
    "nested-cc": (None, _set("cc.beta", 0.5)),
    "true-to-1": (None, _set("zero_rtt", 1)),
    "zero-to-minus-zero": (_set("min_rto", 0.0), _set("min_rto", -0.0)),
    "nested-true-to-1": (None, _set("cc.prr", 1)),
}


def _base(prepare):
    config = quic_config(34)
    return config if prepare is None else prepare(config)


class TestProtocolSnapshot:
    @pytest.mark.parametrize("name", sorted(CHANGES))
    def test_key_and_line_follow_the_mutation(self, name):
        prepare, change = CHANGES[name]
        spec = ProtocolSpec("quic", _base(prepare))

        def key_and_line(spec):
            request = req(protocol=spec)
            key = run_key(request, fingerprint="pinned")
            record = record_to_dict(RunRecord(request=request, plt=1.0))
            return key, encode_row(key, 1.0, "pinned", record, check=True)

        before = key_and_line(spec)
        assert key_and_line(spec) == before  # a hit: the memo serves it
        changed = ProtocolSpec("quic", change(spec.config))
        after = key_and_line(changed)
        assert after[0] != before[0] and after[1] != before[1]
        assert key_and_line(spec) == before
        # ...and both are what an equal, freshly built spec gives.
        request = req(protocol=ProtocolSpec("quic", change(_base(prepare))))
        assert after[0] == run_key(request, fingerprint="pinned")
        record = json.loads(json.dumps(
            record_to_dict(RunRecord(request=request, plt=1.0))))
        assert after[1] == oracle_line(after[0], 1.0, "pinned", record,
                                       check=True)

    def test_a_replaced_nested_config_is_seen(self):
        config = tcp_config()
        before = run_key(req(protocol=ProtocolSpec("tcp", config)),
                         fingerprint="pinned")
        same = replace(config, cc=tcp_config(dupthresh=4).cc)
        assert run_key(req(protocol=ProtocolSpec("tcp", same)),
                       fingerprint="pinned") == before
        other = replace(config, cc=quic_config(34).cc)
        assert run_key(req(protocol=ProtocolSpec("tcp", other)),
                       fingerprint="pinned") != before

    def test_a_config_holding_a_list_is_never_memoised(self):
        sizes = [1024]  # not a scalar, not a config
        spec = ProtocolSpec("quic", quic_config(34).with_(chlo_bytes=sizes))
        part = request_to_dict(req(protocol=spec))["protocol"]
        assert id(part) not in store_keys._PART_OF_DATA
        before = run_key(req(protocol=spec), fingerprint="pinned")
        sizes.append(512)
        assert run_key(req(protocol=spec), fingerprint="pinned") != before


# ----------------------------------------------------------------------
# census: stdlib encodes per distinct part, not per row
# ----------------------------------------------------------------------
class TestEncodeCensus:
    @pytest.fixture
    def count_encodes(self, monkeypatch):
        # An empty memo, so no earlier test's entries (or a bound-drop
        # part-way through the cell) change the count.
        monkeypatch.setattr(store_keys, "_PARTS", {})
        monkeypatch.setattr(store_keys, "_PART_OF_DATA", {})
        calls = []
        real = json.JSONEncoder.encode

        def counting(self, obj):
            calls.append(type(obj).__name__)
            return real(self, obj)

        monkeypatch.setattr(json.JSONEncoder, "encode", counting)
        return calls

    def _cell(self, rows):
        """``rows`` records of one cell over brand-new part objects."""
        spec = ProtocolSpec("quic", quic_config(34))
        scenario = Scenario("census", rate_mbps=10.0)
        page = WebPage("census", (WebObject(0, 1000), WebObject(1, 2000)))
        return [RunRecord(request=RunRequest(scenario=scenario, page=page,
                                             protocol=spec, seed=seed),
                          plt=seed / 7.0, complete=True,
                          metrics={"plt": seed / 7.0})
                for seed in range(rows)]

    def test_n_rows_cost_o_of_distinct_parts(self, tmp_path, count_encodes):
        store = ShardStore(tmp_path / "s")
        cell = self._cell(40)
        count_encodes.clear()
        for index, record in enumerate(cell):
            store.put(f"{index:064x}", record, fingerprint="fp",
                      created=float(index))
        # scenario, page, protocol, desktop: one encoding each, from
        # which both the line and the checksum take their text.
        assert len(count_encodes) == 4
        fresh = ShardStore(tmp_path / "s")
        for index, record in enumerate(cell):
            assert fresh.row(f"{index:064x}")[3] == json.loads(
                json.dumps(record_to_dict(record)))

    def test_rows_without_parts_take_the_stdlib_whole(self, count_encodes):
        decoded = [json.loads(json.dumps(record_to_dict(record)))
                   for record in self._cell(10)]
        count_encodes.clear()
        for record in decoded:
            encode_row("k", 1.0, "fp", record, check=True)
        assert count_encodes == ["dict"] * 10  # the line and its check
