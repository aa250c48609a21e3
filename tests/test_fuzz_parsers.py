"""Fuzzing the text-facing parsers: they must reject garbage, not crash.

Every user-facing parser (cycle notation, gate names, pattern strings,
memory budgets, circuit records) either returns a valid object or raises a library error
-- never an unhandled TypeError/IndexError/ValueError from internals.
Cycle notation and cycle lists are also checked against a reference
parser: the same permutation, or the same error type and message.
The fleet router's reply handling is fuzzed on the wire: it forwards a
replica's result bytes only for the exact reply shape, and answers any
other reply line as it would with no forwarding at all.
"""

import asyncio
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.fleet.router as router_module
from repro.errors import InvalidPermutationError, ReproError
from repro.core.circuit import Circuit
from repro.core.dedup import parse_budget
from repro.fleet.router import RouterService
from repro.gates.gate import Gate
from repro.io import circuit_from_dict
from repro.mvl.patterns import pattern_from_string
from repro.perm.permutation import Permutation
from repro.server.protocol import Request, encode_response, http_response
from repro.telemetry import validate_trace_field

LIBRARY_ERRORS = (ReproError,)

text = st.text(
    alphabet=st.sampled_from(list("()0123456789,VF+_ABC vx")), max_size=24
)


class TestCycleStringFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            perm = Permutation.from_cycle_string(8, text)
        except LIBRARY_ERRORS:
            return
        # On success the result must round-trip semantically.
        assert perm.degree == 8
        again = Permutation.from_cycle_string(8, perm.cycle_string())
        assert again == perm

    @given(degree=st.integers(min_value=1, max_value=64), text=text)
    @settings(max_examples=200, deadline=None)
    def test_any_degree(self, degree, text):
        try:
            perm = Permutation.from_cycle_string(degree, text)
        except LIBRARY_ERRORS:
            return
        assert perm.degree == degree

    @given(
        degree=st.integers(min_value=0, max_value=40),
        cycles=st.lists(
            st.lists(st.integers(min_value=-2, max_value=42), max_size=5),
            max_size=4,
        ),
        one_based=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_from_cycles_matches_reference(self, degree, cycles, one_based):
        assert _outcome(
            Permutation.from_cycles, degree, cycles, one_based
        ) == _outcome(_reference_from_cycles, degree, cycles, one_based)

    @given(
        degree=st.integers(min_value=0, max_value=40),
        cycles=st.lists(
            st.lists(
                st.integers(min_value=-2, max_value=42), min_size=1, max_size=5
            ),
            min_size=1,
            max_size=4,
        ),
        junk=st.sampled_from(["", "x", ",", "(", ")", "-", "+"]),
        at=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=400, deadline=None)
    def test_cycle_string_matches_reference(self, degree, cycles, junk, at):
        text = "".join(
            "(" + ",".join(map(str, cycle)) + ")" for cycle in cycles
        )
        text = text[:at] + junk + text[at:]
        expected = _outcome(_reference_from_cycle_string, degree, text)
        assert _outcome(Permutation.from_cycle_string, degree, text) == expected


def _outcome(parse, *args):
    try:
        return "ok", parse(*args).images
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _reference_from_cycles(degree, cycles, one_based=True):
    """Cycles to a permutation with a set of touched points and a modulo
    step: the first point (in input order) out of range or seen before
    raises."""
    offset = 1 if one_based else 0
    images = list(range(degree))
    touched = set()
    for cycle in cycles:
        pts = [p - offset for p in cycle]
        for p in pts:
            if not 0 <= p < degree:
                raise InvalidPermutationError(
                    f"cycle point {p + offset} out of range for degree {degree}"
                )
            if p in touched:
                raise InvalidPermutationError(
                    f"point {p + offset} appears in two cycles"
                )
            touched.add(p)
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return Permutation(bytes(images))


def _reference_from_cycle_string(degree, text):
    """Cycle notation parsed whole before any point is checked, so a
    syntax error anywhere wins over a range or repeat error."""
    text = text.strip().replace(" ", "")
    if text in ("()", ""):
        return Permutation.identity(degree)
    if not (text.startswith("(") and text.endswith(")")):
        raise InvalidPermutationError(f"bad cycle string {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        try:
            cycles.append([int(p) for p in chunk.split(",")])
        except ValueError:
            raise InvalidPermutationError(f"bad cycle string {text!r}") from None
    return _reference_from_cycles(degree, cycles)


class TestGateNameFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            gate = Gate.from_name(text, 3)
        except LIBRARY_ERRORS:
            return
        assert gate.name == text.strip() or gate.name  # well-formed result

    @given(text=text)
    @settings(max_examples=150, deadline=None)
    def test_circuit_from_names(self, text):
        try:
            circuit = Circuit.from_names(text, 3)
        except LIBRARY_ERRORS:
            return
        assert circuit.n_qubits == 3


class TestPatternStringFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            pattern = pattern_from_string(text)
        except LIBRARY_ERRORS:
            return
        assert pattern.n_qubits >= 1


budget_text = st.text(
    alphabet=st.sampled_from(list("0123456789.e+- kmgibKMGIBnaftyNAFTY")),
    max_size=16,
)


class TestBudgetStringFuzz:
    @given(text=budget_text)
    @example(text="nan")
    @example(text="inf")
    @example(text="-Infinity")
    @example(text="1e400")
    @example(text="1e308G")
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        """``--dedup-budget`` values: a byte count or a library error."""
        try:
            budget = parse_budget(text)
        except LIBRARY_ERRORS:
            return
        assert isinstance(budget, int) and budget >= 0


class TestScenarioSpecFuzz:
    """Scenario specs are checked-in config: a typo'd field, negative
    rate or unknown op must fail a CI job with a one-line
    SpecificationError, never an internal traceback."""

    _scalar = st.one_of(
        st.none(), st.booleans(),
        st.integers(-10, 10**6),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=12),
        st.lists(st.text(max_size=8), max_size=3),
    )

    @given(
        data=st.dictionaries(
            st.sampled_from([
                "name", "seed", "requests", "concurrency", "targets",
                "batch_size", "arrival", "ops", "stores", "params",
                "slo", "rate", "bogus_field",
            ]),
            _scalar,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_top_level_garbage_rejected_cleanly(self, data):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario(data)
        except LIBRARY_ERRORS:
            return
        assert spec.name and spec.requests >= 1

    @given(
        ops=st.dictionaries(
            st.sampled_from([
                "synth", "synth-batch", "cost-table", "healthz",
                "synthh", "", "delete-store",
            ]),
            st.one_of(
                st.integers(-5, 5),
                st.floats(allow_nan=True, allow_infinity=True),
                st.booleans(), st.text(max_size=4),
            ),
            max_size=4,
        ),
        arrival=st.dictionaries(
            st.sampled_from(["shape", "rate", "burst", "pause", "jitter"]),
            st.one_of(
                st.sampled_from(["closed", "steady", "bursty", "poisson"]),
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-10, 10),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_ops_and_arrival_tables(self, ops, arrival):
        from repro.scenario import parse_scenario

        data = {
            "name": "fuzz", "targets": ["peres"],
            "ops": ops, "arrival": arrival,
        }
        try:
            spec = parse_scenario(data)
        except LIBRARY_ERRORS:
            return
        # Accepted specs are internally consistent: known ops only,
        # positive total weight, a legal arrival shape.
        assert all(op in ("synth", "synth-batch", "cost-table",
                          "healthz", "store-info") for op, _w in spec.ops)
        assert any(weight > 0 for _op, weight in spec.ops)
        assert spec.arrival.shape in ("closed", "steady", "bursty")

    @given(targets=st.lists(text, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_target_pool_garbage(self, targets):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario({"name": "fuzz", "targets": targets})
        except LIBRARY_ERRORS:
            return
        assert len(spec.targets) == len(targets)

    @given(
        slo=st.dictionaries(
            st.sampled_from([
                "p50_ms", "p99_ms", "max_error_rate", "max_shed_rate",
                "allowed_error_codes", "p75_ms",
            ]),
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-5, 5), st.booleans(),
                st.lists(st.text(max_size=6), max_size=3),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_slo_table_garbage(self, slo):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario(
                {"name": "fuzz", "targets": ["peres"], "slo": slo}
            )
        except LIBRARY_ERRORS:
            return
        for bar in (spec.slo.max_error_rate, spec.slo.max_shed_rate):
            assert bar is None or 0 <= bar <= 1


class TestCircuitRecordFuzz:
    @given(
        record=st.fixed_dictionaries(
            {},
            optional={
                "n_qubits": st.one_of(st.integers(-2, 5), st.text(max_size=3)),
                "gates": st.lists(text, max_size=4),
            },
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_malformed_records_rejected_cleanly(self, record):
        try:
            circuit = circuit_from_dict(record)
        except LIBRARY_ERRORS:
            return
        assert isinstance(circuit, Circuit)


# -- wire: the fleet router's reply forwarding ------------------------------------------

_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
)
_json_value = st.recursive(
    _json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)
_results = st.dictionaries(st.text(max_size=8), _json_value, max_size=5)
_client_ids = st.one_of(
    st.none(), st.integers(-10**6, 10**6), st.text(max_size=8),
    st.lists(st.integers(0, 9), max_size=3),
)


def _valid_trace(value: str) -> bool:
    try:
        validate_trace_field(value, "trace_id")
    except ReproError:
        return False
    return True


_trace_ids = st.text(min_size=1, max_size=24).filter(_valid_trace)


def _compact(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode()


def _loads_only(reply, request_id, trace_id):
    """The router's reply handling before result forwarding: one
    ``json.loads`` of the whole line, never a forwarded span."""
    response = json.loads(reply)
    if not isinstance(response, dict):
        raise ValueError("backend response is not a JSON object")
    return response, None


def _route_once(reply_for, client_id, trace_id):
    """Route one ``synth`` through a one-backend router whose backend
    answers ``reply_for(sent_id, sent_trace)`` on a stream; returns the
    handle() result and the client-visible NDJSON line (or the raised
    exception's type and message)."""

    class Writer:
        def __init__(self, reader):
            self.reader = reader

        def write(self, line):
            sent = json.loads(line)
            self.reader.feed_data(reply_for(sent["id"], sent["trace_id"]))
            self.reader.feed_eof()

        async def drain(self):
            return None

        def is_closing(self):
            return False

        def close(self):
            return None

    async def run():
        router = RouterService(
            {"b0": "unix:/nonexistent.sock"}, retries=0, backoff=0
        )
        backend = router.backend("b0")

        async def acquire():
            reader = asyncio.StreamReader()
            return reader, Writer(reader)

        backend.acquire = acquire
        request = Request(
            op="synth", params={"target": "peres"}, id=client_id,
            trace_id=trace_id,
        )
        try:
            result = await router.handle(request)
        except ReproError as exc:
            return None, (type(exc), str(exc))
        return result, encode_response(client_id, result, trace_id=trace_id)

    return asyncio.run(run())


def _mutate(data, head: bytes, span: bytes, tail: bytes, envelope: dict):
    """One reply-line mutation that leaves the result object's bytes
    alone: truncation, reordered or extra keys, a changed envelope
    value, whitespace, or a changed byte outside the result span."""
    kind = data.draw(st.sampled_from(
        ["truncate", "reorder", "extra", "value", "space", "byte"]
    ))
    line = head + span + tail
    # Byte offsets outside the result span (where the envelope lives).
    outside = [*range(len(head)), *range(len(head) + len(span), len(line))]
    if kind == "truncate":
        cut = data.draw(st.integers(0, len(line) - 1))
        return line[:cut] + data.draw(st.sampled_from([b"", b"\n"]))
    if kind == "reorder":
        keys = list(envelope)
        order = data.draw(st.permutations(keys).filter(lambda p: p != keys))
        return _compact({key: envelope[key] for key in order}) + b"\n"
    if kind == "extra":
        pairs = list(envelope.items())
        key = data.draw(st.one_of(
            st.sampled_from(["id", "ok", "result", "trace_id", "error"]),
            st.text(max_size=6),
        ))
        at = data.draw(st.integers(0, len(pairs)))
        pairs.insert(at, (key, data.draw(_json_value)))
        return b"{" + b",".join(
            _compact(k) + b":" + _compact(v) for k, v in pairs
        ) + b"}\n"
    if kind == "value":
        key = data.draw(st.sampled_from(["id", "ok", "trace_id"]))
        changed = dict(envelope)
        if data.draw(st.booleans()):
            del changed[key]
        else:
            changed[key] = data.draw(
                _json_value.filter(lambda v: v != envelope[key])
            )
        return _compact(changed) + b"\n"
    at = data.draw(st.sampled_from(outside))
    if kind == "space":
        blank = data.draw(st.sampled_from([b" ", b"\t", b"\r"]))
        return line[:at] + blank + line[at:]
    new = data.draw(st.integers(0, 255).filter(lambda b: b != line[at]))
    return line[:at] + bytes([new]) + line[at + 1:]


class TestRouterReplyForwardingFuzz:
    """The router forwards a replica's result bytes only for a reply
    line of the exact shape ``{"id":<sent>,"ok":true,"result":{...}
    [,"trace_id":<sent>]}``; every other line takes the re-encode path
    or is a fault, with the same client-visible outcome as before
    forwarding existed."""

    @given(result=_results, client_id=_client_ids, trace_id=_trace_ids)
    @settings(max_examples=100, deadline=None)
    def test_forwarded_line_equals_the_encoded_result(
        self, result, client_id, trace_id
    ):
        def reply(sent_id, sent_trace):
            return encode_response(sent_id, result, trace_id=sent_trace)

        forwarded, line = _route_once(reply, client_id, trace_id)
        assert isinstance(forwarded, bytes)
        assert line == encode_response(client_id, result, trace_id=trace_id)
        assert http_response(200, forwarded) == http_response(200, result)

    @given(
        result=_results, client_id=_client_ids, trace_id=_trace_ids,
        data=st.data(),
    )
    @settings(max_examples=250, deadline=None)
    def test_mutated_reply_is_never_forwarded_raw(
        self, result, client_id, trace_id, data
    ):
        mutations = {}

        def reply(sent_id, sent_trace):
            key = (sent_id, sent_trace)
            if key not in mutations:
                envelope = {
                    "id": sent_id, "ok": True, "result": result,
                    "trace_id": sent_trace,
                }
                head = b'{"id":%d,"ok":true,"result":' % sent_id
                span = _compact(result)
                tail = b',"trace_id":' + _compact(sent_trace) + b"}\n"
                mutations[key] = _mutate(data, head, span, tail, envelope)
            return mutations[key]

        forwarded, got = _route_once(reply, client_id, trace_id)
        with mock.patch.object(router_module, "_parse_reply", _loads_only):
            _before, want = _route_once(reply, client_id, trace_id)
        assert got == want
        (sent_id, sent_trace), = mutations
        exact = {
            encode_response(sent_id, result, trace_id=sent_trace),
            encode_response(sent_id, result),
        }
        line = mutations[sent_id, sent_trace]
        first = line.split(b"\n", 1)[0] + b"\n" if b"\n" in line else line
        assert isinstance(forwarded, bytes) == (first in exact)
