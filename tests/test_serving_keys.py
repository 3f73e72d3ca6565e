"""Canonical request keys and request parsing at the service boundary.

Three contracts are pinned here:

* ``cell_key`` addresses the on-disk sweep store, so its digests are golden
  values: changing them would orphan every stored cell;
* ``content_key`` (the in-memory result cache's key) is equal for every
  spelling of one request and different for any change of the question,
  down to the last bit of one value;
* ``parse_request`` either builds a canonical request or raises
  ``ValueError`` (which the HTTP front answers with ``400``) — never another
  exception, and never a silently coerced question.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import ExclusivePolicy, SharingPolicy, TwoLevelPolicy
from repro.core.values import SiteValues
from repro.serving import (
    CoverageTimeRequest,
    MechanismRequest,
    SolveRequest,
    SweepRequest,
    evaluate_one,
    parse_request,
    start_server,
)
from repro.utils.canonical import cell_key, content_key

# --------------------------------------------------------------------------
# cell_key: golden digests of the sweep store's addresses
# --------------------------------------------------------------------------
_TASK = "repro.analysis.sweeps.solve_cell"

GOLDEN_CELLS = {
    "scalars": (
        ("sweep", {"k": 3, "c": 0.25, "name": "exclusive", "flag": True, "none": None}, 0, 1),
        "888511a4421df7a3199ed83e0a8e119b5e9f4a72c62951b6472b5cf36cf5f8d2",
        "22565e420941dfd830e12453ac67f519e6691021d82a79f5db30fe462e6def7b",
    ),
    "sequences": (
        (
            "mechanism",
            {
                "k_grid": (2, 3, 5),
                "weights": [0.5, 0.25],
                "grid": np.array([[1.0, 2.0], [3.0, 4.0]]),
            },
            7,
            12,
        ),
        "c2a19f819384c1f80be537217c6887dc06e5c1893187f6e40e24af41f949c31f",
        "ad76a8074428696034ea2aa3ecff9f3777f4ef4c0a3c5f85fe97d250058ad2a3",
    ),
    "numpy_scalars": (
        ("dynamics", {"k": np.int64(4), "x": np.float64(0.1), "b": np.bool_(False)}, 11, 0),
        "37bf8cff9b31d4c979f48cce0a7fb54253cd8cb471e9478d7588caf91cfbc252",
        "f182ad5cde66589f5c244165e72c32af23f92a990e66461ec9cde7fb932adda9",
    ),
    "objects": (
        (
            "figure1",
            {
                "values": SiteValues.from_values([0.3, 1.0, 0.7]),
                "policy": TwoLevelPolicy(0.4),
                "roster": (ExclusivePolicy(), SharingPolicy()),
            },
            3,
            5,
        ),
        "cb64848331956812d16bd17379c0bdf2828cec030dcce462418a408360596e7e",
        "65f031fdf56671d541f10590848629aeba7529205d52bf794a861a51c44b8d7a",
    ),
    "mapping": (
        ("coverage-times", {"spec": {"b": 2, "a": (1, 2.5)}}, 0, 0),
        "89523e8a67eb99dbeb81a2caa9bd9e3a1d33dde601ab5b00e8e79603cf499cd7",
        "14234adfe5ea9e3cffaf9384d982fa78987e6505507c8a7973c55d4c2b9e58b0",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CELLS))
def test_cell_key_digests_are_golden(case):
    (family, params, seed, index), with_task, without_task = GOLDEN_CELLS[case]
    assert cell_key(family, params, seed, index, task=_TASK) == with_task
    assert cell_key(family, params, seed, index) == without_task


# --------------------------------------------------------------------------
# content_key: one key per question, whatever its spelling
# --------------------------------------------------------------------------
positive_floats = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
profiles = st.lists(positive_floats, min_size=1, max_size=40)


@given(values=profiles, data=st.data())
@settings(max_examples=80, deadline=None)
def test_content_key_equal_for_every_spelling(values, data):
    permuted = data.draw(st.permutations(values))
    spellings = [
        values,
        tuple(values),
        np.array(values),
        SiteValues.from_values(values),
        permuted,
        np.array(permuted),
    ]
    keys = {content_key("solve", spelling, k=3, policy="exclusive") for spelling in spellings}
    assert len(keys) == 1


@given(values=profiles, data=st.data())
@settings(max_examples=80, deadline=None)
def test_content_key_separates_one_ulp(values, data):
    index = data.draw(st.integers(0, len(values) - 1))
    nudged = list(values)
    nudged[index] = float(np.nextafter(nudged[index], np.inf))
    assert content_key("solve", nudged, k=3) != content_key("solve", values, k=3)


def test_content_key_separates_kind_and_params():
    values = [0.3, 1.0, 0.7]
    base = content_key("solve", values, k=3, policy="exclusive")
    others = [
        content_key("sweep", values, k=3, policy="exclusive"),
        content_key("solve", values, k=4, policy="exclusive"),
        content_key("solve", values, k=3, policy="sharing"),
        content_key("solve", values, k=3.0, policy="exclusive"),  # int and float differ
        content_key("solve", values, k="3", policy="exclusive"),
        content_key("solve", values, kk=3, policy="exclusive"),
        content_key("solve", values, k=3),
        content_key("solve", values[:2], k=3, policy="exclusive"),
    ]
    assert len({base, *others}) == len(others) + 1


def test_content_key_sequence_params_spellings():
    grid = (2, 3, 5)
    keys = {
        content_key("sweep", [1.0, 0.5], k_grid=spelling)
        for spelling in (grid, list(grid), np.array(grid), tuple(np.int64(k) for k in grid))
    }
    assert len(keys) == 1
    assert content_key("sweep", [1.0, 0.5], k_grid=(2, 3)) not in keys


def test_content_key_of_distributions_with_zeros():
    key = content_key("coverage-times", [0.5, 0.0, 0.5], k=2, times=(), j=0)
    assert key == content_key("coverage-times", (0.0, 0.5, 0.5), k=2, times=(), j=0)
    assert key != content_key("coverage-times", [0.5, 0.5], k=2, times=(), j=0)
    request = CoverageTimeRequest([0.7, 0.3, 0.0], k=2)
    assert request.cache_key == CoverageTimeRequest([0.0, 0.3, 0.7], k=2).cache_key
    assert request.cache_key != CoverageTimeRequest([0.7, 0.3], k=2).cache_key


def test_distribution_has_one_zero():
    """-0.0 and 0.0 are one request: same key and the same echoed distribution."""
    negative = CoverageTimeRequest([0.5, -0.0, 0.5], k=2)
    positive = CoverageTimeRequest(np.array([0.5, 0.5, 0.0]), k=2)
    assert negative.cache_key == positive.cache_key
    assert np.array(negative.values).tobytes() == np.array(positive.values).tobytes()
    assert math.copysign(1.0, negative.values[-1]) == 1.0


def test_request_cache_key_is_the_content_key():
    request = SweepRequest([0.3, 1.0, 0.7], k_grid=[5, 2, 3, 2])
    assert request.cache_key == content_key("sweep", [1.0, 0.7, 0.3], k_grid=(2, 3, 5))
    assert request.site_values is request.site_values  # built once, at construction
    assert request.site_values.as_array().tolist() == list(request.values)


# --------------------------------------------------------------------------
# parse_request: canonical requests or ValueError
# --------------------------------------------------------------------------
def _payload(kind: str, values, draw) -> dict:
    if kind == "solve":
        return {"values": values, "k": draw(st.integers(1, 50)),
                "policy": draw(st.sampled_from(["exclusive", "sharing"]))}
    if kind == "sweep":
        grid = draw(st.lists(st.integers(1, 60), min_size=1, max_size=8))
        return {"values": values, "k_grid": grid}
    return {"values": values, "k": draw(st.integers(1, 8)),
            "policies": draw(st.lists(st.sampled_from(["exclusive", "sharing", "constant"]),
                                      min_size=1, max_size=4))}


def _respelled(payload: dict, draw) -> dict:
    """The same question: every list permuted, ``k`` spelled as a float."""
    other = {name: draw(st.permutations(value)) if isinstance(value, list) else value
             for name, value in payload.items()}
    if "k" in other:
        other["k"] = float(other["k"])
    return other


@given(kind=st.sampled_from(["solve", "sweep", "mechanism"]), values=profiles, data=st.data())
@settings(max_examples=80, deadline=None)
def test_parse_request_respellings_are_one_request(kind, values, data):
    payload = _payload(kind, values, data.draw)
    request = parse_request(kind, payload)
    other = parse_request(kind, _respelled(payload, data.draw))
    assert other == request
    assert other.cache_key == request.cache_key
    assert list(request.values) == sorted(values, reverse=True)


bad_values = st.one_of(
    st.just([]),
    st.lists(positive_floats, max_size=5).map(lambda v: v + [math.nan]),
    st.lists(positive_floats, max_size=5).map(lambda v: [math.inf] + v),
    st.lists(positive_floats, max_size=5).map(lambda v: v + [-1.0]),
    st.lists(positive_floats, max_size=5).map(lambda v: [0.0] + v),
    st.lists(st.text(max_size=3), min_size=1, max_size=3),
    st.lists(positive_floats, max_size=5).flatmap(
        lambda v: st.permutations(v + [True]) | st.permutations(v + [False])
    ),
    st.sampled_from([[True, 0.5], [0.5, False], [np.True_, 0.5]]),
    st.sampled_from(["abc", None, True, 3.5, {"a": 1.0}, [[1.0, 2.0]], [None], [[]]]),
)
bad_counts = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not float(x).is_integer()),
    st.booleans(),
    st.text(max_size=3),
    st.integers(max_value=0),
    st.sampled_from([None, [3], {"k": 3}]),
)


@given(kind=st.sampled_from(["solve", "sweep", "mechanism"]), values=bad_values, data=st.data())
@settings(max_examples=80, deadline=None)
def test_parse_request_bad_values_raise_value_error(kind, values, data):
    payload = _payload(kind, [1.0, 0.5], data.draw)
    payload["values"] = values
    with pytest.raises(ValueError):
        parse_request(kind, payload)


@given(kind=st.sampled_from(["solve", "mechanism", "coverage-times"]), k=bad_counts)
@settings(max_examples=80, deadline=None)
def test_parse_request_bad_k_raises_value_error(kind, k):
    with pytest.raises(ValueError):
        parse_request(kind, {"values": [0.6, 0.4], "k": k})


class TestIntegerFields:
    """``k`` and ``j`` are counts: integral floats pass, nothing else is coerced."""

    @pytest.mark.parametrize("kind", ["solve", "mechanism", "coverage-times"])
    @pytest.mark.parametrize("k", [2.5, True, False, "3", 1e-9])
    def test_non_integral_k_is_rejected(self, kind, k):
        with pytest.raises(ValueError, match="k must be"):
            parse_request(kind, {"values": [0.6, 0.4], "k": k})

    @pytest.mark.parametrize("kind", ["solve", "mechanism", "coverage-times"])
    def test_integral_float_k_is_accepted(self, kind):
        request = parse_request(kind, {"values": [0.6, 0.4], "k": 3.0})
        assert request.k == 3 and type(request.k) is int
        assert request == parse_request(kind, {"values": [0.6, 0.4], "k": 3})
        assert request.cache_key == parse_request(kind, {"values": [0.6, 0.4], "k": 3}).cache_key

    @pytest.mark.parametrize("j", [1.7, True, "1", -1])
    def test_non_integral_j_is_rejected(self, j):
        with pytest.raises(ValueError, match="j must be"):
            parse_request("coverage-times", {"values": [0.6, 0.4], "k": 2, "j": j})

    def test_integral_float_j_is_accepted(self):
        request = parse_request("coverage-times", {"values": [0.6, 0.4], "k": 2, "j": 2.0})
        assert request.j == 2 and type(request.j) is int

    def test_direct_construction_rejects_too(self):
        for build in (
            lambda: SolveRequest([1.0, 0.5], k=2.5),
            lambda: MechanismRequest([1.0, 0.5], k=True),
            lambda: CoverageTimeRequest([0.5, 0.5], k=2, j=1.7),
        ):
            with pytest.raises(ValueError):
                build()

    def test_http_answers_400_for_a_fractional_k(self):
        async def run():
            async with await start_server("127.0.0.1", 0, max_wait_ms=1.0) as running:
                answers = []
                for k in ("2.5", "true", '"3"', "3.0"):
                    body = ('{"values": [1.0, 0.5, 0.25], "k": %s}' % k).encode()
                    reader, writer = await asyncio.open_connection("127.0.0.1", running.port)
                    writer.write(
                        b"POST /solve HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    head, _, payload = raw.partition(b"\r\n\r\n")
                    answers.append((int(head.split()[1]), json.loads(payload)))
                return answers

        fractional, boolean, string, integral = asyncio.run(run())
        for status, payload in (fractional, boolean, string):
            assert status == 400 and "k must be an integer" in payload["error"]
        assert integral == (200, evaluate_one(SolveRequest([1.0, 0.5, 0.25], k=3)))
