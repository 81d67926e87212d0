"""Fuzzing the protocol dispatcher: every line gets one well-formed answer.

Hypothesis feeds :func:`repro.serve.handle_line` junk text, bytes with
invalid UTF-8 decoded the way the TCP front-end decodes them, arbitrary
JSON values and request objects whose fields have the wrong types.  Each
input must produce exactly one line of JSON: an object with a boolean
``"ok"`` and, when it is false, an error code from ``ERROR_CODES`` other
than ``internal`` (no input may reach the dispatcher's last-resort
handler).  The slot clock may advance only on a successful ``decide``,
and then by exactly one.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.serve import ERROR_CODES, DecisionServer, ServeConfig, handle_line

CONFIG = dict(
    controller="OL_GD",
    seed=11,
    horizon=8,
    n_stations=10,
    n_services=2,
    n_requests=6,
    n_hotspots=3,
    buffer_limit=3,
)

OPS = ["offer", "decide", "status", "ping", "checkpoint", "metrics", "nope"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

requests = st.fixed_dictionaries(
    {"op": st.sampled_from(OPS) | json_values},
    optional={"request": json_values, "volume_mb": json_values, "slot": json_values},
)

well_typed_offers = st.builds(
    lambda r, v: {"op": "offer", "request": r, "volume_mb": v},
    st.integers(min_value=-2, max_value=8),
    st.floats(min_value=-1.0, max_value=5.0) | st.just(1.0),
)

decides = st.builds(
    lambda slot: {"op": "decide", "slot": slot} if slot is not None else {"op": "decide"},
    st.none() | st.integers(min_value=-1, max_value=4),
)

lines = st.one_of(
    st.text(max_size=40),
    st.binary(max_size=40).map(lambda raw: raw.decode("utf-8", errors="replace")),
    json_values.map(json.dumps),
    requests.map(json.dumps),
    well_typed_offers.map(json.dumps),
    decides.map(json.dumps),
    st.integers(min_value=1, max_value=5000).map(lambda depth: "[" * depth + "]" * depth),
)


def test_every_line_gets_one_well_formed_answer():
    server = DecisionServer(ServeConfig(**CONFIG))
    server.start()

    @settings(max_examples=400, deadline=None, database=None)
    @given(line=lines)
    def check(line):
        before = server.slot
        answer = handle_line(server, line)
        assert "\n" not in answer
        response = json.loads(answer)
        assert isinstance(response, dict)
        assert isinstance(response["ok"], bool)
        if not response["ok"]:
            assert response["error"] in ERROR_CODES
            assert response["error"] != "internal", response
        if "placement" in response:
            assert response["ok"]
            assert server.slot == before + 1
        else:
            assert server.slot == before

    try:
        check()
    finally:
        server.stop()
