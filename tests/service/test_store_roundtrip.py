"""Property-based round trips for the result store.

Two claims the daemon's correctness leans on, checked with Hypothesis
rather than a handful of examples:

1. **Bit-exact persistence** — any storable :class:`StoredResult`
   survives ``to_dict -> json -> from_dict`` and a full file-backed
   store restart without losing a single bit of any float (Python's
   ``json`` writes ``repr(float)``, the shortest round-tripping form),
   so a restored SAT witness replays to exactly the recorded outputs.

2. **Replay semantics** — an arbitrary interleaving of puts and
   invalidations replayed from the JSONL log reconstructs exactly the
   in-memory map (last writer wins, tombstones evict).
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ResultStore, StoredResult
from repro.service.store import StoreKey

_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)


@st.composite
def stored_results(draw):
    sat = draw(st.booleans())
    witness = (
        draw(st.lists(_floats, min_size=1, max_size=6)) if sat else None
    )
    return StoredResult(
        verdict=draw(
            st.sampled_from(["safe", "conditionally-safe", "unsafe-in-set"])
        ),
        solver_status=draw(st.sampled_from(["optimal", "infeasible", "unknown"])),
        decided_by=draw(_names),
        monitored=draw(st.booleans()),
        feature_set_kind=draw(st.sampled_from(["box", "box+diff", "input-region"])),
        elapsed=draw(_floats.filter(lambda v: v >= 0.0)),
        ladder=tuple(draw(st.lists(_names, max_size=4))),
        counterexample_features=tuple(witness) if witness else None,
        counterexample_output=(
            tuple(draw(st.lists(_floats, min_size=1, max_size=3)))
            if witness
            else None
        ),
        risk_margin=draw(_floats) if sat and draw(st.booleans()) else None,
        characterizer_logit=draw(_floats) if sat and draw(st.booleans()) else None,
    )


@st.composite
def store_keys(draw):
    return StoreKey(
        model=draw(_names),
        query=draw(_names),
        domain=draw(st.sampled_from(["interval", "zonotope", "none"])),
        method=draw(st.sampled_from(["exact", "relaxed", "cegar"])),
    )


@settings(max_examples=80, deadline=None)
@given(result=stored_results())
def test_stored_result_json_round_trip_is_bit_exact(result):
    restored = StoredResult.from_dict(
        json.loads(json.dumps(result.to_dict()))
    )
    # dataclass equality compares every float by value; == on floats is
    # bitwise for non-NaN doubles, so this pins bit-exactness
    assert restored == result


@settings(max_examples=25, deadline=None)
@given(
    entries=st.lists(
        st.tuples(store_keys(), stored_results()), min_size=1, max_size=8
    )
)
def test_file_backed_store_restart_is_bit_exact(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("store") / "results.jsonl"
    store = ResultStore(path)
    for key, result in entries:
        store.put(key, result)
    reloaded = ResultStore(path)
    assert set(reloaded.keys()) == {key for key, _ in entries}
    for key, result in entries:
        # last writer wins on duplicate keys
        if store._entries[key] is result:
            assert reloaded._entries[key] == result
    assert reloaded._entries == store._entries


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("put"), store_keys(), stored_results()),
            st.tuples(st.just("invalidate"), _names),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_replay_of_interleaved_puts_and_tombstones(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("store") / "results.jsonl"
    store = ResultStore(path)
    shadow: dict[StoreKey, StoredResult] = {}
    for op in ops:
        if op[0] == "put":
            _, key, result = op
            store.put(key, result)
            shadow[key] = result
        else:
            _, model = op
            store.invalidate(model)
            shadow = {k: v for k, v in shadow.items() if k.model != model}
    reloaded = ResultStore(path)
    assert reloaded._entries == shadow
    assert reloaded.model_digests() == sorted({k.model for k in shadow})
