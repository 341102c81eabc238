"""NodeIntMap must behave exactly like the dict it replaced.

The coherence hot path (copysets, applied/notified maps) was converted
from per-page dicts to bitset-backed flat arrays; golden bit-identity
depends on the replacement preserving dict semantics *including
insertion order* (pending-writer iteration order feeds diff-request
issue order).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.compact import NodeIntMap


def test_basic_dict_semantics():
    m = NodeIntMap()
    assert 3 not in m
    assert m.get(3) == 0  # the coherence maps' default watermark
    assert m.get(3, -1) == -1
    m[3] = 7
    assert 3 in m
    assert m[3] == 7
    m[3] = 9  # overwrite in place
    assert m[3] == 9
    m[0] = 1
    assert list(m.items()) == [(3, 9), (0, 1)]
    assert list(m.keys()) == [3, 0]
    assert list(m.values()) == [9, 1]
    assert list(m) == [3, 0]
    assert len(m) == 2
    assert m.as_dict() == {3: 9, 0: 1}
    m.clear()
    assert len(m) == 0
    assert 3 not in m


def test_equality_with_dict_and_each_other():
    m = NodeIntMap()
    m[5] = 2
    m[1] = 4
    assert m == {5: 2, 1: 4}
    assert m == {1: 4, 5: 2}  # dict equality ignores order
    other = NodeIntMap()
    other[1] = 4
    other[5] = 2
    assert m == other
    other[5] = 3
    assert m != other


ops = st.lists(
    st.tuples(st.sampled_from(["set", "get", "contains"]),
              st.integers(0, 300), st.integers(0, 1 << 40)),
    max_size=60)


@given(ops=ops)
@settings(max_examples=100, deadline=None)
def test_matches_dict_model_including_order(ops):
    model = {}
    m = NodeIntMap()
    for op, key, value in ops:
        if op == "set":
            model[key] = value
            m[key] = value
        elif op == "get":
            assert m.get(key, -7) == model.get(key, -7)
        else:
            assert (key in m) == (key in model)
    # Iteration order must equal dict insertion order exactly.
    assert list(m.items()) == list(model.items())
    assert m.as_dict() == model
    assert m == model


@given(ops=st.lists(st.tuples(st.integers(0, 300), st.integers(-1, 6)),
                    max_size=60))
@settings(max_examples=100, deadline=None)
def test_raise_to_is_the_guarded_watermark_update(ops):
    model = {}
    m = NodeIntMap()
    for key, value in ops:
        raised = value > model.get(key, 0)
        if raised:
            model[key] = value
        assert m.raise_to(key, value) == raised
    assert list(m.items()) == list(model.items())


def test_node_ids_are_sixteen_bit():
    m = NodeIntMap()
    m[65535] = 1
    assert m[65535] == 1
    with pytest.raises(OverflowError):
        m[65536] = 1
    assert 65536 not in m and len(m) == 1


def test_compact_beats_dict_equivalent_at_scale():
    m = NodeIntMap()
    for node in range(256):
        m[node] = node * 17
    assert m.nbytes() < m.dict_equiv_nbytes()
    # The advantage grows with membership: both columns are flat
    # machine-word arrays, the dict-equivalent charges per-entry boxes.
    small = NodeIntMap()
    small[0] = 1
    ratio_small = small.nbytes() / small.dict_equiv_nbytes()
    ratio_big = m.nbytes() / m.dict_equiv_nbytes()
    assert ratio_big < ratio_small
