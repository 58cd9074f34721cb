from __future__ import annotations

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hyp
from oraclebench.errors import (
    ClassFileError,
    ContradictorySample,
    EmptyClass,
    PointError,
)
from oraclebench import hypotheses
from oraclebench.hypotheses import (
    MASK_WIDTH,
    Hypothesis,
    HypothesisClass,
    Sample,
    distinct,
    is_consistent,
    load_class_file,
    mask_points,
    save_class_file,
)


def _from_table(name: str, table: dict) -> Hypothesis:
    """The one member of the class that ``from_rows`` reads from a table."""
    (h,) = HypothesisClass.from_rows(table, [(name, "".join(map(str, table.values())))])
    return h


def test_evaluate_table_lookup() -> None:
    h = _from_table("h", {0: 1, 1: 0})
    assert h(0) == 1
    assert h(1) == 0


def test_evaluate_default_zero_outside_domain() -> None:
    h = _from_table("h", {0: 1, 1: 0})
    assert h(99) == 0


def test_hypothesis_validation() -> None:
    for support in (True, -1, 1 << MASK_WIDTH, 0.0, "1"):
        with pytest.raises(PointError) as info:
            Hypothesis("bad", support)
        assert str(info.value) == f"hypothesis 'bad': support is not a mask below 2^{MASK_WIDTH}"
    assert Hypothesis("top", (1 << MASK_WIDTH) - 1)(MASK_WIDTH - 1) == 1


@pytest.mark.parametrize("domain, values, error, text", [
    ((0, 1), "1", ValueError, "hypothesis 'bad': 1 values for 2 domain points"),
    ((0, 0), "10", PointError, "domain: duplicate point 0"),
    ((0,), "2", ValueError, "hypothesis 'bad': 'values' must be a string of 0/1"),
    ((-1,), "0", PointError, "domain: negative point -1"),
], ids=["length", "duplicate point", "non-bit", "negative point"])
def test_from_rows_validation(domain, values, error, text) -> None:
    with pytest.raises(error) as info:
        HypothesisClass.from_rows(domain, [("bad", values)])
    assert str(info.value) == text


def test_repr_shows_the_name_and_the_hex_support_without_building_views() -> None:
    h = Hypothesis("f3", support=0x1A)
    assert repr(h) == "Hypothesis('f3', support=0x1a)"
    assert repr(Hypothesis("zero", support=0)) == "Hypothesis('zero', support=0x0)"
    assert not hasattr(h, "_views")


def test_a_hypothesis_is_slotted_and_copies_carry_no_views() -> None:
    h = Hypothesis("f", support=0b1011)
    assert not hasattr(h, "__dict__")
    assert h.domain == (0, 1, 3) and hasattr(h, "_views")
    for c in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert type(c) is Hypothesis and c is not h
        assert (c.name, c.support) == ("f", 0b1011)
        assert not hasattr(c, "_views")
        # its first read copies the live twin's views
        assert c.domain is h.domain and c.values is h.values


def test_extensional_equality_ignores_names_and_zero_padding() -> None:
    a = _from_table("a", {0: 1, 1: 0, 5: 0})
    b = _from_table("b", {0: 1})
    assert a == b
    assert hash(a) == hash(b)
    assert a != _from_table("c", {0: 1, 1: 1})


@given(
    ones_a=st.frozensets(st.integers(0, 6)),
    ones_b=st.frozensets(st.integers(0, 6)),
    pad_a=st.frozensets(st.integers(0, 9)),
    pad_b=st.frozensets(st.integers(0, 9)),
)
def test_equality_is_agreement_on_domain_union(ones_a, ones_b, pad_a, pad_b) -> None:
    def table(name, ones, domain):
        return _from_table(name, {x: int(x in ones) for x in sorted(domain)})

    a = table("a", ones_a, ones_a | pad_a)
    b = table("b", ones_b, ones_b | pad_b)
    union = ones_a | pad_a | ones_b | pad_b
    agree = all(a(x) == b(x) for x in union)
    assert (a == b) == agree


def test_is_consistent_examples() -> None:
    zero = Hypothesis("zero", 0)
    assert is_consistent(zero, Sample(((3, 0), (7, 0))))
    assert not is_consistent(zero, Sample(((3, 1),)))
    one_at_0 = Hypothesis("h", 0b1)
    assert is_consistent(one_at_0, Sample(((0, 1), (5, 0))))


def test_sample_rejects_contradiction() -> None:
    with pytest.raises(ContradictorySample):
        Sample(((2, 1), (2, 0)))
    s = Sample(((2, 1), (2, 1), (5, 0)))
    assert s.ones == 0b100
    assert s.zeros == 0b100000
    assert len(s) == 3


def test_a_repeated_pair_counts_twice_with_the_masks_of_one() -> None:
    twice, once = Sample(((4, 1), (4, 1))), Sample(((4, 1),))
    assert (len(twice), len(once)) == (2, 1)
    assert (twice.ones, twice.zeros) == (once.ones, once.zeros) == (0b10000, 0)
    assert not hasattr(twice, "pairs")


def test_sample_rejects_non_bit_labels() -> None:
    with pytest.raises(ValueError):
        Sample(((0, 2),))


def test_minimal_extension_examples() -> None:
    h = Hypothesis("ext", support=Sample(((2, 1), (5, 0))).ones)
    assert h(2) == 1 and h(5) == 0 and h(7) == 0
    assert h.support == 0b100
    assert Hypothesis("ext", support=Sample(()).ones).support == 0


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 1)), max_size=8))
def test_minimal_extension_is_consistent(pairs) -> None:
    labels = {}
    deduped = Sample(tuple((x, y) for x, y in pairs if labels.setdefault(x, y) == y))
    h = Hypothesis("ext", support=deduped.ones)
    assert is_consistent(h, deduped)


def test_class_requires_shared_domain_and_nonempty() -> None:
    with pytest.raises(EmptyClass):
        HypothesisClass((0,), ())
    with pytest.raises(ValueError, match="class domain"):
        HypothesisClass((0, 1), (hyp("a", "1", domain=(2,)),))


def test_class_distinct_preserves_order() -> None:
    c = HypothesisClass.from_rows([0], [("a", "1"), ("b", "0"), ("c", "1")])
    assert [h.name for h in distinct(c)] == ["a", "b"]


def test_class_file_round_trip(tmp_path) -> None:
    c = HypothesisClass.from_rows([0, 1, 2], [("a", "010"), ("b", "111")])
    path = tmp_path / "cls.json"
    save_class_file(c, path)
    loaded = load_class_file(path)
    assert loaded.domain == c.domain
    assert [h.name for h in loaded] == ["a", "b"]
    assert tuple(loaded.hypotheses) == tuple(c.hypotheses)
    # seeded classes on shuffled domains, points past the first 0..n-1 included
    rng = random.Random(21)
    for _ in range(30):
        domain = rng.sample(range(40), rng.randint(0, 12))
        c = HypothesisClass.from_rows(domain, [
            (f"h{i}", "".join(rng.choice("01") for _ in domain)) for i in range(rng.randint(1, 6))
        ])
        save_class_file(c, path)
        loaded = load_class_file(path)
        assert loaded.domain == c.domain
        assert [(h.name, h.support) for h in loaded] == [(h.name, h.support) for h in c]


def test_class_file_errors_name_the_offender(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"domain": [0, 1], "hypotheses": [{"name": "oops", "values": "柏"}]}))
    with pytest.raises(ClassFileError, match="oops"):
        load_class_file(path)
    path.write_text(json.dumps({"domain": [0, 1], "hypotheses": [{"name": "short", "values": "1"}]}))
    with pytest.raises(ClassFileError, match="short"):
        load_class_file(path)
    path.write_text("not json")
    with pytest.raises(ClassFileError, match="JSON"):
        load_class_file(path)
    path.write_text(json.dumps({"domain": [0], "hypotheses": []}))
    with pytest.raises(ClassFileError, match="empty"):
        load_class_file(path)


@pytest.mark.parametrize("name", [None, 5, ["a"]], ids=["null", "number", "array"])
def test_a_class_file_name_must_be_a_string(tmp_path, name) -> None:
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"domain": [0], "hypotheses": [{"values": "1"}, {"name": name, "values": "0"}]}))
    with pytest.raises(ClassFileError) as info:
        load_class_file(path)
    assert str(info.value) == f"{path}: hypothesis #1: 'name' must be a string"
    # a missing name still defaults to h<i>
    path.write_text(json.dumps({"domain": [0], "hypotheses": [{"values": "1"}, {"name": "b", "values": "0"}]}))
    assert [h.name for h in load_class_file(path)] == ["h0", "b"]


@pytest.mark.parametrize("values, text", [
    ("012", "hypothesis 'h': 'values' must be a string of 0/1"),
    ("0", "hypothesis 'h': 1 values for 2 domain points"),
    ("", "hypothesis 'h': 0 values for 2 domain points"),
    ("0 1", "hypothesis 'h': 'values' must be a string of 0/1"),
    (5, "hypothesis 'h': 'values' must be a string of 0/1"),
    (None, "hypothesis 'h': 'values' must be a string of 0/1"),
])
def test_from_rows_and_class_files_reject_a_bad_row_alike(tmp_path, values, text) -> None:
    with pytest.raises(ValueError) as direct:
        HypothesisClass.from_rows([0, 1], [("h", values)])
    assert str(direct.value) == text
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"domain": [0, 1], "hypotheses": [{"name": "h", "values": values}]}))
    with pytest.raises(ClassFileError) as loaded:
        load_class_file(path)
    assert str(loaded.value) == f"{path}: {text}"


def test_a_bad_domain_is_reported_before_any_row_error(tmp_path) -> None:
    path = tmp_path / "bad.json"
    for hypotheses in ([{"name": "h", "values": "012"}], "not an array", [7], []):
        path.write_text(json.dumps({"domain": [0, -1], "hypotheses": hypotheses}))
        with pytest.raises(ClassFileError) as info:
            load_class_file(path)
        assert str(info.value) == f"{path}: domain: negative point -1"
    with pytest.raises(PointError, match="^domain: negative point -1$"):
        HypothesisClass.from_rows([0, -1], [("h", "012")])


@pytest.mark.parametrize("doc, text", [
    ([{"domain": [0]}], "expected an object with 'domain' and 'hypotheses'"),
    ({"domain": 5, "hypotheses": []}, "'domain' must be an array of integers"),
    ({"domain": [0], "hypotheses": {"h": "1"}}, "'hypotheses' must be an array"),
    ({"domain": [0], "hypotheses": [{"name": "a", "values": "1"}, "1"]}, "hypothesis #1 must be an object with 'values'"),
], ids=["top-level-array", "domain", "hypotheses", "entry"])
def test_a_class_file_of_the_wrong_shape_is_named(tmp_path, doc, text) -> None:
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ClassFileError) as info:
        load_class_file(path)
    assert str(info.value) == f"{path}: {text}"


# ----------------------------------------------------------------------
# the mask representation against the pairwise definitions

tables = st.dictionaries(st.integers(0, 40), st.integers(0, 1), max_size=12)


@given(table=tables, pairs=st.dictionaries(st.integers(0, 60), st.integers(0, 1), max_size=10))
def test_mask_consistency_agrees_with_the_pairwise_definition(table, pairs) -> None:
    # sample points range past every table, where the function is 0
    h = _from_table("h", table)
    sample = Sample(tuple(pairs.items()))
    pairwise = all(table.get(x, 0) == y for x, y in pairs.items())
    assert is_consistent(h, sample) == pairwise


@given(a=tables, b=tables)
def test_equality_and_hash_are_extensional(a, b) -> None:
    f = _from_table("f", a)
    g = _from_table("g", b)
    same = all(a.get(x, 0) == b.get(x, 0) for x in set(a) | set(b))
    assert (f == g) == same
    if same:
        assert hash(f) == hash(g)
    assert f.domain == tuple(sorted(x for x, y in a.items() if y))
    assert f.values == (1,) * len(f.domain)


@given(pairs=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 1)), max_size=10))
def test_extended_sample_matches_the_sample_built_at_once(pairs) -> None:
    built = Sample(())
    try:
        whole = Sample(tuple(pairs))
    except ContradictorySample:
        with pytest.raises(ContradictorySample):
            for x, y in pairs:
                built = built.extended(x, y)
        return
    for x, y in pairs:
        built = built.extended(x, y)
    assert built == whole
    assert (built.ones, built.zeros) == (whole.ones, whole.zeros)


# ----------------------------------------------------------------------
# points that cannot index a mask bit


def _class_file(tmp_path, domain) -> str:
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(
        {"domain": domain, "hypotheses": [{"name": "h", "values": "0" * len(domain)}]}
    ))
    return path


def test_class_file_rejects_a_negative_point(tmp_path) -> None:
    with pytest.raises(ClassFileError, match="negative point -3"):
        load_class_file(_class_file(tmp_path, [0, -3]))


def test_class_file_rejects_a_duplicate_point(tmp_path) -> None:
    with pytest.raises(ClassFileError, match="duplicate point 1"):
        load_class_file(_class_file(tmp_path, [1, 0, 1]))


def test_class_file_rejects_a_bool_point(tmp_path) -> None:
    with pytest.raises(ClassFileError, match="point True is not an integer"):
        load_class_file(_class_file(tmp_path, [0, True]))


def test_class_file_rejects_a_point_past_the_mask_width(tmp_path) -> None:
    with pytest.raises(ClassFileError, match=f"point {MASK_WIDTH} is past the mask-width limit"):
        load_class_file(_class_file(tmp_path, [0, MASK_WIDTH]))
    assert len(load_class_file(_class_file(tmp_path, [MASK_WIDTH - 1]))) == 1


def test_negative_points_raise_a_typed_error() -> None:
    with pytest.raises(PointError, match="negative point -1"):
        Sample(((-1, 0),))
    with pytest.raises(PointError, match="negative point -1"):
        Sample(()).extended(-1, 1)
    with pytest.raises(PointError, match="negative point -2"):
        HypothesisClass.from_rows((-2,), [("h", "1")])
    with pytest.raises(PointError, match="negative point -1"):
        Hypothesis("h", 0b1)(-1)
    with pytest.raises(PointError):
        Hypothesis("h", support=-1)


# ----------------------------------------------------------------------
# the read-only views: mask_points and their sharing


def _set_bits(mask: int) -> tuple[int, ...]:
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


one_runs = st.builds(lambda lo, n: ((1 << n) - 1) << lo, st.integers(0, 3000), st.integers(1, 5000))
masks = st.one_of(
    st.just(0),
    st.integers(1, 5000).map(lambda n: (1 << n) - 1),  # a run from 0, as free reveals
    st.integers(0, 5000).map((1).__lshift__),  # a single bit
    one_runs,
    st.integers(0, 1 << 300),  # any mask, mostly several runs
)


@given(mask=masks)
def test_mask_points_lists_the_set_bits_in_order(mask) -> None:
    assert mask_points(mask) == _set_bits(mask)


def test_mask_points_grows_the_pool_for_a_mask_wider_than_it() -> None:
    width = min(2 * len(hypotheses._POINTS) + 3, MASK_WIDTH)
    for mask in ((1 << width) - 1, (1 << width) - 3, 1 << width - 1 | 1):
        assert mask_points(mask) == _set_bits(mask)
        assert len(hypotheses._POINTS) >= width


@pytest.mark.parametrize("support", [0b1110, 0b1011, 0], ids=["one run", "two runs", "empty"])
def test_equal_supports_share_one_domain_and_values_object(support) -> None:
    # built separately, one from a mask and one from a table
    f = Hypothesis("f", support=support)
    g = _from_table("g", {x: support >> x & 1 for x in range(6)})
    assert f.domain is g.domain
    assert f.values is g.values
    assert f.domain == _set_bits(support)
