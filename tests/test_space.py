"""Tests for parameter specs, search spaces, and the warp transforms."""

import json
import math

import numpy as np
import pytest

from mixbo.space import (
    ParamSpec,
    SearchSpace,
    ValidationError,
    space_from_dict,
    space_from_json,
)


def mixed_space():
    return SearchSpace(
        [
            ParamSpec("xr", "real", lo=-1.0, hi=3.0),
            ParamSpec("xl", "real", lo=1e-4, hi=1.0, scale="log"),
            ParamSpec("ni", "integer", lo=2, hi=12),
            ParamSpec("nl", "integer", lo=1, hi=1024, scale="log"),
            ParamSpec("b", "boolean"),
            ParamSpec("c", "categorical", categories=("lo", "mid", "hi")),
        ]
    )


# --- ParamSpec validation --------------------------------------------


def test_real_requires_ordered_bounds():
    with pytest.raises(ValidationError):
        ParamSpec("x", "real", lo=1.0, hi=1.0)
    with pytest.raises(ValidationError):
        ParamSpec("x", "real", lo=2.0, hi=-2.0)


def test_log_scale_requires_positive_lower_bound():
    with pytest.raises(ValidationError):
        ParamSpec("x", "real", lo=0.0, hi=1.0, scale="log")
    with pytest.raises(ValidationError):
        ParamSpec("n", "integer", lo=0, hi=8, scale="log")


def test_unknown_kind_and_scale_are_rejected():
    with pytest.raises(ValidationError):
        ParamSpec("x", "gaussian", lo=0.0, hi=1.0)
    with pytest.raises(ValidationError):
        ParamSpec("x", "real", lo=0.0, hi=1.0, scale="sqrt")


def test_categorical_needs_two_unique_categories():
    with pytest.raises(ValidationError):
        ParamSpec("c", "categorical", categories=("only",))
    with pytest.raises(ValidationError):
        ParamSpec("c", "categorical", categories=("a", "a"))
    with pytest.raises(ValidationError):
        ParamSpec("c", "categorical")


def test_quantitative_kinds_reject_categories():
    with pytest.raises(ValidationError):
        ParamSpec("x", "real", lo=0.0, hi=1.0, categories=("a", "b"))


def test_integer_bounds_must_be_integral():
    with pytest.raises(ValidationError):
        ParamSpec("n", "integer", lo=0.5, hi=4)


def test_empty_name_rejected():
    with pytest.raises(ValidationError):
        ParamSpec("", "real", lo=0.0, hi=1.0)


def test_arm_counts():
    assert ParamSpec("b", "boolean").n_arms == 2
    assert ParamSpec("c", "categorical", categories=("a", "b", "c")).n_arms == 3
    assert ParamSpec("b", "boolean").is_qualitative
    assert not ParamSpec("x", "real", lo=0.0, hi=1.0).is_qualitative


def test_choices_are_the_values_in_arm_order():
    assert ParamSpec("b", "boolean").choices == (False, True)
    assert ParamSpec("c", "categorical", categories=("x", "y")).choices == ("x", "y")
    for p in (ParamSpec("x", "real", lo=0.0, hi=1.0), ParamSpec("n", "integer", lo=0, hi=4)):
        with pytest.raises(ValidationError):
            p.n_arms


# --- warp / unwarp ----------------------------------------------------


def test_real_linear_warp_is_affine():
    p = ParamSpec("x", "real", lo=-1.0, hi=3.0)
    assert p.warp_value(-1.0) == 0.0
    assert p.warp_value(3.0) == 1.0
    assert p.warp_value(1.0) == pytest.approx(0.5)
    assert p.unwarp_value(0.25) == pytest.approx(0.0)


def test_real_log_warp_is_log_affine():
    p = ParamSpec("lr", "real", lo=1e-4, hi=1.0, scale="log")
    assert p.warp_value(1e-4) == pytest.approx(0.0)
    assert p.warp_value(1.0) == pytest.approx(1.0)
    # geometric midpoint maps to 0.5
    assert p.warp_value(1e-2) == pytest.approx(0.5)
    assert p.unwarp_value(0.5) == pytest.approx(1e-2)


def test_integer_unwarp_rounds_half_down_on_lattice():
    p = ParamSpec("n", "integer", lo=0, hi=4)
    # cell midpoints: 0.5 -> position 2.0 exactly, and exact halves
    # between representable values resolve to the smaller integer.
    lattice = [p.unwarp_value(w) for w in np.linspace(0.0, 1.0, 9)]
    assert lattice == [0, 0, 1, 1, 2, 2, 3, 3, 4]
    assert all(isinstance(v, int) for v in lattice)


def test_integer_log_lattice_round_trip():
    p = ParamSpec("n", "integer", lo=1, hi=1024, scale="log")
    for v in (1, 2, 3, 10, 31, 32, 512, 1024):
        assert p.unwarp_value(p.warp_value(v)) == v


def test_boolean_and_categorical_codes():
    b = ParamSpec("b", "boolean")
    assert b.unwarp_value(b.warp_value(False)) is False
    assert b.unwarp_value(b.warp_value(True)) is True
    c = ParamSpec("c", "categorical", categories=("lo", "mid", "hi"))
    assert [c.warp_value(v) for v in c.categories] == [0.0, 0.5, 1.0]
    assert [c.unwarp_value(w) for w in (0.0, 0.2, 0.3, 0.6, 1.0)] == [
        "lo",
        "lo",
        "mid",
        "mid",
        "hi",
    ]


def test_validate_value_rejects_out_of_domain():
    p = ParamSpec("n", "integer", lo=0, hi=4)
    with pytest.raises(ValidationError):
        p.validate_value(5)
    with pytest.raises(ValidationError):
        p.validate_value(1.5)
    c = ParamSpec("c", "categorical", categories=("a", "b"))
    with pytest.raises(ValidationError):
        c.validate_value("z")


@pytest.mark.parametrize("name", ["xr", "xl", "ni", "nl"])
@pytest.mark.parametrize(
    "value",
    [float("inf"), float("-inf"), float("nan"), np.float64("nan"), 10**400],
    ids=["inf", "-inf", "nan", "np.nan", "10**400"],
)
def test_non_finite_and_huge_numbers_are_validation_errors(name, value):
    # int(inf) raises OverflowError, int(nan) a bare ValueError and
    # float(10**400) OverflowError; every entry point must turn them into
    # ValidationError
    sp = mixed_space()
    pt = sp.random_point(np.random.default_rng(0))
    pt[name] = value
    with pytest.raises(ValidationError):
        sp.params[sp.names.index(name)].validate_value(value)
    with pytest.raises(ValidationError):
        sp.validate(pt)
    with pytest.raises(ValidationError):
        sp.warp(pt)


# --- SearchSpace ------------------------------------------------------


def test_space_dim_names_and_blocks():
    sp = mixed_space()
    assert sp.dim == 6
    assert sp.names == ("xr", "xl", "ni", "nl", "b", "c")
    bl = sp.blocks
    assert list(bl.x) == [0, 1]
    assert list(bl.y) == [2, 3]
    assert list(bl.z) == [4, 5]


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        SearchSpace(
            [
                ParamSpec("x", "real", lo=0.0, hi=1.0),
                ParamSpec("x", "real", lo=0.0, hi=2.0),
            ]
        )


def test_empty_space_rejected():
    with pytest.raises(ValidationError):
        SearchSpace([])


def test_validate_point_requires_exact_keys():
    sp = mixed_space()
    pt = sp.random_point(np.random.default_rng(0))
    sp.validate(pt)
    missing = dict(pt)
    del missing["xr"]
    with pytest.raises(ValidationError):
        sp.validate(missing)
    extra = dict(pt)
    extra["spurious"] = 1.0
    with pytest.raises(ValidationError):
        sp.validate(extra)


def test_warp_checks_each_value_once_and_raises_what_validate_raises(monkeypatch):
    sp = mixed_space()
    pt = sp.random_point(np.random.default_rng(1))
    checked = []
    check = ParamSpec.validate_value
    monkeypatch.setattr(ParamSpec, "validate_value", lambda p, v: checked.append(p.name) or check(p, v))
    sp.warp(pt)
    assert checked == list(sp.names)
    monkeypatch.undo()
    # an unknown key wins over a bad value, and otherwise the first
    # parameter in order that is missing or inadmissible is named
    unknown = {**pt, "xr": 9.0, "spurious": 1.0}
    missing_later = {k: v for k, v in {**pt, "ni": 2.5}.items() if k != "c"}
    missing_first = {k: v for k, v in {**pt, "ni": 2.5}.items() if k != "xr"}
    for bad, names in ((unknown, "spurious"), (missing_later, "'ni'"), (missing_first, "'xr'")):
        with pytest.raises(ValidationError, match=names) as want:
            sp.validate(bad)
        with pytest.raises(ValidationError) as got:
            sp.warp(bad)
        assert str(got.value) == str(want.value)


def test_warp_unwarp_round_trip_on_random_points():
    # exact on the lattice, and on xr, whose bounds -1 and 3 make the
    # affine map exact; other reals come back within a few ulps
    sp = SearchSpace([*mixed_space().params, ParamSpec("xs", "real", lo=0.1, hi=7.3)])
    exact = ("xr", "ni", "nl", "b", "c")
    rng = np.random.default_rng(42)
    for _ in range(2000):
        pt = sp.random_point(rng)
        sp.validate(pt)
        w = sp.warp(pt)
        assert w.shape == (sp.dim,)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        back = sp.unwarp(w)
        assert set(back) == set(pt)
        assert [back[k] for k in exact] == [pt[k] for k in exact]
        for k in ("xl", "xs"):
            assert math.isclose(back[k], pt[k], rel_tol=1e-12)


def test_snap_projects_to_lattice_and_is_idempotent():
    sp = mixed_space()
    rng = np.random.default_rng(3)
    raw = rng.random((40, sp.dim))
    snapped = sp.snap(raw)
    assert snapped.shape == raw.shape
    # continuous coordinates pass through
    np.testing.assert_array_equal(snapped[:, :2], raw[:, :2])
    # snapped coordinates decode to valid points and re-snap exactly
    np.testing.assert_array_equal(sp.snap(snapped), snapped)
    for row in snapped:
        sp.validate(sp.unwarp(row))
    # single-row call keeps single-row shape
    one = sp.snap(raw[0])
    assert one.shape == (sp.dim,)


def test_snapped_log_integers_are_fixed_points_of_warp_and_unwarp():
    # np.log and warp_value's math.log differ in the last bit at some
    # integers, such as 2921 on [16, 4096], whose coordinate is near 0.939
    w = np.append(np.linspace(0.0, 1.0, 20001), 0.939)[:, None]
    for lo, hi in ((1, 1024), (16, 4096), (1, 100000), (3, 77777)):
        p = ParamSpec("n", "integer", lo=lo, hi=hi, scale="log")
        snapped = SearchSpace([p]).snap(w)[:, 0]
        assert [p.warp_value(p.unwarp_value(float(v))) for v in snapped] == snapped.tolist()


def test_snap_codes_a_boolean_as_a_two_label_categorical():
    rng = np.random.default_rng(5)
    cols = np.concatenate([rng.random(500), [0.0, 0.25, 0.5, 0.75, 1.0]])[:, None]
    as_bool = SearchSpace([ParamSpec("b", "boolean")]).snap(cols)
    as_cat = SearchSpace([ParamSpec("c", "categorical", categories=("n", "y"))]).snap(cols)
    assert as_bool.tobytes() == as_cat.tobytes()
    assert as_bool[-3, 0] == 0.0  # exactly 0.5 rounds toward the lower arm


def test_random_point_is_valid_and_deterministic():
    sp = mixed_space()
    a = sp.random_point(np.random.default_rng(9))
    b = sp.random_point(np.random.default_rng(9))
    assert a == b
    sp.validate(a)


# --- serialization ----------------------------------------------------


def test_space_dict_round_trip():
    sp = mixed_space()
    doc = sp.to_dict()
    sp2 = space_from_dict(doc)
    assert sp2.names == sp.names
    for p, q in zip(sp.params, sp2.params):
        assert p == q


def test_space_from_dict_rejects_unknown_fields():
    doc = {"params": [{"name": "x", "kind": "real", "lo": 0, "hi": 1, "prior": "uniform"}]}
    with pytest.raises(ValidationError):
        space_from_dict(doc)


def test_space_documents_are_type_checked():
    for entry in (
        {"name": "x", "kind": "real", "lo": "0", "hi": 1},
        {"name": "x", "kind": "real", "lo": False, "hi": 1},
        {"name": "n", "kind": "integer", "lo": 0, "hi": True},
        {"name": "x", "kind": "real", "lo": [0], "hi": 1},
        {"name": "c", "kind": "categorical", "categories": "abc"},
        {"name": "c", "kind": "categorical", "categories": {"a": 1, "b": 2}},
        # a bound, the span and the log-scale ratio must be finite floats
        {"name": "x", "kind": "real", "lo": -1.7e308, "hi": 1.7e308},
        {"name": "x", "kind": "real", "lo": 5e-324, "hi": 1e308, "scale": "log"},
        {"name": "n", "kind": "integer", "lo": 0, "hi": 10**400},
        {"name": "n", "kind": "integer", "lo": -(10**308), "hi": 10**308},
    ):
        with pytest.raises(ValidationError):
            space_from_dict({"params": [entry]})


def test_space_from_json_parses_document():
    text = json.dumps(mixed_space().to_dict())
    sp = space_from_json(text)
    assert sp.dim == 6
