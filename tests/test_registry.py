import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikfnn.benchmarks import BUILTINS
from pikfnn.errors import DomainError, UnsupportedKernelError
from pikfnn.kernels import KernelFamily, eval_kernel
from pikfnn.operators import STRUCTURAL_SELECTORS, OperatorSpec
from pikfnn.registry import (
    format_kernel_id,
    list_kernel_ids,
    parse_kernel_id,
)


def test_parse_documented_examples():
    fam = parse_kernel_id("fundamental:laplace:2d")
    assert fam.kind == "fundamental"
    assert fam.operator.kind == "laplace"
    assert fam.operator.dim == 2

    fam = parse_kernel_id("fundamental-real:helmholtz:2d?k=14.1421")
    assert fam.operator.k == pytest.approx(14.1421)

    fam = parse_kernel_id("time-fundamental:heat:3d?k=0.001")
    assert fam.operator.kind == "heat"
    assert fam.operator.dim == 3
    assert fam.operator.k == pytest.approx(0.001)

    fam = parse_kernel_id("elasto-disp:2d?nu=0.3&mu=384615")
    assert fam.operator.nu == pytest.approx(0.3)
    assert fam.operator.shear == pytest.approx(384615.0)


def test_parse_velocity_and_structural():
    fam = parse_kernel_id("fundamental:convection-diffusion:2d?k=1&d=2&v=0.5,-0.25")
    assert fam.operator.velocity == (0.5, -0.25)
    fam = parse_kernel_id(
        "time-fundamental:structural-diffusion:2d?d=1&alpha=0.5&st=power&sx=exp")
    assert fam.operator.alpha == pytest.approx(0.5)
    assert fam.operator.structural_t == "power"
    assert fam.operator.structural_x == "exp"


def test_roundtrip_through_format():
    ids = [
        "fundamental:laplace:3d",
        "fundamental-real:helmholtz:2d?k=14.142135623730951",
        "fundamental:modified-helmholtz:3d?k=1.7320508075688772",
        "time-fundamental:heat:3d?k=0.001",
        "elasto-disp:2d?nu=0.3&mu=384615",
        "fundamental-real:helmholtz:2d?k=1&shift=0.5",
        "t-complete:helmholtz:2d?k=2&m=3",
        "fundamental:helmholtz:2d?k=2&split=1",
        "fundamental:helmholtz:3d?k=2&outgoing=0",
    ]
    for ident in ids:
        fam = parse_kernel_id(ident)
        again = parse_kernel_id(format_kernel_id(fam))
        assert again == fam, ident


def test_unknown_identifier_lists_valid_ones():
    with pytest.raises(UnsupportedKernelError) as err:
        parse_kernel_id("fundamental:nonsense:2d")
    msg = str(err.value)
    assert "fundamental:laplace:2d" in msg
    with pytest.raises(UnsupportedKernelError):
        parse_kernel_id("garbage")
    with pytest.raises(UnsupportedKernelError):
        parse_kernel_id("fundamental:laplace:2d?bogus=1")


def test_listed_ids_all_parse_and_evaluate():
    count = 0
    for ident in list_kernel_ids():
        fam = parse_kernel_id(ident)
        count += 1
        # every listed steady kernel evaluates at a generic point
        if not fam.operator.is_time_dependent and fam.kind not in (
                "t-complete", "elasto-disp", "elasto-trac"):
            dim = fam.operator.dim
            x = [1.1] + [0.2] * (dim - 1)
            s = [0.0] * dim
            v = eval_kernel(fam, x, s)
            if isinstance(v, complex):
                assert math.isfinite(v.real) and math.isfinite(v.imag)
            else:
                assert math.isfinite(v)
    assert count >= 30


# every float parameter of a catalog id redrawn within a range its operator
# accepts; the velocity components one by one
_REDRAWN = {"k": st.floats(0.01, 100.0), "d": st.floats(0.01, 100.0),
            "c1": st.floats(0.01, 100.0), "nu": st.floats(0.0, 0.49),
            "mu": st.floats(1e-3, 1e7), "v": st.floats(-10.0, 10.0)}


@pytest.mark.parametrize("ident", list_kernel_ids())
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_catalog_ids_round_trip_with_any_parameters(ident, data):
    # format_kernel_id then parse_kernel_id gives back the same family
    head, _, query = ident.partition("?")
    params = []
    for item in query.split("&") if query else ():
        key, _, value = item.partition("=")
        if key in _REDRAWN:
            value = ",".join(repr(data.draw(_REDRAWN[key])) for _ in value.split(","))
        params.append(f"{key}={value}")
    family = parse_kernel_id(head + ("?" + "&".join(params) if params else ""))
    assert parse_kernel_id(format_kernel_id(family)) == family


# each id key with the field it sets and values of that field's type; a
# family takes as many velocity components as its dimension
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SELECTORS = st.sampled_from(STRUCTURAL_SELECTORS) | st.text(max_size=4)
_TABLE = {"k": ("k", _FINITE), "d": ("diffusion", _FINITE),
          "v": ("velocity", st.tuples(*[_FINITE] * 4)), "c1": ("c1", _FINITE),
          "alpha": ("alpha", _FINITE), "beta": ("beta", _FINITE),
          "st": ("structural_t", _SELECTORS), "sx": ("structural_x", _SELECTORS),
          "n": ("power_n", st.integers(-1, 12)), "nu": ("nu", _FINITE),
          "mu": ("shear", _FINITE), "c": ("c_shape", _FINITE), "shift": ("shift", _FINITE),
          "m": ("tcomplete_max_order", st.integers(-1, 12)),
          "split": ("complex_split", st.booleans()), "outgoing": ("outgoing_3d", st.booleans())}


@settings(max_examples=60, deadline=None)
@given(drawn=st.fixed_dictionaries(dict(_TABLE.values())))
def test_every_field_of_every_family_round_trips(drawn):
    # the drawn values set on every catalog family, one field at a time
    for ident in list_kernel_ids():
        family = parse_kernel_id(ident)
        for name, value in drawn.items():
            if name == "velocity":
                value = value[:family.operator.dim]
            try:
                if name in OperatorSpec.__dataclass_fields__:
                    family = replace(family, operator=replace(family.operator, **{name: value}))
                else:
                    family = replace(family, **{name: value})
            except (DomainError, UnsupportedKernelError):
                pass  # a value the dataclasses reject is skipped
        assert parse_kernel_id(format_kernel_id(family)) == family, ident


def test_fields_the_operator_kind_does_not_use_are_kept():
    family = KernelFamily("fundamental", OperatorSpec("laplace", 2, diffusion=2.0))
    assert format_kernel_id(family) == "fundamental:laplace:2d?d=2"
    assert parse_kernel_id(format_kernel_id(family)) == family
    assert parse_kernel_id("elasto-disp:2d?nu=0.3&mu=1&k=5").operator.k == 5
    family = parse_kernel_id("elasto-trac:2d?k=5&mu=2")
    assert parse_kernel_id(format_kernel_id(family)) == family


def test_canonical_ids_write_only_non_default_fields():
    assert format_kernel_id(parse_kernel_id(
        "fundamental:helmholtz:3d?k=2&d=1&c1=1&n=0&c=1&shift=0&m=0&split=0&outgoing=1")) \
        == "fundamental:helmholtz:3d?k=2"
    assert format_kernel_id(parse_kernel_id(
        "fundamental:helmholtz:3d?outgoing=0&split=1&shift=0.5&k=0.1")) \
        == "fundamental:helmholtz:3d?k=0.1&shift=0.5&split=1&outgoing=0"
    assert format_kernel_id(parse_kernel_id(
        "fundamental:convection-diffusion:2d?k=1")) == "fundamental:convection-diffusion:2d?k=1&v=0,0"
    with pytest.raises(UnsupportedKernelError):
        parse_kernel_id("fundamental:helmholtz:2d?k=2&split=2")


# what format_kernel_id wrote for the ten built-ins' families, pretrained
# chains included, before ids dropped default fields -> what it writes now
_BUILTIN_IDS = {
    "fundamental-real:helmholtz:2d?k=14.142135623730951":
        "fundamental-real:helmholtz:2d?k=14.142135623730951",
    "fundamental-real:helmholtz:2d?k=100": "fundamental-real:helmholtz:2d?k=100",
    "fundamental:laplace:2d": "fundamental:laplace:2d",
    "fundamental:modified-helmholtz:3d?k=1": "fundamental:modified-helmholtz:3d?k=1",
    "fundamental:modified-helmholtz:3d?k=1.7320508075688772":
        "fundamental:modified-helmholtz:3d?k=1.7320508075688772",
    "time-fundamental:heat:3d?k=0.001": "time-fundamental:heat:3d?k=0.001",
    "time-fundamental:heat:3d?k=0.0030000000000000001": "time-fundamental:heat:3d?k=0.003",
    "time-fundamental:structural-diffusion:2d?d=1&alpha=1&beta=1&st=identity&sx=power":
        "time-fundamental:structural-diffusion:2d?sx=power",
    "fundamental:laplace:4d": "fundamental:laplace:4d",
    "fundamental:laplace:3d": "fundamental:laplace:3d",
    "fundamental-real:helmholtz:2d?k=1&shift=1": "fundamental-real:helmholtz:2d?k=1&shift=1",
    "elasto-disp:2d?nu=0.3&mu=384615": "elasto-disp:2d?nu=0.3&mu=384615",
}

# the same for the listed ids; every listed id not named here was written as it is
_LISTED_IDS = {
    "fundamental:convection-diffusion:2d?k=1&d=1&v=0.1,0.1":
        "fundamental:convection-diffusion:2d?k=1&d=1&v=0.10000000000000001,0.10000000000000001",
    "fundamental:convection-diffusion:3d?k=1&d=1&v=0.1,0.1,0.1":
        "fundamental:convection-diffusion:3d?k=1&d=1"
        "&v=0.10000000000000001,0.10000000000000001,0.10000000000000001",
    "fundamental:convection-diffusion-power:2d?k=1&d=1&v=0.1,0.1&n=1":
        "fundamental:convection-diffusion-power:2d?k=1&d=1"
        "&v=0.10000000000000001,0.10000000000000001&n=1",
    "harmonic:laplace:2d": "harmonic:laplace:2d?c=1",
    "harmonic:laplace:3d": "harmonic:laplace:3d?c=1",
    "harmonic:biharmonic:2d": "harmonic:biharmonic:2d?c=1",
    "harmonic:biharmonic:3d": "harmonic:biharmonic:3d?c=1",
    "harmonic:poly-laplace:2d?n=1": "harmonic:poly-laplace:2d?n=1&c=1",
    "harmonic:poly-laplace:3d?n=1": "harmonic:poly-laplace:3d?n=1&c=1",
    "radial-trefftz:convection-diffusion:2d?k=1&d=1&v=0.1,0.1":
        "radial-trefftz:convection-diffusion:2d?k=1&d=1&v=0.10000000000000001,0.10000000000000001",
    "radial-trefftz:convection-diffusion:3d?k=1&d=1&v=0.1,0.1,0.1":
        "radial-trefftz:convection-diffusion:3d?k=1&d=1"
        "&v=0.10000000000000001,0.10000000000000001,0.10000000000000001",
    "radial-trefftz:convection-diffusion-power:2d?k=1&d=1&v=0.1,0.1&n=1":
        "radial-trefftz:convection-diffusion-power:2d?k=1&d=1"
        "&v=0.10000000000000001,0.10000000000000001&n=1",
    "time-fundamental:structural-diffusion:2d":
        "time-fundamental:structural-diffusion:2d?d=1&alpha=1&beta=1&st=identity&sx=identity",
}


def test_ids_written_before_canonical_form_still_parse():
    for old, new in _BUILTIN_IDS.items():
        assert parse_kernel_id(old) == parse_kernel_id(new), old
        assert format_kernel_id(parse_kernel_id(old)) == new
    assert set(_LISTED_IDS) <= set(list_kernel_ids())
    for ident in list_kernel_ids():
        assert parse_kernel_id(_LISTED_IDS.get(ident, ident)) == parse_kernel_id(ident)


def test_builtins_name_their_families_canonically():
    ids = [ident for make in BUILTINS.values() for ident in make(seed=0).kernel_ids]
    assert sorted(ids) == sorted(_BUILTIN_IDS.values())
