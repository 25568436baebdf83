import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pikfnn.errors import UnsupportedKernelError
from pikfnn.kernels import eval_kernel
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
