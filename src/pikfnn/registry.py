"""String identifiers for kernel families.

Grammar:  class:operator:dim[?param=value&...]
          elasto-disp:dim[?...]  /  elasto-trac:dim[?...]   (operator implied)

  class    fundamental | fundamental-real | harmonic | radial-trefftz |
           t-complete | time-fundamental | time-radial-trefftz |
           elasto-disp | elasto-trac
  operator laplace | helmholtz | modified-helmholtz | convection-diffusion |
           biharmonic | poly-laplace | helmholtz-power |
           modified-helmholtz-power | convection-diffusion-power |
           heat | wave | structural-diffusion
  dim      2d | 3d | 4d
  params   k, d (diffusion D), v (velocity, comma-separated), c1, alpha,
           beta, st/sx (structural selectors), n (power), nu, mu (shear),
           c (shape), shift, m (t-complete max order), split (0|1),
           outgoing (0|1); format_kernel_id writes, in this order, each one
           whose field differs from its default

Examples: fundamental:laplace:2d
          fundamental-real:helmholtz:2d?k=14.1421
          time-fundamental:heat:3d?k=0.001
          elasto-disp:2d?nu=0.3&mu=384615
"""

import dataclasses

from . import kernels as kn
from . import operators as ops
from .errors import UnsupportedKernelError
from .kernels import KernelFamily
from .operators import OperatorSpec

_ELASTO_CLASSES = (kn.ELASTO_DISP, kn.ELASTO_TRAC)

# id key -> the OperatorSpec or KernelFamily field it sets, in the order ids
# write them; each value has the type of its field's default
_KEYS = {"k": "k", "d": "diffusion", "v": "velocity", "c1": "c1", "alpha": "alpha",
         "beta": "beta", "st": "structural_t", "sx": "structural_x", "n": "power_n",
         "nu": "nu", "mu": "shear", "c": "c_shape", "shift": "shift",
         "m": "tcomplete_max_order", "split": "complex_split", "outgoing": "outgoing_3d"}
_DEFAULTS = {f.name: f.default for cls in (OperatorSpec, KernelFamily)
             for f in dataclasses.fields(cls)}
_ON_OPERATOR = {f.name for f in dataclasses.fields(OperatorSpec)}


def parse_kernel_id(identifier):
    """Parse an identifier into a KernelFamily; raise with the valid list."""
    try:
        return _parse(identifier)
    except UnsupportedKernelError:
        raise
    except Exception as exc:
        raise UnsupportedKernelError(
            f"cannot parse kernel id {identifier!r} ({exc}); valid ids include:\n  "
            + "\n  ".join(list_kernel_ids())) from exc


def _parse(identifier):
    head, _, query = identifier.partition("?")
    parts = head.split(":")
    fields = {}
    for item in query.split("&") if query else ():
        key, _, value = item.partition("=")
        if key not in _KEYS:
            raise UnsupportedKernelError(
                f"unknown kernel parameter {key!r} in {identifier!r}")
        fields[_KEYS[key]] = _value(key, value, _DEFAULTS[_KEYS[key]])
    if parts[0] in _ELASTO_CLASSES:
        if len(parts) != 2:
            raise ValueError("elasticity ids are class:dim")
        parts.insert(1, ops.ELASTOSTATIC)
    elif len(parts) != 3:
        raise ValueError("expected class:operator:dim")
    kclass, op_kind, dim = parts[0], parts[1], _parse_dim(parts[2])
    if op_kind.startswith(ops.CONVECTION_DIFFUSION):
        fields.setdefault("velocity", (0.0,) * dim)
    op = OperatorSpec(op_kind, dim, **{n: v for n, v in fields.items() if n in _ON_OPERATOR})
    return KernelFamily(kclass, op, **{n: v for n, v in fields.items() if n not in _ON_OPERATOR})


def _value(key, text, default):
    """text as the type of default: floats joined by commas for a tuple, 0|1 for a bool."""
    if isinstance(default, tuple):
        return tuple(float(c) for c in text.split(","))
    if isinstance(default, bool):
        if text not in ("0", "1"):
            raise ValueError(f"{key} takes 0 or 1, got {text!r}")
        return text == "1"
    return type(default)(text)


def _parse_dim(token):
    if token not in ("2d", "3d", "4d"):
        raise ValueError(f"dim token must be 2d|3d|4d, got {token!r}")
    return int(token[0])


def format_kernel_id(family):
    """Inverse of parse_kernel_id: every field that differs from its
    default, in _KEYS order, each number in its shortest exact form."""
    op = family.operator
    head = (f"{family.kind}:{op.dim}d" if family.kind in _ELASTO_CLASSES
            else f"{family.kind}:{op.kind}:{op.dim}d")
    params = []
    for key, name in _KEYS.items():
        value, default = getattr(op if name in _ON_OPERATOR else family, name), _DEFAULTS[name]
        if value != default:
            params.append(f"{key}={_text(value, default)}")
    return head + ("?" + "&".join(params) if params else "")


def _text(value, default):
    if isinstance(default, tuple):
        return ",".join(_short(v) for v in value)
    if isinstance(default, float):
        return _short(value)
    return str(int(value) if isinstance(default, int) else value)  # a bool as 0|1


def _short(value):
    # %g where it is exact (nu=0.3&mu=384615), else repr, the shortest text
    # that reads back exactly
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def list_kernel_ids():
    """Representative valid identifiers covering the whole support matrix."""
    out = []
    for kclass, table in kn._SUPPORT.items():
        for op_kind, dims in table.items():
            for dim in dims:
                out.append(_example_id(kclass, op_kind, dim))
    return out


def _example_id(kclass, op_kind, dim):
    if kclass in _ELASTO_CLASSES:
        return f"{kclass}:{dim}d?nu=0.3&mu=1"
    params = []
    if op_kind in (ops.HELMHOLTZ, ops.MODIFIED_HELMHOLTZ, ops.HELMHOLTZ_POWER,
                   ops.MOD_HELMHOLTZ_POWER):
        params.append("k=1")
    if op_kind in (ops.CONVECTION_DIFFUSION, ops.CONV_DIFF_POWER):
        params.append("k=1&d=1&v=" + ",".join(["0.1"] * dim))
    if op_kind == ops.HEAT:
        params.append("k=1")
    if op_kind == ops.WAVE:
        params.append("c1=1")
    if op_kind in ops.POWER_KINDS:
        params.append("n=1")
    if kclass == kn.T_COMPLETE:
        params.append("m=2")
    head = f"{kclass}:{op_kind}:{dim}d"
    return head + ("?" + "&".join(params) if params else "")

