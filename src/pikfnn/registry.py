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
  params   k, d (diffusion D), v (velocity, comma-separated), c1, n (power),
           alpha, beta, st/sx (structural selectors), nu, mu (shear),
           c (shape), shift, m (t-complete max order)

Examples: fundamental:laplace:2d
          fundamental-real:helmholtz:2d?k=14.1421
          time-fundamental:heat:3d?k=0.001
          elasto-disp:2d?nu=0.3&mu=384615
"""

from . import kernels as kn
from . import operators as ops
from .errors import UnsupportedKernelError
from .kernels import KernelFamily
from .operators import OperatorSpec

_ELASTO_CLASSES = (kn.ELASTO_DISP, kn.ELASTO_TRAC)

_FLOAT_PARAMS = ("k", "d", "c1", "alpha", "beta", "nu", "mu", "c", "shift")
_INT_PARAMS = ("n", "m", "split", "outgoing")
_STR_PARAMS = ("st", "sx")


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
    params = {}
    if query:
        for item in query.split("&"):
            key, _, value = item.partition("=")
            if key in _FLOAT_PARAMS:
                params[key] = float(value)
            elif key in _INT_PARAMS:
                params[key] = int(value)
            elif key in _STR_PARAMS:
                params[key] = value
            elif key == "v":
                params[key] = tuple(float(c) for c in value.split(","))
            else:
                raise UnsupportedKernelError(
                    f"unknown kernel parameter {key!r} in {identifier!r}")

    if parts[0] in _ELASTO_CLASSES:
        if len(parts) != 2:
            raise ValueError("elasticity ids are class:dim")
        kclass, dim = parts[0], _parse_dim(parts[1])
        op = OperatorSpec(ops.ELASTOSTATIC, dim, nu=params.get("nu", 0.0),
                          shear=params.get("mu", 1.0))
        return KernelFamily(kclass, op)

    if len(parts) != 3:
        raise ValueError("expected class:operator:dim")
    kclass, op_kind, dim = parts[0], parts[1], _parse_dim(parts[2])
    op = OperatorSpec(
        op_kind, dim,
        k=params.get("k", 0.0),
        diffusion=params.get("d", 1.0),
        velocity=tuple(params["v"]) if "v" in params else
        ((0.0,) * dim if op_kind.startswith(ops.CONVECTION_DIFFUSION) else ()),
        c1=params.get("c1", 1.0),
        power_n=params.get("n", 0),
        alpha=params.get("alpha", 1.0),
        beta=params.get("beta", 1.0),
        structural_t=params.get("st", "identity"),
        structural_x=params.get("sx", "identity"),
    )
    return KernelFamily(kclass, op, c_shape=params.get("c", 1.0),
                        shift=params.get("shift", 0.0),
                        tcomplete_max_order=params.get("m", 0),
                        complex_split=bool(params.get("split", 0)),
                        outgoing_3d=bool(params.get("outgoing", 1)))


def _parse_dim(token):
    if token not in ("2d", "3d", "4d"):
        raise ValueError(f"dim token must be 2d|3d|4d, got {token!r}")
    return int(token[0])


def format_kernel_id(family):
    """Inverse of parse_kernel_id (canonical parameter order)."""
    op = family.operator
    if family.kind in _ELASTO_CLASSES:
        return f"{family.kind}:{op.dim}d?nu={_short(op.nu)}&mu={_short(op.shear)}"
    parts = [family.kind, op.kind, f"{op.dim}d"]
    params = []
    if op.k:
        params.append(f"k={op.k:.17g}")
    if op.kind in (ops.CONVECTION_DIFFUSION, ops.CONV_DIFF_POWER):
        params.append(f"d={op.diffusion:.17g}")
        params.append("v=" + ",".join(f"{v:.17g}" for v in op.velocity))
    if op.kind == ops.WAVE:
        params.append(f"c1={op.c1:.17g}")
    if op.kind == ops.STRUCTURAL_DIFFUSION:
        params.append(f"d={op.diffusion:.17g}")
        params.append(f"alpha={op.alpha:.17g}")
        params.append(f"beta={op.beta:.17g}")
        params.append(f"st={op.structural_t}")
        params.append(f"sx={op.structural_x}")
    if op.power_n:
        params.append(f"n={op.power_n}")
    if family.kind == kn.HARMONIC:
        params.append(f"c={family.c_shape:.17g}")
    if family.shift:
        params.append(f"shift={family.shift:.17g}")
    if family.kind == kn.T_COMPLETE:
        params.append(f"m={family.tcomplete_max_order}")
    if family.complex_split:
        params.append("split=1")
    if not family.outgoing_3d:
        params.append("outgoing=0")
    base = ":".join(parts)
    return base + ("?" + "&".join(params)) if params else base


def _short(value):
    # %g where it is exact (nu=0.3&mu=1), else all 17 significant digits
    text = f"{value:g}"
    return text if float(text) == value else f"{value:.17g}"


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

