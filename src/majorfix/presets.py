"""Named demo functions and shipped problem presets.

Configs refer to kernels, nonlinearities and forcings by identifier; no
dynamic code loading.  Every preset below is a complete problem config, so
each end-to-end scenario is reproducible from a single name.
"""

from __future__ import annotations

import math

import numpy as np

from .moduli import ConstantModulus, PowerSumModulus

__all__ = [
    "KERNELS",
    "NONLINEARITIES",
    "FORCINGS",
    "URYSOHN_KERNELS",
    "COMPOSITION_OUTER",
    "COMPOSITION_INNER",
    "PRESETS",
    "preset_names",
    "get_preset",
]

KERNELS = {
    "product": lambda t, s: t * s,
    "one": lambda t, s: np.ones(np.broadcast_shapes(np.shape(t), np.shape(s))),
    "exp_product": lambda t, s: np.exp(t * s),
}


def _exp_product_factors(t: np.ndarray):
    """t^j / sqrt(j!) for j < 26: exp(ts) = sum_j (ts)^j / j!, and on
    [-1, 1]^2 the terms from j = 26 on sum to at most e/26! ~ 7e-27."""
    if np.max(np.abs(t)) > 1.0:
        return None
    j = np.arange(26)
    powers = t[:, None] ** j / np.sqrt([float(math.factorial(i)) for i in j])
    return powers, powers


# kernel name -> function of the grid nodes giving (phi, psi), each (n, r),
# with phi @ psi.T the kernel's samples up to rounding, or None where the
# kernel has no exact factors on those nodes
_KERNEL_FACTORS = {
    "product": lambda t: (t[:, None], t[:, None]),
    "one": lambda t: (np.ones((t.size, 1)),) * 2,
    "exp_product": _exp_product_factors,
}

# kernel name -> (rounding, remainder, nonnegative) of its factors (see
# discretize._FactoredTable).  product and one are exact.  An exp_product
# entry t^j / sqrt(j!) takes four roundings: pow within one ulp (2u, as
# libm's pow is taken to be), j! (u, halved by sqrt), sqrt and the division
# (u each), 4.5u in all, to first order; its Taylor remainder is at most
# e/26! (see _exp_product_factors), which the float e/26! bounds with room.
# 1 and exp(ts) are positive, so their row sums are read through their own
# factors (exp_product's change sign where t < 0), not through |phi| |psi|^T,
# which bounds |k| loosely there; ts changes sign, so product's are not.
_FACTOR_DECLARATIONS = {
    "product": (0.0, 0.0, False),
    "one": (0.0, 0.0, True),
    "exp_product": (5.0 * 2.0**-53, math.e / math.factorial(26), True),
}

# nonlinearity name -> (h, scalar modulus of h on |u| <= r)
NONLINEARITIES = {
    "square": (lambda u: u**2, PowerSumModulus(((2.0, 1.0),))),
    "cube": (lambda u: u**3, PowerSumModulus(((3.0, 2.0),))),
    "identity": (lambda u: u, ConstantModulus(1.0)),
    "sin": (lambda u: np.sin(u), ConstantModulus(1.0)),
}

# L_p nonlinearity name -> (h, default pair set [(weight, slope)]); a term's
# q defaults to p
LP_NONLINEARITIES = {
    "linear": (lambda u: u, ((1.0, 0.0),)),
}

FORCINGS = {
    "identity": lambda t: np.asarray(t, dtype=float),
    "zero": lambda t: np.zeros(np.shape(t)),
    "one": lambda t: np.ones(np.shape(t)),
    "sin_pi": lambda t: np.sin(np.pi * np.asarray(t, dtype=float)),
}

# Urysohn kernel demos: K(t,s,u,v) with its partial moduli in u and v,
# each declared as a power sum {e: a_e(t, s)} in r (see UrysohnSpec)
URYSOHN_KERNELS = {
    "mixed_quadratic": {
        "kernel": lambda t, s, u, v: 0.2 * t + 0.1 * s * u**2 + 0.05 * v,
        "u_modulus": {1: lambda t, s: 0.2 * s},
        "v_modulus": {0: lambda t, s: 0.05},
    },
}

# composition outer maps F(t,u,v) with their moduli in u and v declared as
# power sums {e: c_e(t)} in r, for every rho; inner kernels K(t,s,u) with
# their modulus declared as {f: n_f(t, s)} (see CompositionSpec)
COMPOSITION_OUTER = {
    "affine_mix": {
        "outer": lambda t, u, v: 0.1 * t + 0.5 * u + 0.25 * v,
        "u_modulus": {0: lambda t: 0.5},
        "v_modulus": {0: lambda t: 0.25},
    },
}

COMPOSITION_INNER = {
    "weighted_square": {
        "kernel": lambda t, s, u: s * u**2 + 0.0 * t,
        "modulus": {1: lambda t, s: 2.0 * s},
    },
}

_T2D = [[[0.0, 0.5], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
# symmetric bilinear map T(x, y) = ((x1 y2 + x2 y1)/2 ... ) with exact norm;
# first output component is sym(x1 y2), second is zero

PRESETS: dict[str, dict] = {
    "quadratic": {
        "kind": "scalar_profile",
        "center_shift": 0.1875,
        "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]},
        "radius": 1.0,
    },
    "tangency": {
        "kind": "scalar_profile",
        "center_shift": 0.25,
        "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]},
        "radius": 1.0,
    },
    "contraction": {
        "kind": "scalar_profile",
        "center_shift": 1.0,
        "modulus": {"type": "constant", "value": 0.5},
        "radius": 10.0,
    },
    "supercritical": {
        "kind": "scalar_profile",
        "center_shift": 0.5,
        "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]},
        "radius": 1.0,
    },
    "multilinear-quadratic": {
        "kind": "multilinear",
        "dimension": 1,
        "degree": 2,
        "coefficient": 1.0,
        "constant": 0.1875,
        "radius": 1.0,
    },
    "multilinear-cubic": {
        "kind": "multilinear",
        "dimension": 1,
        "degree": 3,
        "coefficient": 1.0,
        "constant": 0.2,
        "radius": 1.0,
    },
    "multilinear-2d": {
        "kind": "multilinear",
        "dimension": 2,
        "degree": 2,
        "tensor": _T2D,
        "constant": [0.05, 0.08],
        "operator_norm": 0.5,
        "radius": 1.0,
    },
    "hammerstein-separable": {
        "kind": "hammerstein_c",
        "interval": [0.0, 1.0],
        "lambda": 0.1,
        "grid": {"rule": "simpson", "n": 201},
        "radius": 3.0,
        "terms": [{"kernel": "product", "nonlinearity": "square"}],
        "forcing": "identity",
    },
    "hammerstein-lp": {
        "kind": "hammerstein_lp",
        "interval": [0.0, 1.0],
        "lambda": 0.3,
        "p": 2.0,
        "grid": {"rule": "simpson", "n": 101},
        "radius": 2.0,
        "terms": [{"kernel": "product", "nonlinearity": "linear", "q": 2.0}],
        "forcing": "identity",
    },
    "urysohn": {
        "kind": "urysohn",
        "interval": [0.0, 1.0],
        "kernel": "mixed_quadratic",
        "grid": {"rule": "simpson", "n": 101},
        "radius": 1.0,
    },
    "composition": {
        "kind": "composition",
        "interval": [0.0, 1.0],
        "outer": "affine_mix",
        "inner": "weighted_square",
        "grid": {"rule": "simpson", "n": 101},
        "radius": 1.0,
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown preset {name!r}; available: {known}")
    # deep-ish copy so callers may tweak without mutating the registry
    import copy

    return copy.deepcopy(PRESETS[name])
