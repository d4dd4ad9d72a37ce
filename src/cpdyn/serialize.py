"""JSON encoding of matrices and family specs.

Complex matrices are stored as nested arrays of ``[re, im]`` pairs in
row-major order; family specs carry a ``variant`` tag followed by their
dataclass fields in declaration order.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .families import (
    ClassicalQuantumSpec,
    DirectSumSpec,
    FactorizedSpec,
    KernelExtendedSpec,
    MarkovBlocksSpec,
    MixedDirectSumSpec,
    SteeredSpec,
)

__all__ = ["mat_to_json", "mat_from_json", "spec_to_json", "spec_from_json"]

_VARIANTS = {
    "factorized": FactorizedSpec,
    "classical-quantum": ClassicalQuantumSpec,
    "direct-sum": DirectSumSpec,
    "mixed-direct-sum": MixedDirectSumSpec,
    "markov-blocks": MarkovBlocksSpec,
    "steered": SteeredSpec,
    "kernel-extended": KernelExtendedSpec,
}
_VARIANT_OF = {cls: name for name, cls in _VARIANTS.items()}


def mat_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def mat_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _encode(x):
    if is_dataclass(x):
        return spec_to_json(x)
    if isinstance(x, np.ndarray):
        return mat_to_json(x)
    if isinstance(x, tuple):
        return [_encode(y) for y in x]
    return x


def _decode(tp, x):
    """Inverse of ``_encode`` for a field of declared type ``tp``."""
    if tp is np.ndarray:
        return mat_from_json(x)
    if is_dataclass(tp):
        return spec_from_json(x)
    if get_origin(tp) is tuple:
        return tuple(_decode(get_args(tp)[0], y) for y in x)
    return tp(x)


def spec_to_json(spec) -> dict:
    if type(spec) not in _VARIANT_OF:
        raise TypeError(f"cannot serialize {type(spec).__name__}")
    out = {"variant": _VARIANT_OF[type(spec)]}
    for f in fields(spec):
        out[f.name] = _encode(getattr(spec, f.name))
    return out


def spec_from_json(data: dict):
    variant = data["variant"]
    if variant not in _VARIANTS:
        raise ValueError(f"unknown family variant {variant!r}")
    cls = _VARIANTS[variant]
    types = get_type_hints(cls)
    return cls(*(_decode(types[f.name], data[f.name]) for f in fields(cls)))
