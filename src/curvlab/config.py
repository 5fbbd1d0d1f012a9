"""JSON model and polynomial configuration.

Chart metrics are rational-function coefficient tables, frames are
structure-constant tables, products are factor lists.  Exponent keys are
comma-separated integers; all numeric leaves are rational strings ("p/q").
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ConfigError
from .geometry import ChartContext, FrameContext, GeometryContext, product
from .polys import Poly, RationalFunc
from .scalars import FLOAT


def _fraction(value) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational literal {value!r}") from exc


def check_jet_order(order: int) -> int:
    """order itself, or ConfigError unless it is at least 1."""
    if order < 1:
        raise ConfigError(f"jet order must be at least 1, got {order}")
    return order


def _poly(dim: int, data: dict) -> Poly:
    try:
        return Poly(dim, {tuple(int(s) for s in key.split(",")): _fraction(val)
                          for key, val in data.items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad polynomial table: {exc}") from exc


def context_from_config(cfg: dict) -> GeometryContext:
    try:
        return _context(cfg)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(
            f"bad model config: {type(exc).__name__}: {exc}") from exc


def _context(cfg: dict) -> GeometryContext:
    kind = cfg.get("kind")
    orientation = int(cfg.get("orientation", 1))
    if orientation not in (1, -1):
        raise ConfigError(f"orientation must be 1 or -1, got {orientation}")
    if kind == "chart":
        dim = int(cfg["dim"])
        exact = bool(cfg.get("exact", False))
        base = tuple(_fraction(x) for x in cfg["base_point"])
        if len(base) != dim:
            raise ConfigError("base_point arity does not match dim")
        rows = cfg["metric"]
        entries = []
        for i in range(dim):
            row = []
            for j in range(dim):
                e = rows[i][j]
                num = _poly(dim, e["num"])
                den = _poly(dim, e["den"]) if e.get("den") else None
                row.append(RationalFunc(num, den))
            entries.append(row)
        return ChartContext.from_polys(
            entries, base_point=base,
            jet_order=check_jet_order(int(cfg.get("jet_order", 3))),
            exact=exact, orientation=orientation,
            name=cfg.get("name", "chart"))
    if kind == "frame":
        dim = int(cfg["dim"])
        exact = bool(cfg.get("exact", True))
        sc = {}
        for item in cfg.get("structure", []):
            v = _fraction(item["c"])
            e, a, b = int(item["e"]), int(item["a"]), int(item["b"])
            sc[(e, a, b)] = v if exact else float(v)
            sc[(e, b, a)] = -v if exact else -float(v)
        g = [[_fraction(x) if exact else float(_fraction(x)) for x in row]
             for row in cfg["metric"]]
        kwargs = {} if exact else {"ring": FLOAT}
        return FrameContext(dim, sc, g, orientation=orientation,
                            name=cfg.get("name", "frame"), **kwargs)
    if kind == "product":
        factors = [_context(f) for f in cfg["factors"]]
        return product(factors, name=cfg.get("name", "product"))
    raise ConfigError(f"unknown context kind {kind!r}")


def load_model_file(path: str) -> GeometryContext:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model config {path}: {exc}") from exc
    return context_from_config(cfg)


def load_phi_file(path: str):
    from .invariants import load_phi
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read polynomial config {path}: {exc}") from exc
    try:
        return load_phi(cfg)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad invariant polynomial config: {exc}") from exc
