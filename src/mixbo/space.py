"""Mixed search spaces and the warp onto the unit cube.

A search space is an ordered list of parameter specifications. Four kinds
are supported: real, integer, boolean, and categorical. The optimizer
works internally on numeric vectors in [0, 1]^D with one coordinate per
parameter: real and integer coordinates are placed by affine or log-ratio
scaling, and a qualitative parameter with K ``choices`` (``(False,
True)`` for a boolean, the labels for a categorical) puts choice k at
k/(K-1); arm k of its bandit is ``choices[k]``. Integer, boolean, and
categorical coordinates therefore live on a lattice inside the cube;
``unwarp`` rounds to the nearest lattice value with ties toward the lower
one. The warp is exact on the lattice: ``unwarp(warp(p))`` gives back
every integer and qualitative value, while a real value comes back
within floating-point rounding (a few ulps), not always bit for bit.

Dimensions are grouped into three blocks by kind: real dims form the
x-block, integer dims the y-block, boolean and categorical dims the
z-block. The surrogate treats each block with its own kernel, and the
qualitative bandits act only on the z-block.

All types are immutable after construction. Operations are pure except
``random_point``, which consumes the caller's RNG.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

KINDS = ("real", "integer", "boolean", "categorical")
SCALES = ("linear", "log")

#: A concrete configuration: one typed value per parameter name.
Point = dict[str, Any]


class ValidationError(ValueError):
    """A parameter value or specification violates its constraints."""


def is_integer(value: Any) -> bool:
    """True for a Python or NumPy integer; a bool is not one."""
    # int first: an isinstance check against an ABC takes several times longer
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def _round_half_down(x: float) -> int:
    """Round to the nearest integer with exact .5 ties toward the lower value."""
    return int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class ParamSpec:
    """Specification of a single parameter.

    Parameters
    ----------
    name : str
        Unique identifier within the space.
    kind : str
        One of ``"real"``, ``"integer"``, ``"boolean"``, ``"categorical"``.
    lo, hi : float, optional
        Inclusive bounds, required for real and integer parameters.
    scale : str
        ``"linear"`` or ``"log"`` (real/integer only; log requires lo > 0).
    categories : tuple of str, optional
        Ordered distinct labels, required for categorical parameters
        (at least two).
    """

    name: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    scale: str = "linear"
    categories: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError("parameter name must be a nonempty string")
        if self.kind not in KINDS:
            raise ValidationError(
                f"parameter {self.name!r}: kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.scale not in SCALES:
            raise ValidationError(
                f"parameter {self.name!r}: scale must be one of {SCALES}, got {self.scale!r}"
            )
        if self.kind in ("real", "integer"):
            if self.lo is None or self.hi is None:
                raise ValidationError(f"parameter {self.name!r}: lo and hi are required")
            for bound in (self.lo, self.hi):
                if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                    raise ValidationError(f"parameter {self.name!r}: bounds must be numbers, got {bound!r}")
            # the warp divides by the span, or on a log scale by the log of
            # the ratio; an int beyond the float range raises OverflowError
            try:
                sizes = [self.lo, self.hi, self.hi - self.lo]
                if self.scale == "log" and self.lo > 0:
                    sizes.append(self.hi / self.lo)
                finite = all(math.isfinite(v) for v in sizes)
            except OverflowError:
                finite = False
            if not finite:
                raise ValidationError(f"parameter {self.name!r}: bounds, span and log-scale ratio must be finite floats")
            if not self.lo < self.hi:
                raise ValidationError(
                    f"parameter {self.name!r}: lo must be < hi, got [{self.lo}, {self.hi}]"
                )
            if self.kind == "integer" and (
                self.lo != int(self.lo) or self.hi != int(self.hi)
            ):
                raise ValidationError(f"parameter {self.name!r}: integer bounds must be integers")
            if self.scale == "log" and self.lo <= 0:
                raise ValidationError(f"parameter {self.name!r}: log scale requires lo > 0")
            if self.categories is not None:
                raise ValidationError(f"parameter {self.name!r}: categories not allowed here")
        elif self.kind == "boolean":
            if self.lo is not None or self.hi is not None or self.categories is not None:
                raise ValidationError(f"parameter {self.name!r}: boolean takes no bounds or categories")
            if self.scale != "linear":
                raise ValidationError(f"parameter {self.name!r}: boolean takes no scale")
        else:  # categorical
            if self.lo is not None or self.hi is not None:
                raise ValidationError(f"parameter {self.name!r}: categorical takes no bounds")
            if self.scale != "linear":
                raise ValidationError(f"parameter {self.name!r}: categorical takes no scale")
            if self.categories is None or len(self.categories) < 2:
                raise ValidationError(f"parameter {self.name!r}: need at least 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise ValidationError(f"parameter {self.name!r}: category labels must be unique")
            if not all(isinstance(c, str) for c in self.categories):
                raise ValidationError(f"parameter {self.name!r}: category labels must be strings")

    @property
    def is_qualitative(self) -> bool:
        return self.kind in ("boolean", "categorical")

    @property
    def choices(self) -> tuple:
        """Values of a qualitative parameter in arm order: ``(False, True)`` or the categories."""
        if self.kind == "boolean":
            return (False, True)
        if self.kind == "categorical":
            return self.categories  # type: ignore[return-value]
        raise ValidationError(f"parameter {self.name!r} is not qualitative")

    @property
    def n_arms(self) -> int:
        """Number of bandit arms (qualitative parameters only)."""
        return len(self.choices)

    def validate_value(self, value: Any) -> None:
        """Raise ValidationError unless value is admissible for this parameter."""
        if self.kind in ("real", "integer"):
            # Python and NumPy numbers alike, the Python types checked first
            # as in is_integer; a bool or np.bool_ is not one
            if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
                wanted = "a real number" if self.kind == "real" else "an integer"
                raise ValidationError(f"parameter {self.name!r}: expected {wanted}, got {value!r}")
            if self.kind == "integer" and not is_integer(value):
                if not math.isfinite(value):
                    raise ValidationError(f"parameter {self.name!r}: value {value!r} is not finite")
                if value != int(value):
                    raise ValidationError(f"parameter {self.name!r}: value {value!r} is not integral")
            if not (self.lo <= value <= self.hi):
                raise ValidationError(
                    f"parameter {self.name!r}: value {value!r} outside [{self.lo}, {self.hi}]"
                )
        elif self.kind == "boolean" and not isinstance(value, (bool, np.bool_)):
            # 1 and 0.0 equal True and False, so membership alone admits them
            raise ValidationError(f"parameter {self.name!r}: expected a boolean, got {value!r}")
        elif value not in self.choices:
            raise ValidationError(f"parameter {self.name!r}: {value!r} is not one of {list(self.choices)}")

    def warp_value(self, value: Any) -> float:
        """Map an admissible raw value to its coordinate in [0, 1]."""
        self.validate_value(value)
        if self.is_qualitative:
            return self.choices.index(value) / (self.n_arms - 1)
        if self.scale == "log":
            return math.log(float(value) / self.lo) / math.log(self.hi / self.lo)
        return (float(value) - self.lo) / (self.hi - self.lo)

    def unwarp_value(self, coord: float) -> Any:
        """Map a coordinate in [0, 1] back to a raw value.

        Integer, boolean, and categorical coordinates round to the nearest
        lattice value, ties toward the lower one.
        """
        if not (0.0 <= coord <= 1.0):
            raise ValidationError(f"parameter {self.name!r}: coordinate {coord} outside [0, 1]")
        if self.is_qualitative:
            return self.choices[_round_half_down(coord * (self.n_arms - 1))]
        if self.scale == "log":
            raw = self.lo * math.exp(coord * math.log(self.hi / self.lo))
        else:
            raw = self.lo + coord * (self.hi - self.lo)
        if self.kind == "integer":
            return int(min(max(_round_half_down(raw), self.lo), self.hi))
        return float(min(max(raw, self.lo), self.hi))


@dataclass(frozen=True, eq=False)
class Blocks:
    """Index arrays of the x (real), y (integer), and z (qualitative) blocks."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @classmethod
    def all_real(cls, dim: int) -> "Blocks":
        """Treat every dimension as continuous (plain Matern surrogate)."""
        empty = np.array([], dtype=np.intp)
        return cls(x=np.arange(dim, dtype=np.intp), y=empty, z=empty)


class SearchSpace:
    """An ordered collection of parameters plus the warp machinery.

    Parameters keep their given order; coordinate i of a warped vector
    always belongs to ``params[i]``.
    """

    def __init__(self, params: Sequence[ParamSpec]):
        params = tuple(params)
        if not params:
            raise ValidationError("a search space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValidationError("parameter names must be unique")
        self._params = params
        self._index = {p.name: i for i, p in enumerate(params)}
        self._blocks = Blocks(
            x=np.array([i for i, p in enumerate(params) if p.kind == "real"], dtype=np.intp),
            y=np.array([i for i, p in enumerate(params) if p.kind == "integer"], dtype=np.intp),
            z=np.array([i for i, p in enumerate(params) if p.is_qualitative], dtype=np.intp),
        )

    @property
    def params(self) -> tuple[ParamSpec, ...]:
        return self._params

    @property
    def dim(self) -> int:
        return len(self._params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._params)

    @property
    def blocks(self) -> Blocks:
        return self._blocks

    @property
    def qualitative_params(self) -> list[ParamSpec]:
        return [p for p in self._params if p.is_qualitative]

    def index(self, name: str) -> int:
        return self._index[name]

    def _values(self, point: Point):
        """Yield (spec, value) per parameter, in order, checking only the keys.

        Raises ValidationError first for any unknown key, then for a
        missing parameter when its turn comes.
        """
        extra = set(point) - set(self._index)
        if extra:
            raise ValidationError(f"unknown parameters: {sorted(extra)}")
        for p in self._params:
            if p.name not in point:
                raise ValidationError(f"parameter {p.name!r} is missing")
            yield p, point[p.name]

    def validate(self, point: Point) -> None:
        """Raise ValidationError unless point has exactly one admissible value per parameter."""
        for p, value in self._values(point):
            p.validate_value(value)

    def warp(self, point: Point) -> np.ndarray:
        """Map a valid point to its coordinate vector in [0, 1]^D.

        Raises ValidationError as :meth:`validate` does, checking each
        value once, as it is warped.
        """
        return np.array([p.warp_value(value) for p, value in self._values(point)], dtype=float)

    def unwarp(self, coords: np.ndarray) -> Point:
        """Map a coordinate vector back to a point (inverse of warp on the lattice)."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise ValidationError(f"expected shape ({self.dim},), got {coords.shape}")
        return {p.name: p.unwarp_value(float(c)) for p, c in zip(self._params, coords)}

    def snap(self, coords: np.ndarray) -> np.ndarray:
        """Project warped vectors onto the representable lattice.

        Vectorized over rows: integer, boolean and categorical coordinates
        become the exact coordinates of the values they evaluate as, so
        ``warp(unwarp(snap(w))) == snap(w)``, and real coordinates of both
        scales pass through unchanged. A log-scale integer's coordinate is
        :meth:`ParamSpec.warp_value` of its value, computed once per
        distinct value. ``warp(unwarp(w))`` itself may differ from
        ``snap(w)`` at a coordinate exactly half-way between two
        integers, where ``np.exp`` and ``unwarp``'s ``math.exp`` may
        round to different neighbours.
        """
        w = np.atleast_2d(np.asarray(coords, dtype=float)).copy()
        if w.shape[1] != self.dim:
            raise ValidationError(f"expected {self.dim} columns, got {w.shape[1]}")
        for i, p in enumerate(self._params):
            col = w[:, i]
            if p.is_qualitative:
                k = p.n_arms - 1
                w[:, i] = np.ceil(col * k - 0.5).clip(0, k) / k
            elif p.kind == "integer":
                if p.scale == "log":
                    raw = p.lo * np.exp(col * math.log(p.hi / p.lo))
                    vals = np.ceil(raw - 0.5).clip(p.lo, p.hi)
                    # np.log may differ from warp_value's math.log in the last bit
                    distinct, inverse = np.unique(vals, return_inverse=True)
                    w[:, i] = np.array([p.warp_value(int(v)) for v in distinct])[inverse]
                else:
                    span = p.hi - p.lo
                    vals = np.ceil(p.lo + col * span - 0.5).clip(p.lo, p.hi)
                    w[:, i] = (vals - p.lo) / span
        return w if np.asarray(coords).ndim == 2 else w[0]

    def random_point(self, rng: np.random.Generator) -> Point:
        """Sample uniformly in the warped cube and unwarp."""
        return self.unwarp(rng.random(self.dim))

    def to_dict(self) -> dict:
        """JSON-ready description using the documented schema."""
        out = []
        for p in self._params:
            d: dict[str, Any] = {"name": p.name, "kind": p.kind}
            if p.kind in ("real", "integer"):
                d["lo"] = p.lo
                d["hi"] = p.hi
                if p.scale != "linear":
                    d["scale"] = p.scale
            if p.kind == "categorical":
                d["categories"] = list(p.categories)  # type: ignore[arg-type]
            out.append(d)
        return {"params": out}


def space_from_dict(doc: dict) -> SearchSpace:
    """Build a SearchSpace from the documented JSON schema.

    The schema is ``{"params": [{"name": ..., "kind": ...,
    "lo": ..., "hi": ..., "scale": ..., "categories": [...]}, ...]}``
    where lo/hi/scale apply to real and integer parameters and
    categories to categorical ones.
    """
    if not isinstance(doc, dict) or "params" not in doc:
        raise ValidationError('space document must be an object with a "params" list')
    entries = doc["params"]
    if not isinstance(entries, list):
        raise ValidationError('"params" must be a list')
    specs = []
    allowed = {"name", "kind", "lo", "hi", "scale", "categories"}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValidationError(f"parameter entries must be objects, got {entry!r}")
        unknown = set(entry) - allowed
        if unknown:
            raise ValidationError(f"unknown parameter fields: {sorted(unknown)}")
        cats = entry.get("categories")
        if cats is not None and not isinstance(cats, list):
            raise ValidationError(f"parameter {entry.get('name')!r}: categories must be a list, got {cats!r}")
        specs.append(
            ParamSpec(
                name=entry.get("name", ""),
                kind=entry.get("kind", ""),
                lo=entry.get("lo"),
                hi=entry.get("hi"),
                scale=entry.get("scale", "linear"),
                categories=tuple(cats) if cats is not None else None,
            )
        )
    return SearchSpace(specs)


def space_from_json(text: str) -> SearchSpace:
    """Parse a JSON document (see space_from_dict for the schema)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return space_from_dict(doc)
