"""The three regular polytope series: simplex, crosspolytope, cube.

Coordinates follow the standard embeddings

    simplex        P_n = conv(e_1, ..., e_{n+1})        in R^{n+1}
    crosspolytope  P_n = conv(+-e_1, ..., +-e_n)        in R^n
    cube           P_n = conv({0,1}^n)                  in R^n

All vertex arrays are integer-valued and deterministic in order.  Canonical
faces Q_{i,n} are the representative i-dimensional faces used throughout:
conv(e_1, ..., e_{i+1}) for simplex and crosspolytope, and the coordinate
subcube spanned by the first i coordinates for the cube.

MODEL_TABLE is the one home of the reduction of the random-polytope models
to the series: each model is a random image of P_{n - shift} of its family.
A family on its own is the row Model(family, 0, False), P_n itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError, InvalidFaceError


class Family(str, Enum):
    SIMPLEX = "simplex"
    CROSSPOLYTOPE = "crosspolytope"
    CUBE = "cube"


def resolve_family(family: Family | str) -> Family:
    """The Family of a member or of its name; anything else raises InvalidArgumentError."""
    if type(family) is Family:  # a member is its own Family
        return family
    try:
        return Family(family)
    except ValueError:
        raise InvalidArgumentError(
            f"unknown family {family!r}, expected one of {tuple(f.value for f in Family)}"
        ) from None


@dataclass(frozen=True)
class Model:
    """A random-polytope model: with parameter n it is the image of P_{n - shift}
    of `family` under a d-column Gaussian matrix when `gaussian`, else under a
    uniform random orthogonal projection (Baryshnikov & Vitale).

    The projection's frame is the Q of a Gaussian matrix G = QR, and its image
    is G's image moved by R^-1, with the same face lattice: simulate draws a
    Gaussian matrix for both kinds.
    """

    family: Family
    shift: int
    gaussian: bool


# every model by name, in streams.MODEL_CODES order
MODEL_TABLE = MappingProxyType({
    "gaussian": Model(Family.SIMPLEX, 1, True),
    "symmetric": Model(Family.CROSSPOLYTOPE, 0, True),
    "zonotope": Model(Family.CUBE, 0, True),
    "projected_simplex": Model(Family.SIMPLEX, 1, False),
    "projected_crosspolytope": Model(Family.CROSSPOLYTOPE, 0, False),
    "projected_cube": Model(Family.CUBE, 0, False),
})


def model_row(name: str) -> Model:
    """The MODEL_TABLE row of `name`; an unknown name raises InvalidArgumentError."""
    if name not in MODEL_TABLE:
        raise InvalidArgumentError(f"unknown model {name!r}, expected one of {tuple(MODEL_TABLE)}")
    return MODEL_TABLE[name]


def target_row(target: Family | str) -> Model:
    """The row of a family name or member, P_n itself with shift 0, or else of a model name."""
    if target in tuple(Family):  # str-enum equality: names match members
        return Model(Family(target), 0, False)
    return model_row(target)


_MAX_CUBE_N = 15  # vertex arrays grow as 2^n; keep explicit desk-scale cap
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the natural log of the largest float


def check_int(name: str, v, lo: int | None = None) -> int:
    """v as a Python int: accepts int and NumPy integers, rejects bool.

    With lo given, a value below lo raises InvalidArgumentError too.
    """
    if type(v) is not int:  # a plain int, the common case, needs no conversion; a bool is not one
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise InvalidArgumentError(f"{name} must be an integer, got {v!r}")
        v = int(v)
    if lo is not None and v < lo:
        raise InvalidArgumentError(f"{name} must be >= {lo}, got {v}")
    return v


def check_real(name: str, v, lo: float | None = None, strict: bool = False,
               what: str = "a finite real number") -> float:
    """v as a Python float: accepts Python and NumPy reals, rejects bool.

    A value that is not finite, or with lo given is below lo (or equal to it
    when strict), raises InvalidArgumentError saying that name must be `what`.
    """
    if isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x) and (lo is None or x > lo or (x == lo and not strict)):
            return x
    raise InvalidArgumentError(f"{name} must be {what}, got {v!r}")


def exact_float(v: int | Fraction) -> float:
    """An exact count, or a rational built from counts, as a float; past the float range it is an InvalidDimensionError."""
    try:
        return float(v)
    except OverflowError:
        raise InvalidDimensionError(f"an exact value of about 2^{_bits(v)} is past the float range") from None


def _bits(v: int | Fraction) -> int:
    v = Fraction(v)
    return abs(v.numerator).bit_length() - v.denominator.bit_length()


def check_count_size(power_of_2: int, *binomials: tuple[int, int]) -> None:
    """Reject a count of at least 2^power_of_2 times the binomials C(a, b), before it is built, if it is past the float range.

    The count's log is bounded from below in floats, whatever its size, by
    C(a, b) >= (a / b)^b for b <= a / 2, which is 2^2048 or more from
    b = 2048 on; a count the bound passes has a few thousand bits at most,
    and exact_float decides it.
    """
    log = min(power_of_2, 2048) * math.log(2.0)
    for a, b in binomials:
        b = min(b, a - b)
        if b:
            log += min(b, 2048) * (math.log(a) - math.log(b))
    if log > LOG_FLOAT_MAX * (1 + 1e-12):  # room for rounding where the bound is the count, as for C(a, 1)
        raise InvalidDimensionError(f"an exact count of at least 2^{log / math.log(2.0):.0f} is past the float range")


def ambient_dim(family: Family, n: int) -> int:
    """Dimension of the ambient space the standard embedding lives in."""
    family = resolve_family(family)
    n = _check_n(family, n)
    return n + 1 if family is Family.SIMPLEX else n


def _check_n(family: Family, n: int) -> int:
    n = check_int("n", n)
    if n < 1:
        raise InvalidDimensionError(f"polytope dimension must be >= 1, got {n}")
    if family is Family.CUBE and n > _MAX_CUBE_N:
        raise InvalidDimensionError(
            f"cube vertex enumeration capped at n = {_MAX_CUBE_N}, got {n}"
        )
    return n


def vertices(family: Family, n: int) -> np.ndarray:
    """All vertices of P_n as an integer array, one vertex per row."""
    family = resolve_family(family)
    n = _check_n(family, n)
    if family is Family.SIMPLEX:
        return np.eye(n + 1, dtype=np.int64)
    if family is Family.CROSSPOLYTOPE:
        eye = np.eye(n, dtype=np.int64)
        return np.vstack([eye, -eye])
    # cube: vertex i has coordinate j equal to bit j of i
    idx = np.arange(2**n, dtype=np.int64)
    return (idx[:, None] >> np.arange(n)) & 1


def face_count(family: Family, m: int, ell: int, on_polytope: bool = True, fits_float: bool = False) -> int:
    """Number of ell-dimensional faces of an m-dimensional face of the series.

    `on_polytope=True` counts faces of the polytope P_m itself; False counts
    faces of a proper m-face of some larger P_n.  The flag only matters for the
    crosspolytope, whose proper faces are simplices rather than smaller
    crosspolytopes.  The face itself counts as its own (improper) face, so
    face_count(f, m, m) == 1.  With fits_float, a count past the float range
    is rejected by check_count_size before it is built.
    """
    family = resolve_family(family)
    m = check_int("m", m)
    ell = check_int("ell", ell)
    if m < 0 or ell < 0:
        raise InvalidArgumentError(f"face dimensions must be >= 0, got m={m}, ell={ell}")
    if ell > m:
        return 0
    if ell == m:
        return 1
    # the count is 2^power * C(a, b)
    if family is Family.CUBE:
        power, a, b = m - ell, m, ell
    elif family is Family.CROSSPOLYTOPE and on_polytope:
        power, a, b = ell + 1, m, ell + 1
    else:
        power, a, b = 0, m + 1, ell + 1
    if fits_float:
        check_count_size(power, (a, b))
    return 2**power * math.comb(a, b)


@dataclass(frozen=True)
class CanonicalFace:
    """The representative face Q_{i,n}: family, dimensions, and its vertex rows."""

    family: Family
    n: int
    dim: int
    vertices: np.ndarray

    def __post_init__(self):
        self.vertices.setflags(write=False)


def canonical_face(family: Family, n: int, i: int) -> CanonicalFace:
    """Q_{i,n}, the canonical i-face of P_n.

    For the simplex, i ranges over 0..n (i = n is P_n itself).  For the
    crosspolytope only proper faces exist canonically, so 0 <= i <= n-1.
    For the cube, 0 <= i <= n.
    """
    family = resolve_family(family)
    n = _check_n(family, n)
    i = check_int("face dimension", i)
    hi = n - 1 if family is Family.CROSSPOLYTOPE else n
    if i < 0 or i > hi:
        raise InvalidFaceError(
            f"no canonical {i}-face of the {family.value} P_{n} (valid range 0..{hi})"
        )
    if family is Family.CUBE:
        idx = np.arange(2**i, dtype=np.int64)
        verts = np.zeros((2**i, n), dtype=np.int64)
        if i > 0:
            verts[:, :i] = (idx[:, None] >> np.arange(i)) & 1
    else:
        d = ambient_dim(family, n)
        verts = np.eye(d, dtype=np.int64)[: i + 1]
    return CanonicalFace(family, n, i, verts)


def canonical_face_volume(family: Family, k: int, *factors: int | float) -> float:
    """k-dimensional volume of the canonical k-face of any P_n of the series, times the factors.

    Simplex-type faces (simplex and crosspolytope families) are regular
    simplices with edge length sqrt(2): Vol_k = sqrt(k+1)/k!, which is 1 at
    k = 0.  Cube faces are unit subcubes, volume 1.  The volume does not
    depend on n, so no face is built.  The factors are multiplied in floats,
    one after another, and the volume last, while every factor and k! are
    floats; past that (k! from k = 171 on) the exact product is rounded once,
    to 0.0 where it underflows, and is an InvalidDimensionError past the
    float range.  A k that is not an int >= 0 is an InvalidArgumentError.
    """
    k = check_int("k", k, 0)
    top, bottom = (1.0, 1) if resolve_family(family) is Family.CUBE else (math.sqrt(k + 1), math.factorial(k))
    try:
        return math.prod(factors) * (top / bottom)
    except OverflowError:  # an int factor or k! past the float range
        return exact_float(math.prod(map(Fraction, factors), start=Fraction(top)) / bottom)


def barycenter(face: CanonicalFace) -> np.ndarray:
    return face.vertices.mean(axis=0)
