"""Expression trees for orientation-preserving homeomorphisms of the line.

Every node denotes a strictly increasing bijection of its domain (all of R
unless noted otherwise).  Trees are immutable after construction and
evaluation is pure, so expressions can be shared freely across threads.

The primitive chart used by the cell operators is

    hbar(x) = arctan(x)/pi + 1/2,

a homeomorphism from R onto (0, 1), with inverse tan(pi*(y - 1/2)).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import atan, floor, fsum, isfinite, pi, tan

from .errors import DomainError, PrecisionError

DEFAULT_EPS = 1e-12

# Width of the guard band inside (0, 1) where the inverse chart blows up.
BOUNDARY_DELTA = 1e-15

BISECT_MAX_ITER = 200
ENCLOSURE_MAX_ROUNDS = 16

_NODE_REGISTRY: dict[str, type["HomeoExpr"]] = {}


def _register(cls):
    _NODE_REGISTRY[cls.kind] = cls
    return cls


def _num(value):
    """Accept int, Fraction, or float parameters; keep exact types exact."""
    if isinstance(value, (int, Fraction)):
        return value
    return float(value)


def _num_to_jsonable(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


def _num_from_jsonable(value):
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    return value


def _listed(value):
    return list(value) if isinstance(value, tuple) else value


class HomeoExpr:
    """Base class for homeomorphism expression nodes."""

    __slots__ = ()
    kind = "abstract"

    #: True when evaluating this node needs iterative refinement (so the
    #: requested eps actually drives work, rather than being met for free
    #: by closed-form float evaluation).
    approximate = False

    #: The constructor's keyword parameters, in payload order.  The payload,
    #: the loader and equality are derived from them; children come first
    #: in the constructor's positional arguments.
    fields = ()

    def __call__(self, x, eps: float = DEFAULT_EPS) -> float:
        return evaluate(self, x, eps)

    def _eval(self, x: float, eps: float) -> float:
        raise NotImplementedError

    def structural_inverse(self):
        """Closed-form inverse expression, or None if bisection is needed."""
        return None

    def payload(self) -> dict:
        """The parameters by name, with tuples written as lists."""
        return {f: _listed(getattr(self, f)) for f in self.fields}

    def children(self) -> tuple:
        return ()

    @classmethod
    def _from_payload(cls, payload, children):
        return cls(*children,
                   **{f: _num_from_jsonable(payload[f]) for f in cls.fields})

    def _key(self):
        return (self.kind, tuple(getattr(self, f) for f in self.fields),
                self.children())

    def __eq__(self, other):
        if not isinstance(other, HomeoExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = [f"{k}={v!r}" for k, v in self.payload().items()]
        parts += [repr(c) for c in self.children()]
        return f"{type(self).__name__}({', '.join(parts)})"


def evaluate(h: HomeoExpr, x, eps: float = DEFAULT_EPS) -> float:
    """Evaluate h at x with requested absolute accuracy eps.

    Raises DomainError if x is outside the domain of h and PrecisionError
    if the requested accuracy is unattainable (inverse bisection budget,
    or arguments inside the chart guard band).

    This is the one public entry point and validates eps and x.  Nodes call
    their children's `_eval` directly where the argument is finite by
    construction, and `Compose` checks the intermediate values itself.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    x = float(x)
    if not isfinite(x):
        raise _non_finite(x)
    return h._eval(x, eps)


def _non_finite(x: float) -> DomainError:
    return DomainError(f"non-finite evaluation point {x!r}")


def _hbar(x: float) -> float:
    return atan(x) / pi + 0.5


def _hbar_inv(y: float, eps: float) -> float:
    if y <= 0.0 or y >= 1.0:
        raise DomainError(f"inverse chart needs an argument in (0, 1); got {y!r}")
    if y < BOUNDARY_DELTA or y > 1.0 - BOUNDARY_DELTA:
        # Clamping to the guard band would move the output by roughly
        # derivative * |shift|; fail loudly unless that is below eps.
        yc = min(max(y, BOUNDARY_DELTA), 1.0 - BOUNDARY_DELTA)
        t = tan(pi * (yc - 0.5))
        drift = pi * (1.0 + t * t) * abs(yc - y)
        if drift > eps:
            raise PrecisionError(
                f"argument {y!r} is within {BOUNDARY_DELTA} of the chart boundary")
        return t
    return tan(pi * (y - 0.5))


@_register
class Identity(HomeoExpr):
    """The identity map of R."""

    __slots__ = ()
    kind = "identity"

    def _eval(self, x, eps):
        return x

    def structural_inverse(self):
        return self


@_register
class Translate(HomeoExpr):
    """x -> x + a.  The amount may be an int, Fraction, or float; exact
    amounts keep lift normalization exact."""

    __slots__ = ("amount", "_af")
    kind = "translate"
    fields = ("amount",)

    def __init__(self, amount):
        self.amount = _num(amount)
        self._af = float(self.amount)

    def _eval(self, x, eps):
        return x + self._af

    def structural_inverse(self):
        return Translate(-self.amount)


@_register
class Affine(HomeoExpr):
    """x -> a*x + b with a > 0."""

    __slots__ = ("scale", "offset", "_sf", "_of")
    kind = "affine"
    fields = ("scale", "offset")

    def __init__(self, scale, offset):
        scale = _num(scale)
        if not float(scale) > 0.0:
            raise ValueError("affine scale must be positive")
        self.scale = scale
        self.offset = _num(offset)
        self._sf = float(scale)
        self._of = float(self.offset)

    def _eval(self, x, eps):
        return self._sf * x + self._of

    def structural_inverse(self):
        if isinstance(self.scale, (int, Fraction)) and isinstance(self.offset, (int, Fraction)):
            inv_scale = Fraction(1, 1) / Fraction(self.scale)
            return Affine(inv_scale, -Fraction(self.offset) * inv_scale)
        return Affine(1.0 / self._sf, -self._of / self._sf)


@_register
class HBar(HomeoExpr):
    """The chart hbar(x) = arctan(x)/pi + 1/2 from R onto (0, 1)."""

    __slots__ = ()
    kind = "hbar"

    def _eval(self, x, eps):
        return _hbar(x)

    def structural_inverse(self):
        return HBarInv()


@_register
class HBarInv(HomeoExpr):
    """Inverse chart y -> tan(pi*(y - 1/2)) on (0, 1)."""

    __slots__ = ()
    kind = "hbar_inv"

    def _eval(self, x, eps):
        return _hbar_inv(x, eps)

    def structural_inverse(self):
        return HBar()


#: Finest accuracy certifiable for cell transplants whose argument falls in
#: the chart guard band (the clamp moves the value by O(delta * slope)).
HAT_CLAMP_TOL = 1e-13


@_register
class CellHat(HomeoExpr):
    """Transplants inner onto each cell (edges[j] + m, edges[j+1] + m), m an
    integer, through the chart scaled to the cell; identity elsewhere.

    On the cell (lo + m, hi + m), with u = (x - lo - m) / (hi - lo):
        x -> lo + m + (hi - lo) * hbar(inner(hbar^{-1}(u))).
    The edges increase strictly and span at most one unit, so the cells are
    disjoint and the map commutes with the unit translation.  Every edge
    edges[j] + m is fixed exactly, except the last one when it is not
    edges[0] + 1: the chart guard-band clamp can move that wall by up to
    about BOUNDARY_DELTA.
    """

    __slots__ = ("inner", "edges", "approximate", "_lo", "_width", "_search")
    kind = "cell_hat"
    fields = ("edges",)

    def __init__(self, inner: HomeoExpr, edges):
        edges = tuple(float(e) for e in edges)
        # fsum rounds the exact edges[-1] - edges[0] - 1 correctly, so it keeps
        # the sign that a float span rounded to 1.0 would lose
        if not (len(edges) >= 2 and all(a < b for a, b in zip(edges, edges[1:]))
                and fsum((edges[-1], -edges[0], -1.0)) <= 0.0):
            raise ValueError("cell edges must be at least two, strictly "
                             "increasing and span at most one unit")
        self.inner = inner
        self.edges = edges
        self.approximate = inner.approximate
        # the first cell, and whether there are others to search
        self._lo, self._width = edges[0], edges[1] - edges[0]
        self._search = len(edges) > 2

    def _eval(self, x, eps):
        lo = self._lo
        d = x - lo
        m = floor(d)
        width = self._width
        if self._search:
            # the cell of x - m; a point in no cell gets the last one, where
            # u below is >= 1
            edges = self.edges
            j = bisect_right(edges, x - m, 1, len(edges) - 1) - 1
            if j:
                lo = edges[j]
                width = edges[j + 1] - lo
                d = x - lo
                m = floor(d)
        u = (d - m) / width
        if not 0.0 < u < 1.0:
            return x
        # hbar has slope <= 1/pi and the cell width is <= 1, so inner's error
        # shrinks.  Unlike bare HBarInv, u next to a wall is clamped into the
        # chart's safe band: the displacement vanishes at the walls, so the
        # clamp moves the value by far less than any eps above HAT_CLAMP_TOL.
        if u < BOUNDARY_DELTA or u > 1.0 - BOUNDARY_DELTA:
            if eps < HAT_CLAMP_TOL:
                raise PrecisionError(
                    f"cell argument {u!r} is in the chart guard band; cannot "
                    f"certify accuracy {eps!r}")
            u = min(max(u, BOUNDARY_DELTA), 1.0 - BOUNDARY_DELTA)
        v = atan(self.inner._eval(tan(pi * (u - 0.5)), eps)) / pi + 0.5
        return lo + m + v * width

    def structural_inverse(self):
        return CellHat(inverse(self.inner), self.edges)

    def children(self):
        return (self.inner,)


#: The edges of the unit cells (i, i+1).
UNIT_EDGES = (0.0, 1.0)


def UnitCellHat(inner: HomeoExpr) -> CellHat:
    """inner transplanted onto each unit cell (i, i+1); fixes the integers."""
    return CellHat(inner, UNIT_EDGES)


def ArcHat(inner: HomeoExpr, lo, hi) -> CellHat:
    """inner transplanted onto the cells (lo + m, hi + m), 0 < hi - lo <= 1."""
    return CellHat(inner, (lo, hi))


#: Kinds earlier versions wrote, still loaded: (payload, children) -> node
_LOAD_ONLY_KINDS = {
    "unit_cell_hat": lambda p, kids: UnitCellHat(*kids),
    "arc_hat": lambda p, kids: ArcHat(*kids, p["lo"], p["hi"]),
}


def _pchip_interior(h0, h1, d0, d1):
    # Fritsch-Carlson weighted harmonic mean; positive for increasing data.
    if d0 <= 0.0 or d1 <= 0.0:
        return 0.0
    w1 = 2.0 * h1 + h0
    w2 = h1 + 2.0 * h0
    return (w1 + w2) / (w1 / d0 + w2 / d1)


def _pchip_endpoint(h0, h1, d0, d1):
    t = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if t * d0 <= 0.0:
        return 0.0
    if d0 * d1 < 0.0 and abs(t) > 3.0 * abs(d0):
        return 3.0 * d0
    return t


@_register
class PiecewiseMonotone(HomeoExpr):
    """Monotone interpolant through strictly increasing breakpoints.

    interpolation: "cubic" (Fritsch-Carlson monotone cubic, the default) or
    "linear".

    extension: how the table extends to all of R.
      "linear"   - continue with the end-segment secant slopes.
      "periodic" - the map commutes with the unit translation; the table
                   must span less than one period in both coordinates and
                   is closed by the wrap segment to (xs[0]+1, ys[0]+1).
    """

    __slots__ = ("xs", "ys", "interpolation", "extension", "_knots",
                 "_segment_count", "_segments", "_lo_slope", "_hi_slope",
                 "_periodic", "_x_first", "_x_wrap", "_x_last")
    kind = "piecewise_monotone"
    fields = ("xs", "ys", "interpolation", "extension")

    def __init__(self, xs, ys, interpolation="cubic", extension="linear"):
        xs = tuple(float(v) for v in xs)
        ys = tuple(float(v) for v in ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need at least two breakpoints")
        for a, b in zip(xs, xs[1:]):
            if not b > a:
                raise ValueError("breakpoint x values must be strictly increasing")
        for a, b in zip(ys, ys[1:]):
            if not b > a:
                raise ValueError("breakpoint y values must be strictly increasing")
        if interpolation not in ("cubic", "linear"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        if extension not in ("linear", "periodic"):
            raise ValueError(f"unknown extension {extension!r}")
        self._periodic = extension == "periodic"
        if self._periodic:
            if not (xs[-1] - xs[0] < 1.0 and ys[-1] - ys[0] < 1.0):
                raise ValueError("periodic table must span less than one period")
        self.xs = xs
        self.ys = ys
        self.interpolation = interpolation
        self.extension = extension
        # Segment i runs from knot i to knot i+1 of _knots, which closes a
        # periodic table with the knot (xs[0]+1, ys[0]+1): its wrap segment
        # is the last segment.
        self._x_first, self._x_wrap, self._x_last = xs[0], xs[0] + 1.0, xs[-1]
        self._knots = ((xs + (self._x_wrap,), ys + (ys[0] + 1.0,))
                       if self._periodic else (xs, ys))
        self._segment_count = len(self._knots[0]) - 1
        # Linear tables compute each segment from _knots: the long linear
        # tables built by approximate_poincare_conjugacy would pay memory
        # for a segment table and gain little from it.
        self._segments = self._cubic_segments() if interpolation == "cubic" else None
        self._lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        self._hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])

    def _compute_tangents(self):
        kx, ky = self._knots
        gaps = [b - a for a, b in zip(kx, kx[1:])]
        secs = [(b - a) / h for a, b, h in zip(ky, ky[1:], gaps)]
        n = len(self.xs)
        if self._periodic:
            # every knot is interior: the wrap segment comes before knot 0
            return tuple(_pchip_interior(gaps[i - 1], gaps[i], secs[i - 1], secs[i])
                         for i in range(n))
        tangents = [0.0] * n
        tangents[0] = _pchip_endpoint(gaps[0], gaps[1] if n > 2 else gaps[0],
                                      secs[0], secs[1] if n > 2 else secs[0])
        tangents[-1] = _pchip_endpoint(gaps[-1], gaps[-2] if n > 2 else gaps[-1],
                                       secs[-1], secs[-2] if n > 2 else secs[-1])
        for i in range(1, n - 1):
            tangents[i] = _pchip_interior(gaps[i - 1], gaps[i], secs[i - 1], secs[i])
        return tuple(tangents)

    def _cubic_segments(self):
        """(x0, h, y0, y1, h*d0, h*d1) for each segment of _knots."""
        kx, ky = self._knots
        d = self._compute_tangents()
        if self._periodic:
            d += d[:1]      # the closing knot is knot 0 shifted by one period
        segments = []
        for i in range(self._segment_count):
            h = kx[i + 1] - kx[i]
            segments.append((kx[i], h, ky[i], ky[i + 1], h * d[i], h * d[i + 1]))
        return tuple(segments)

    def _eval(self, x, eps):
        xs, ys = self._knots
        x_first = self._x_first
        periodic = self._periodic
        if periodic:
            m = floor(x - x_first)
            t = x - m
            if t < x_first:
                m -= 1
                t = x - m
            elif t >= self._x_wrap:
                m += 1
                t = x - m
            # the segment of t among the segment starts: the first one when
            # rounding leaves t below xs[0], the wrap segment from xs[-1] on,
            # even at or past the closing knot (t = 0.0 at |x| >= 2**53)
            i = bisect_right(xs, t, 1, self._segment_count) - 1
            if t == xs[i]:
                return ys[i] + m
        else:
            if x <= x_first:
                return ys[0] + (x - x_first) * self._lo_slope
            if x >= self._x_last:
                return ys[-1] + (x - self._x_last) * self._hi_slope
            i = bisect_right(xs, x) - 1
            if x == xs[i]:
                return ys[i]
            t = x
        segments = self._segments
        if segments is None:
            x0, y0 = xs[i], ys[i]
            v = y0 + (t - x0) * (ys[i + 1] - y0) / (xs[i + 1] - x0)
        else:
            # Cubic Hermite form on the segment, s in [0, 1).
            x0, h, y0, y1, hd0, hd1 = segments[i]
            s = (t - x0) / h
            s2 = s * s
            s3 = s2 * s
            v = (y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
                 + hd0 * (s3 - 2.0 * s2 + s)
                 + y1 * (-2.0 * s3 + 3.0 * s2)
                 + hd1 * (s3 - s2))
        return v + m if periodic else v

    def structural_inverse(self):
        if self.interpolation == "linear":
            return PiecewiseMonotone(self.ys, self.xs, "linear", self.extension)
        return None


@_register
class Compose(HomeoExpr):
    """Compose(f1, ..., fm) is f1 after ... after fm: x -> f1(f2(...fm(x))).
    Nested composes are flattened on construction.

    Closed-form members get the caller's eps.  Each approximate member gets
    a share of eps, and the interval its error allows is pushed through the
    rest of the chain (every member is increasing, so this encloses the
    exact value); the shares shrink until the enclosure is 2*eps wide.
    """

    __slots__ = ("members", "approximate")
    kind = "compose"

    def __init__(self, *members: HomeoExpr):
        flat = []
        approximate = False
        for h in members:
            if isinstance(h, Compose):
                flat.extend(h.members)
            else:
                flat.append(h)
            if h.approximate:
                approximate = True
        if len(flat) < 2:
            raise ValueError("compose needs at least two members")
        self.members = tuple(flat)
        self.approximate = approximate

    def _eval(self, x, eps):
        # A member can overflow to an infinite value, so each member's
        # argument is checked as `evaluate` checks it before the member's
        # `_eval` is called directly.
        if not self.approximate:
            for h in reversed(self.members):
                if not isfinite(x):
                    raise _non_finite(x)
                x = h._eval(x, eps)
            return x
        share = eps / (2 * sum(1 for h in self.members if h.approximate))
        for _ in range(ENCLOSURE_MAX_ROUNDS):
            lo = hi = x
            for h in reversed(self.members):
                if h.approximate:
                    if share <= 0.0:    # a share of a tiny eps underflows
                        raise ValueError("eps must be positive")
                    e = share
                else:
                    e = eps
                if not isfinite(lo):
                    raise _non_finite(lo)
                if lo == hi:
                    lo = hi = h._eval(lo, e)
                else:
                    lo = h._eval(lo, e)
                    if not isfinite(hi):
                        raise _non_finite(hi)
                    hi = h._eval(hi, e)
                if h.approximate:
                    lo, hi = lo - share, hi + share
            width = hi - lo
            if width <= 2.0 * eps:
                return 0.5 * lo + 0.5 * hi     # no overflow near the largest float
            share *= eps / width
        raise PrecisionError(f"composition did not reach eps={eps!r} in "
                             f"{ENCLOSURE_MAX_ROUNDS} rounds (width {width!r})")

    def structural_inverse(self):
        return Compose(*[inverse(h) for h in reversed(self.members)])

    def children(self):
        return self.members


@_register
class Inverse(HomeoExpr):
    """Formal inverse, evaluated by monotone bisection.  `inverse` builds one
    only for a node without a closed-form inverse."""

    __slots__ = ("inner",)
    kind = "inverse"
    approximate = True

    def __init__(self, inner: HomeoExpr):
        self.inner = inner

    def _eval(self, x, eps):
        return _bisect_inverse(self.inner, x, eps)

    def structural_inverse(self):
        return self.inner

    def children(self):
        return (self.inner,)

    @classmethod
    def _from_payload(cls, payload, children):
        return inverse(*children)


def _bisect_inverse(h: HomeoExpr, y: float, eps: float) -> float:
    """Solve h(x) = y for increasing h: R -> R by bracketing bisection.

    For finite y every point h is evaluated at is finite: the bracket moves
    at most 2**81 from y, and a midpoint is only taken while hi - lo > eps,
    which needs |y| far below the overflow threshold.  Midpoints are taken
    as 0.5*lo + 0.5*hi, which equals 0.5*(lo + hi) but cannot overflow when
    lo and hi lie near the largest float.
    """
    feval = eps * 1e-2
    if feval <= 0.0:
        raise ValueError("eps must be positive")
    lo, hi = y - 1.0, y + 1.0
    step = 1.0
    for _ in range(80):
        if h._eval(lo, feval) <= y:
            break
        step *= 2.0
        lo -= step
    else:
        raise PrecisionError("failed to bracket the inverse from below")
    step = 1.0
    for _ in range(80):
        if h._eval(hi, feval) >= y:
            break
        step *= 2.0
        hi += step
    else:
        raise PrecisionError("failed to bracket the inverse from above")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= eps:
            return mid
        if h._eval(mid, feval) < y:
            lo = mid
        else:
            hi = mid
    raise PrecisionError(
        f"inverse bisection did not reach eps={eps!r} in {BISECT_MAX_ITER} steps")


def inverse(h: HomeoExpr) -> HomeoExpr:
    """Inverse expression: structural closed forms where they exist,
    a bisection-backed formal Inverse node otherwise."""
    s = h.structural_inverse()
    return s if s is not None else Inverse(h)


def power(h: HomeoExpr, k: int) -> HomeoExpr:
    """k-th compositional power, with closed forms for translation-like and
    cell-hat nodes (the hat operator is a homomorphism in its argument)."""
    if k == 0:
        return Identity()
    if k < 0:
        return power(inverse(h), -k)
    if isinstance(h, Identity):
        return h
    if isinstance(h, Translate):
        return Translate(h.amount * k)
    if isinstance(h, Affine):
        a, b = h.scale, h.offset
        if float(a) == 1.0:
            return Translate(b * k)
        scale = a ** k
        return Affine(scale, b * (scale - 1) / (a - 1))
    if isinstance(h, CellHat):
        return CellHat(power(h.inner, k), h.edges)
    return h if k == 1 else Compose(*[h] * k)


def compose_all(exprs) -> HomeoExpr:
    """Composition of the sequence, applied right to left; Identity for an
    empty sequence."""
    exprs = [e for e in exprs if not isinstance(e, Identity)]
    if not exprs:
        return Identity()
    return exprs[0] if len(exprs) == 1 else Compose(*exprs)


def expr_to_jsonable(h: HomeoExpr) -> dict:
    doc = {"kind": h.kind}
    payload = {k: _num_to_jsonable(v) for k, v in h.payload().items()}
    doc.update(payload)
    kids = h.children()
    if kids:
        doc["children"] = [expr_to_jsonable(c) for c in kids]
    return doc


def expr_from_jsonable(doc: dict) -> HomeoExpr:
    kind = doc.get("kind")
    cls = _NODE_REGISTRY.get(kind)
    load = cls._from_payload if cls is not None else _LOAD_ONLY_KINDS.get(kind)
    if load is None:
        raise ValueError(f"unknown expression node kind {kind!r}")
    children = tuple(expr_from_jsonable(c) for c in doc.get("children", ()))
    payload = {k: v for k, v in doc.items() if k not in ("kind", "children")}
    try:
        return load(payload, children)
    except TypeError as exc:    # parameters or children that do not fit
        raise ValueError(f"malformed {kind!r} node: {exc}") from exc
