"""Exact interval arithmetic and trigonometric sums over two angle variables.

Angles are rational numbers of degrees throughout.  Radians appear only
inside the sine and cosine enclosures, which scale by a rational bracket of
pi; nothing in this module touches floating point, and there is no interval
division anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

MIN_PRECISION = 7
_GUARD = 8  # extra working digits behind every enclosure


def _cdiv(a: int, b: int) -> int:
    """Ceiling division for b > 0."""
    return -((-a) // b)


class Interval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def exact(cls, v) -> "Interval":
        v = Fraction(v)
        return cls(v, v)

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        return Interval(self.lo - other, self.hi - other)

    def __rsub__(self, other):
        return Interval(other - self.hi, other - self.lo)

    def __mul__(self, other):
        if isinstance(other, Interval):
            ps = (self.lo * other.lo, self.lo * other.hi,
                  self.hi * other.lo, self.hi * other.hi)
            return Interval(min(ps), max(ps))
        other = Fraction(other)
        if other >= 0:
            return Interval(self.lo * other, self.hi * other)
        return Interval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __contains__(self, v) -> bool:
        return self.lo <= v <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def scaled_bounds(self, precision: int) -> tuple[int, int]:
        """Endpoints as integers times 10^-precision, rounded outward."""
        s = 10 ** precision
        lo = self.lo.numerator * s // self.lo.denominator
        hi = _cdiv(self.hi.numerator * s, self.hi.denominator)
        return lo, hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


def quantize_outward(iv: Interval, precision: int) -> Interval:
    """Push both endpoints outward onto the 10^-precision grid."""
    s = 10 ** precision
    lo, hi = iv.scaled_bounds(precision)
    return Interval(Fraction(lo, s), Fraction(hi, s))


# --- pi ---------------------------------------------------------------

def _atan_inv_bracket(k: int, scale: int) -> tuple[int, int]:
    # arctan(1/k) = sum (-1)^j / ((2j+1) k^(2j+1)), terms strictly shrinking,
    # so consecutive partial sums bracket the limit; every division is rounded
    # in the safe direction and the tail is swallowed into both endpoints.
    lo = hi = 0
    kk = k * k
    denom = k
    j = 0
    add = True
    while True:
        d = (2 * j + 1) * denom
        t_lo, t_hi = scale // d, _cdiv(scale, d)
        if t_hi <= 2:
            return lo - t_hi, hi + t_hi
        if add:
            lo += t_lo
            hi += t_hi
        else:
            lo -= t_hi
            hi -= t_lo
        add = not add
        j += 1
        denom *= kk


@lru_cache(maxsize=None)
def _pi_bracket(digits: int) -> tuple[int, int]:
    """Integer pair (lo, hi) with lo/10^digits < pi < hi/10^digits."""
    scale = 10 ** digits
    a_lo, a_hi = _atan_inv_bracket(5, scale)
    b_lo, b_hi = _atan_inv_bracket(239, scale)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def pi_enclosure(precision: int = MIN_PRECISION) -> Interval:
    """Enclosure of pi on the 10^-precision grid."""
    lo, hi = _pi_bracket(precision + _GUARD)
    s = 10 ** (precision + _GUARD)
    return quantize_outward(Interval(Fraction(lo, s), Fraction(hi, s)), precision)


def half_pi_enclosure(precision: int = MIN_PRECISION) -> Interval:
    """Enclosure of pi/2 on the 10^-precision grid."""
    lo, hi = _pi_bracket(precision + _GUARD)
    s = 2 * 10 ** (precision + _GUARD)
    return quantize_outward(Interval(Fraction(lo, s), Fraction(hi, s)), precision)


# --- sine and cosine --------------------------------------------------

def _sin_series_bracket(t_num: int, t_den: int, scale: int) -> tuple[int, int]:
    # sin(t)*scale for rational t in [0, 1.6]; alternating Taylor series with
    # directed rounding, tail bounded by the first omitted term.
    t2n, t2d = t_num * t_num, t_den * t_den
    term_lo = t_num * scale // t_den
    term_hi = _cdiv(t_num * scale, t_den)
    lo = hi = 0
    add = True
    j = 0
    while True:
        if term_hi <= 2:
            return lo - term_hi, hi + term_hi
        if add:
            lo += term_lo
            hi += term_hi
        else:
            lo -= term_hi
            hi -= term_lo
        add = not add
        j += 1
        d = t2d * (2 * j) * (2 * j + 1)
        term_lo = term_lo * t2n // d
        term_hi = _cdiv(term_hi * t2n, d)


# folded angles with rational sine values
_EXACT_SIN = {Fraction(0): Fraction(0), Fraction(30): Fraction(1, 2),
              Fraction(90): Fraction(1)}


def enclose_sin(angle, precision: int = MIN_PRECISION) -> Interval:
    """Rigorous enclosure of sin(angle degrees) on the 10^-precision grid."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision {precision} below minimum {MIN_PRECISION}")
    a = Fraction(angle) % 360
    neg = False
    if a > 180:
        a -= 180
        neg = True
    if a > 90:
        a = 180 - a
    exact = _EXACT_SIN.get(a)
    if exact is not None:
        v = -exact if neg else exact
        return Interval(v, v)
    work = precision + _GUARD
    scale = 10 ** work
    p_lo, p_hi = _pi_bracket(work)
    p_scale = 10 ** work
    t = a * Fraction(p_lo, p_scale) / 180
    s_lo, s_hi = _sin_series_bracket(t.numerator, t.denominator, scale)
    # |sin'| <= 1, so the slack from the pi bracket widens both ends
    slack = a * Fraction(p_hi - p_lo, p_scale) / 180
    lo = max(Fraction(s_lo, scale) - slack, Fraction(0))
    hi = min(Fraction(s_hi, scale) + slack, Fraction(1))
    iv = Interval(-hi, -lo) if neg else Interval(lo, hi)
    return quantize_outward(iv, precision)


def enclose_cos(angle, precision: int = MIN_PRECISION) -> Interval:
    """Rigorous enclosure of cos(angle degrees) on the 10^-precision grid."""
    return enclose_sin(Fraction(angle) + 90, precision)


# --- affine angle forms -----------------------------------------------

class AffineForm:
    """Angle expression ax*x + ay*y + c*90 + t*theta, in degrees."""

    __slots__ = ("ax", "ay", "c", "t")

    def __init__(self, ax=0, ay=0, c=0, t=0):
        self.ax = Fraction(ax)
        self.ay = Fraction(ay)
        self.c = Fraction(c)
        self.t = Fraction(t)

    @classmethod
    def const(cls, degrees) -> "AffineForm":
        return cls(0, 0, Fraction(degrees) / 90, 0)

    @classmethod
    def var_x(cls) -> "AffineForm":
        return cls(1, 0, 0, 0)

    @classmethod
    def var_y(cls) -> "AffineForm":
        return cls(0, 1, 0, 0)

    @classmethod
    def var_z(cls) -> "AffineForm":
        # third triangle angle, 180 - x - y
        return cls(-1, -1, 2, 0)

    @classmethod
    def var_theta(cls) -> "AffineForm":
        return cls(0, 0, 0, 1)

    def __add__(self, other):
        o = other if isinstance(other, AffineForm) else AffineForm.const(other)
        return AffineForm(self.ax + o.ax, self.ay + o.ay, self.c + o.c,
                          self.t + o.t)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, AffineForm) else AffineForm.const(other)
        return AffineForm(self.ax - o.ax, self.ay - o.ay, self.c - o.c,
                          self.t - o.t)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AffineForm(-self.ax, -self.ay, -self.c, -self.t)

    def __mul__(self, k):
        k = Fraction(k)
        return AffineForm(self.ax * k, self.ay * k, self.c * k, self.t * k)

    __rmul__ = __mul__

    def substitute_theta(self, theta: "AffineForm") -> "AffineForm":
        if theta.t != 0:
            raise ValueError("theta expression may not mention theta")
        return AffineForm(self.ax + self.t * theta.ax,
                          self.ay + self.t * theta.ay,
                          self.c + self.t * theta.c, 0)

    def eval(self, x, y, theta=None) -> Fraction:
        v = self.ax * Fraction(x) + self.ay * Fraction(y) + self.c * 90
        if self.t:
            if theta is None:
                raise ValueError("form mentions theta but no value given")
            v += self.t * Fraction(theta)
        return v

    def is_constant(self) -> bool:
        return self.ax == 0 and self.ay == 0 and self.t == 0

    def __eq__(self, other):
        return (isinstance(other, AffineForm) and self.ax == other.ax
                and self.ay == other.ay and self.c == other.c
                and self.t == other.t)

    def __hash__(self):
        return hash((self.ax, self.ay, self.c, self.t))

    def __repr__(self):
        bits = []
        for coef, name in ((self.ax, "x"), (self.ay, "y")):
            if coef:
                bits.append(f"{'+' if coef > 0 else '-'} {abs(coef)}{name}")
        if self.c:
            bits.append(f"{'+' if self.c > 0 else '-'} {abs(self.c * 90)}")
        if self.t:
            bits.append(f"{'+' if self.t > 0 else '-'} {abs(self.t)}t")
        if not bits:
            return "0"
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


# --- trigonometric sums -----------------------------------------------

def _canon_atom(kind: str, m: int, n: int, q: int):
    """Fold quarter turns and argument sign; return (coeff_sign, key).

    key is None when the atom vanishes identically, and ("cos", 0, 0) stands
    for the constant 1.
    """
    sign = 1
    q %= 4
    if kind == "sin":
        if q == 1:
            kind = "cos"
        elif q == 2:
            sign = -sign
        elif q == 3:
            kind, sign = "cos", -sign
    else:
        if q == 1:
            kind, sign = "sin", -sign
        elif q == 2:
            sign = -sign
        elif q == 3:
            kind = "sin"
    if m < 0 or (m == 0 and n < 0):
        m, n = -m, -n
        if kind == "sin":
            sign = -sign
    if m == 0 and n == 0 and kind == "sin":
        return sign, None
    return sign, (kind, m, n)


class TrigPoly:
    """Finite sum  sum of u * sin(m*x + n*y)  and  v * cos(m*x + n*y).

    Arguments are integer combinations of the two angle variables; the
    constant term rides along as cos(0).  Coefficients are exact rationals.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[str, int, int], Fraction] = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict)
                               else terms):
                if coeff:
                    self.terms[key] = self.terms.get(key, Fraction(0)) + coeff
                    if not self.terms[key]:
                        del self.terms[key]

    @classmethod
    def atom(cls, kind: str, m: int, n: int, q: int = 0, coeff=1) -> "TrigPoly":
        """coeff * kind(m*x + n*y + q*90)."""
        if kind not in ("sin", "cos"):
            raise ValueError(f"unknown atom kind {kind!r}")
        sign, key = _canon_atom(kind, m, n, q)
        if key is None or not coeff:
            return cls()
        return cls({key: sign * Fraction(coeff)})

    @classmethod
    def atom_of(cls, kind: str, form: AffineForm, coeff=1) -> "TrigPoly":
        """Atom whose argument is an affine angle form; must be integral."""
        m, n, q = form.ax, form.ay, form.c
        if form.t != 0:
            raise ValueError("trig argument still mentions theta")
        if m.denominator != 1 or n.denominator != 1 or q.denominator != 1:
            raise ValueError(f"non-integral trig argument {form!r}")
        return cls.atom(kind, int(m), int(n), int(q), coeff)

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return cls.atom("cos", 0, 0, 0, c)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        r = TrigPoly()
        r.terms = out
        return r

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        r = TrigPoly()
        r.terms = {k: -c for k, c in self.terms.items()}
        return r

    def scaled(self, k) -> "TrigPoly":
        k = Fraction(k)
        r = TrigPoly()
        if k:
            r.terms = {key: c * k for key, c in self.terms.items()}
        return r

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scaled(other)
        out: dict[tuple[str, int, int], Fraction] = {}

        def put(kind, m, n, coeff):
            sign, key = _canon_atom(kind, m, n, 0)
            if key is None:
                return
            c = out.get(key, Fraction(0)) + sign * coeff
            if c:
                out[key] = c
            else:
                out.pop(key, None)

        for (k1, m1, n1), c1 in self.terms.items():
            for (k2, m2, n2), c2 in other.terms.items():
                c = c1 * c2 / 2
                sm, sn = m1 + m2, n1 + n2
                dm, dn = m1 - m2, n1 - n2
                if k1 == "sin" and k2 == "sin":
                    put("cos", dm, dn, c)
                    put("cos", sm, sn, -c)
                elif k1 == "cos" and k2 == "cos":
                    put("cos", dm, dn, c)
                    put("cos", sm, sn, c)
                elif k1 == "sin":
                    put("sin", sm, sn, c)
                    put("sin", dm, dn, c)
                else:
                    put("sin", sm, sn, c)
                    put("sin", dm, dn, -c)
        r = TrigPoly()
        r.terms = out
        return r

    __rmul__ = __mul__

    def substitute_line(self, s, t) -> "TrigPoly":
        """Replace y by s*x + t*90; s and t must keep arguments integral."""
        s, t = Fraction(s), Fraction(t)
        out = TrigPoly()
        for (kind, m, n), c in self.terms.items():
            mm = Fraction(m) + n * s
            qq = n * t
            if mm.denominator != 1 or qq.denominator != 1:
                raise ValueError("substitution leaves the integer lattice")
            out = out + TrigPoly.atom(kind, int(mm), 0, int(qq), c)
        return out

    def eval(self, x, y, precision: int = MIN_PRECISION,
             cache: dict | None = None) -> Interval:
        """Interval enclosure of the sum at rational (x, y) degrees.

        ``cache`` maps atom keys to enclosures and must belong to one fixed
        (x, y, precision) triple; share it across polynomials evaluated at
        the same point, never across points.
        """
        x, y = Fraction(x), Fraction(y)
        lo = hi = Fraction(0)
        for (kind, m, n), c in self.terms.items():
            key = (kind, m, n)
            iv = cache.get(key) if cache is not None else None
            if iv is None:
                arg = m * x + n * y
                iv = (enclose_sin(arg, precision) if kind == "sin"
                      else enclose_cos(arg, precision))
                if cache is not None:
                    cache[key] = iv
            if c >= 0:
                lo += c * iv.lo
                hi += c * iv.hi
            else:
                lo += c * iv.hi
                hi += c * iv.lo
        return Interval(lo, hi)

    def gradient_bound(self):
        """sum |u| * (|m| + |n|), an exact bound for |df/dx| + |df/dy|
        in radian units."""
        g = Fraction(0)
        for (_, m, n), c in self.terms.items():
            g += abs(c) * (abs(m) + abs(n))
        return int(g) if g.denominator == 1 else g

    def integerized(self) -> tuple["TrigPoly", Fraction]:
        """Scale to primitive integer coefficients; returns (poly, factor).

        factor is the positive rational the poly was multiplied by, so the
        result equals factor * self.  Sign pattern is preserved.
        """
        if not self.terms:
            return TrigPoly(), Fraction(1)
        lcm = 1
        for c in self.terms.values():
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c.numerator * (lcm // c.denominator)))
        factor = Fraction(lcm, g)
        out = TrigPoly()
        out.terms = {k: c * factor for k, c in self.terms.items()}
        return out, factor

    def term_list(self):
        """Terms as (sign, magnitude, m, n, kind), sorted for stable output."""
        out = []
        for (kind, m, n), c in sorted(self.terms.items()):
            out.append((1 if c > 0 else -1, abs(c), m, n, kind))
        return out

    def divide_by_atom(self, kind: str, m: int, n: int):
        """Exact quotient by a single unit atom, or None.

        A successful result g satisfies atom * g == self; the product is
        re-checked before returning, so a non-None answer is always correct.
        """
        sign, key = _canon_atom(kind, m, n, 0)
        if key is None:
            return None
        divisor = TrigPoly({key: Fraction(sign)})
        dk, dm, dn = key
        rem = self
        quot = TrigPoly()
        for _ in range(4 * len(self.terms) + 8):
            if rem.is_zero():
                if (divisor * quot).terms == self.terms:
                    return quot
                return None
            (rk, rm, rn), rc = max(rem.terms.items(),
                                   key=lambda it: (abs(it[0][1]) + abs(it[0][2]),
                                                   it[0][1], it[0][2], it[0][0]))
            qm, qn = rm - dm, rn - dn
            if dk == "sin":
                qk = "cos" if rk == "sin" else "sin"
            else:
                qk = rk
            sgn2, qkey = _canon_atom(qk, qm, qn, 0)
            if qkey is None:
                # constant quotient term only pairs with a cos divisor
                if dk == "sin" or rk != "cos":
                    return None
                qkey, sgn2 = ("cos", 0, 0), 1
            # leading coefficient of divisor*candidate on the leading atom
            cand = TrigPoly({qkey: Fraction(1)})
            prod = divisor * cand
            lead = prod.terms.get((rk, rm, rn))
            if not lead:
                return None
            c = rc / lead
            quot = quot + cand.scaled(c)
            rem = rem - prod.scaled(c)
        return None

    def __eq__(self, other):
        return isinstance(other, TrigPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        def var(coef, name, first):
            mag = "" if abs(coef) == 1 else str(abs(coef))
            sgn = ("-" if coef < 0 else "") if first else \
                  ("-" if coef < 0 else "+")
            return f"{sgn}{mag}{name}"

        bits = []
        for sign, mag, m, n, kind in self.term_list():
            if (kind, m, n) == ("cos", 0, 0):
                body = str(mag)
            else:
                arg = var(m, "x", True) if m else ""
                if n:
                    arg += var(n, "y", not m)
                coeff = "" if mag == 1 else f"{mag}*"
                body = f"{coeff}{kind}({arg})"
            bits.append(("+ " if sign > 0 else "- ") + body)
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def simplify(products) -> TrigPoly:
    """Expand a sum of coefficient-and-atoms products into a TrigPoly.

    ``products`` is an iterable of (coeff, atoms) pairs where each atom is a
    (kind, m, n, q) tuple meaning kind(m*x + n*y + q*90).  Product-to-sum
    rewriting and quarter-turn folding happen along the way, and the whole
    sum is doubled once at the end so that typical two-factor products come
    out with integer coefficients.
    """
    total = TrigPoly()
    for coeff, atoms in products:
        poly = TrigPoly.constant(coeff)
        for kind, m, n, q in atoms:
            poly = poly * TrigPoly.atom(kind, m, n, q)
        total = total + poly
    return total.scaled(2)
