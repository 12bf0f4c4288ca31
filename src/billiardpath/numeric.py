"""Exact interval arithmetic and trigonometric sums over two angle variables.

Angles are rational numbers of degrees throughout.  Radians appear only
inside the sine and cosine enclosures, which scale by a rational bracket of
pi; nothing in this module's exact arithmetic touches floating point, and
there is no interval division anywhere.  The one float rule, ``atom_angle``,
takes an atom to a double for the float screens that only ever skip exact
work (the prover's screen and the towers' pruning probe).

The enclosure kernel ``sin_scaled`` takes an angle as an integer ratio and
returns integers on the 10^-precision grid: ``fold_degrees`` folds it into
[0, 90] degrees with a sign, and the folded kernel runs the Taylor series,
adds the pi bracket's slack and rounds outward without building a single
``Fraction``.  The folded kernel depends on the folded numerator alone once
the denominator and precision are fixed, so a caller may pass a memo keyed
by that integer: ``cover`` keeps one per quadtree level and precision,
where every square shares one denominator.  ``enclose_sin`` and
``enclose_cos`` wrap one result in an ``Interval``.  Every trig sum is
evaluated in two steps at a homogeneous integer point: ``atom_bounds``
takes each atom's kernel bounds, and ``dot_bounds`` adds up integer
coefficients times them by the one signed rule.  ``TrigPoly.bounds``
(behind ``TrigPoly.eval`` and the towers) and the prover's compiled rows
meet the same integers; ``TrigPoly.eval`` builds one ``Interval``.

A ``TrigPoly`` keeps its coefficients as integers over one common
denominator in lowest terms.  An atom's argument is the package's one
angle form, an integer triple (m, n, q) as in ``sequences.SYMBOL_FORMS``,
for m*x + n*y + q*90 degrees.  Product-to-sum rewriting halves and
``simplify`` doubles, so the towers' sums only ever meet powers of two;
sums, products and ``simplify``'s expansion run on ``int`` by one
product-to-sum rule, and ``terms`` gives the exact rationals.  A tower's
steps are two-atom products, which ``atom_product`` expands by that rule
alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, pi

from .geometry import to_homogeneous

MIN_PRECISION = 7
_GUARD = 8  # extra working digits behind every enclosure


def _cdiv(a: int, b: int) -> int:
    """Ceiling division for b > 0."""
    return -((-a) // b)


class Interval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = lo if type(lo) is Fraction else Fraction(lo)
        hi = hi if type(hi) is Fraction else Fraction(hi)
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

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


def quantize_outward(iv: Interval, precision: int) -> Interval:
    """Push both endpoints outward onto the 10^-precision grid."""
    s = 10 ** precision
    lo = iv.lo.numerator * s // iv.lo.denominator
    hi = _cdiv(iv.hi.numerator * s, iv.hi.denominator)
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


def fold_degrees(num: int, den: int) -> tuple[int, bool]:
    """Fold num/den degrees (``den`` positive) into [0, 90] degrees with a
    sign: (num', neg) with 0 <= num' <= 90*den and
    sin(num/den) = -+ sin(num'/den), minus when ``neg``."""
    full = 180 * den
    num %= 2 * full
    neg = num > full
    if neg:
        num -= full
    if 2 * num > full:
        num = full - num
    return num, neg


def _sin_folded(num: int, den: int, precision: int) -> tuple[int, int]:
    """The kernel on a folded angle, 0 <= num/den <= 90 degrees."""
    s = 10 ** precision
    # folded angles with rational sine values: 0, 30 and 90 degrees
    exact = {0: 0, 30 * den: s // 2, 90 * den: s}.get(num)
    if exact is not None:
        return exact, exact
    full = 180 * den
    work = precision + _GUARD
    p_lo, p_hi = _pi_bracket(work)
    t_num, t_den = num * p_lo, full * 10 ** work
    g = gcd(t_num, t_den)
    s_lo, s_hi = _sin_series_bracket(t_num // g, t_den // g, 10 ** work)
    # |sin'| <= 1, so the pi bracket widens both ends by
    # num*(p_hi - p_lo) / (full*10^work); on the 10^-precision grid the ends
    # are (s_lo*full - slack) and (s_hi*full + slack) over full*10^_GUARD
    slack = num * (p_hi - p_lo)
    d = full * 10 ** _GUARD
    return (max((s_lo * full - slack) // d, 0),
            min(_cdiv(s_hi * full + slack, d), s))


def sin_scaled(num: int, den: int, precision: int,
               memo: dict | None = None) -> tuple[int, int]:
    """sin(num/den degrees) as integers (lo, hi) times 10^-precision, rounded
    outward; ``den`` must be positive.

    The angle is folded into [0, 90] by ``fold_degrees``.  The rational
    values 0, 1/2 and 1 come back exact; otherwise the series runs on the
    lower pi bracket, and the pi bracket's slack (|sin'| <= 1) and the
    outward rounding onto the grid are one floor and one ceiling division.
    The result depends on the ratio num/den alone.

    ``memo`` maps folded numerators to the folded kernel's pair; it must
    belong to one ``den`` and one precision, and a hit skips the series.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision {precision} below minimum {MIN_PRECISION}")
    num, neg = fold_degrees(num, den)
    if memo is None:
        lo, hi = _sin_folded(num, den, precision)
    else:
        got = memo.get(num)
        if got is None:
            got = memo[num] = _sin_folded(num, den, precision)
        lo, hi = got
    return (-hi, -lo) if neg else (lo, hi)


def enclose_sin(angle, precision: int = MIN_PRECISION) -> Interval:
    """Rigorous enclosure of sin(angle degrees) on the 10^-precision grid."""
    a = Fraction(angle)
    lo, hi = sin_scaled(a.numerator, a.denominator, precision)
    s = 10 ** precision
    return Interval(Fraction(lo, s), Fraction(hi, s))


def enclose_cos(angle, precision: int = MIN_PRECISION) -> Interval:
    """Rigorous enclosure of cos(angle degrees) on the 10^-precision grid."""
    return enclose_sin(Fraction(angle) + 90, precision)


def atom_bounds(atoms, X: int, Y: int, W: int, precision: int,
                cache: dict, memo: dict | None = None) -> list:
    """Kernel pairs (lo, hi) of the atoms (kind, m, n) at the point
    (X/W, Y/W) degrees, W > 0, in their order: ``sin_scaled`` of the ratio
    (m*X + n*Y) / W, plus 90 degrees for a cosine.  ``cache`` maps atoms to
    pairs and belongs to one point and precision; a miss calls the kernel
    with ``memo``, which belongs to one W and precision (see
    ``sin_scaled``)."""
    out = []
    for key in atoms:
        got = cache.get(key)
        if got is None:
            kind, m, n = key
            num = m * X + n * Y
            if kind == "cos":
                num += 90 * W
            got = cache[key] = sin_scaled(num, W, precision, memo)
        out.append(got)
    return out


def dot_bounds(terms, bounds) -> tuple[int, int]:
    """Integer ends (lo, hi) of  sum c * atom_i  over (i, c) pairs with
    integer ``c``, ``bounds[i]`` being atom i's pair from ``atom_bounds``:
    a negative ``c`` takes the pair's ends swapped, so the ends enclose
    the sum as the pairs enclose the atoms."""
    lo = hi = 0
    for i, c in terms:
        a, b = bounds[i]
        if c < 0:
            a, b = b, a
        lo += c * a
        hi += c * b
    return lo, hi


_RAD = pi / 180


def atom_angle(atom, X: int, Y: int, W: int) -> float:
    """An atom's angle at (X/W, Y/W) degrees, W > 0, in radians: reduced
    modulo 360 degrees on integers and taken to a double by one rounded
    division, so its sine is the atom (a cosine carries its 90 degrees)
    and its cosine the atom's derivative factor.  The error is at most
    26 * 2^-53 radians (see ``prover.certify_square``)."""
    kind, m, n = atom
    num = m * X + n * Y
    if kind == "cos":
        num += 90 * W
    return num % (360 * W) / W * _RAD


def gradient_sum(terms) -> int:
    """sum |c| * (|m| + |n|) over ((kind, m, n), c) pairs."""
    return sum(abs(c) * (abs(m) + abs(n)) for (_, m, n), c in terms)


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


def _product_to_sum(out: dict, k1, m1, n1, k2, m2, n2, c: int):
    """Add c * 2 * k1(m1*x + n1*y) * k2(m2*x + n2*y), rewritten as two
    atoms, into the integer coefficients ``out``; a sum that cancels
    leaves its key."""
    sm, sn, dm, dn = m1 + m2, n1 + n2, m1 - m2, n1 - n2
    if k1 == k2:
        kind, pairs = "cos", ((dm, dn, c), (sm, sn, c if k1 == "cos" else -c))
    else:
        kind, pairs = "sin", ((sm, sn, c), (dm, dn, c if k1 == "sin" else -c))
    for m, n, v in pairs:
        sign, key = _canon_atom(kind, m, n, 0)
        if key is None:
            continue
        v = sign * v + out.get(key, 0)
        if v:
            out[key] = v
        else:
            out.pop(key, None)


class TrigPoly:
    """Finite sum  sum of u * sin(m*x + n*y)  and  v * cos(m*x + n*y).

    Arguments are integer combinations of the two angle variables; the
    constant term rides along as cos(0).  Coefficients are exact rationals,
    held as integers ``coeffs`` over one positive common denominator
    ``den`` in lowest terms.  Products only ever halve, so every sum the
    towers build has a power-of-two denominator, and products and sums run
    on ``int``; ``terms`` hands out the coefficients as ``Fraction``s.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, terms=None):
        acc: dict = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict)
                               else terms):
                if coeff:
                    acc[key] = acc.get(key, 0) + Fraction(coeff)
        acc = {k: c for k, c in acc.items() if c}
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in acc.values()))
        self.coeffs = {k: c.numerator * (den // c.denominator)
                       for k, c in acc.items()}
        self.den = den

    @classmethod
    def _of(cls, coeffs: dict, den: int) -> "TrigPoly":
        """Wrap integer coefficients over ``den``, reduced to lowest terms."""
        if den != 1:
            g = gcd(den, *coeffs.values()) if coeffs else den
            if g != 1:
                coeffs = {k: c // g for k, c in coeffs.items()}
                den //= g
        r = cls.__new__(cls)
        r.coeffs = coeffs
        r.den = den
        return r

    @property
    def terms(self) -> dict:
        """Coefficients as exact rationals, keyed by (kind, m, n)."""
        return {k: Fraction(c, self.den) for k, c in self.coeffs.items()}

    @classmethod
    def atom(cls, kind: str, m: int, n: int, q: int = 0, coeff=1) -> "TrigPoly":
        """coeff * kind(m*x + n*y + q*90)."""
        if kind not in ("sin", "cos"):
            raise ValueError(f"unknown atom kind {kind!r}")
        sign, key = _canon_atom(kind, m, n, q)
        if key is None or not coeff:
            return cls()
        coeff = Fraction(coeff)
        return cls._of({key: sign * coeff.numerator}, coeff.denominator)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        out = {k: c * ka for k, c in self.coeffs.items()}
        for key, c in other.coeffs.items():
            s = out.get(key, 0) + c * kb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return TrigPoly._of(out, den)

    def __sub__(self, other):
        return self + (-other)

    @classmethod
    def total(cls, polys) -> "TrigPoly":
        """The sum of ``polys``, added into one dict over their common
        denominator: linear in their terms, where a chain of ``+`` copies
        the running sum at every step."""
        polys = list(polys)
        den = lcm(*(p.den for p in polys))
        out: dict = {}
        for p in polys:
            k = den // p.den
            for key, c in p.coeffs.items():
                s = out.get(key, 0) + c * k
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return cls._of(out, den)

    def __neg__(self):
        return TrigPoly._of({k: -c for k, c in self.coeffs.items()}, self.den)

    def scaled(self, k) -> "TrigPoly":
        k = Fraction(k)
        if not k:
            return TrigPoly()
        num = k.numerator
        return TrigPoly._of({key: c * num for key, c in self.coeffs.items()},
                            self.den * k.denominator)

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scaled(other)
        # each product-to-sum term carries c1*c2/2: numerators c1*c2 over
        # the doubled product of the denominators
        out: dict[tuple[str, int, int], int] = {}
        for (k1, m1, n1), c1 in self.coeffs.items():
            for (k2, m2, n2), c2 in other.coeffs.items():
                _product_to_sum(out, k1, m1, n1, k2, m2, n2, c1 * c2)
        return TrigPoly._of(out, 2 * self.den * other.den)

    __rmul__ = __mul__

    def bounds(self, X: int, Y: int, W: int, precision: int,
               cache: dict) -> tuple[int, int]:
        """Integer ends (lo, hi) of the sum at (X/W, Y/W) degrees, in units
        of 1/(den * 10^precision); ``cache`` is ``atom_bounds``' and may
        serve every polynomial evaluated at that point and precision."""
        bounds = atom_bounds(self.coeffs, X, Y, W, precision, cache)
        return dot_bounds(enumerate(self.coeffs.values()), bounds)

    def eval(self, x, y, precision: int = MIN_PRECISION,
             cache: dict | None = None) -> Interval:
        """Interval enclosure of the sum at rational (x, y) degrees.

        The ends are ``bounds``' integers, the exact sums of the
        coefficients times the atoms' enclosures.  ``cache`` is ``bounds``'
        and must belong to one fixed (x, y, precision) triple; share it
        across polynomials evaluated at the same point, never across points.
        """
        X, Y, W = to_homogeneous((x, y))
        lo, hi = self.bounds(X, Y, W, precision,
                             {} if cache is None else cache)
        s = self.den * 10 ** precision
        return Interval(Fraction(lo, s), Fraction(hi, s))

    def gradient_bound(self):
        """sum |u| * (|m| + |n|), an exact bound for |df/dx| + |df/dy|
        in radian units."""
        g = gradient_sum(self.coeffs.items())
        return g // self.den if g % self.den == 0 else Fraction(g, self.den)

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
        divisor = TrigPoly({key: sign})
        dk, dm, dn = key
        rem = self
        quot = TrigPoly()
        for _ in range(4 * len(self.coeffs) + 8):
            if rem.is_zero():
                if divisor * quot == self:
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
            cand = TrigPoly({qkey: 1})
            prod = divisor * cand
            lead = prod.terms.get((rk, rm, rn))
            if not lead:
                return None
            c = rc / lead
            quot = quot + cand.scaled(c)
            rem = rem - prod.scaled(c)
        return None

    def __eq__(self, other):
        return (isinstance(other, TrigPoly) and self.den == other.den
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.den, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
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


def atom_product(coeff: int, a, b) -> TrigPoly:
    """``simplify([(coeff, [a, b])])`` for an integer ``coeff`` and two
    atoms (kind, m, n, q): the doubled product is one product-to-sum over
    the folded atoms, with integer coefficients."""
    sa, ka = _canon_atom(*a)
    sb, kb = _canon_atom(*b)
    out: dict = {}
    if coeff and ka is not None and kb is not None:
        _product_to_sum(out, *ka, *kb, sa * sb * coeff)
    return TrigPoly._of(out, 1)


def simplify(products) -> TrigPoly:
    """Expand a sum of coefficient-and-atoms products into a TrigPoly.

    ``products`` is an iterable of (coeff, atoms) pairs where each atom is a
    (kind, m, n, q) tuple meaning kind(m*x + n*y + q*90).  Every product is
    doubled so that two-factor products with integer coefficients come out
    with integer coefficients.  The expansion runs on integers: the folded
    first atom scales the doubled numerator, each further atom goes through
    product-to-sum and doubles the denominator, and the products add up
    over one common denominator.  Coefficients are read as integer ratios.
    """
    total: dict = {}
    den = 1
    for coeff, atoms in products:
        num, tden = coeff.as_integer_ratio()
        if not num:
            continue
        term = {("cos", 0, 0): 2 * num}
        for i, (kind, m, n, q) in enumerate(atoms):
            sign, key = _canon_atom(kind, m, n, q)
            if key is None:
                term = {}
                break
            if not i:  # cos(0) times an atom is the atom
                term = {key: sign * 2 * num}
                continue
            out: dict = {}
            for (k1, m1, n1), c in term.items():
                _product_to_sum(out, k1, m1, n1, *key, sign * c)
            term = out
            tden *= 2
        common = lcm(den, tden)
        if common != den:
            total = {key: c * (common // den) for key, c in total.items()}
            den = common
        k = common // tden
        for key, c in term.items():
            c = c * k + total.get(key, 0)
            if c:
                total[key] = c
            else:
                total.pop(key, None)
    return TrigPoly._of(total, den)
