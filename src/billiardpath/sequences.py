"""Side sequences, code sequences, and the legality machinery.

A side sequence walks the edges of a triangle (1=AB, 2=BC, 3=AC).  Runs of
bounces between the same two sides compress into a code sequence, whose runs
carry the angle enclosed by that pair of sides: {1,2} encloses y, {2,3}
encloses z, {1,3} encloses x.  Legality of a candidate periodic sequence is
decided here by direct expansion; ``automaton_trace`` walks the six-state
automaton on the even/odd alphabet, whose trace shows why a word is
rejected.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

PAIR_ANGLE = {frozenset((1, 2)): "y", frozenset((2, 3)): "z",
              frozenset((1, 3)): "x"}

_SYMBOLS = ("X", "Y", "Z")

# the symbols (first, second, third) of each assignment, in the order
# assignments are listed everywhere: XY, XZ, YX, YZ, ZX, ZY
ASSIGNMENT_ORDER = tuple(permutations(_SYMBOLS))
_THIRD = {(a, b): c for a, b, c in ASSIGNMENT_ORDER}


def third_symbol(a: str, b: str) -> str:
    """The angle symbol distinct from both arguments."""
    return _THIRD[a, b]


def _third_side(a: int, b: int) -> int:
    return 6 - a - b


class SideSequence:
    """Ordered side labels with optional wraparound semantics."""

    __slots__ = ("symbols", "repeating")

    def __init__(self, symbols, repeating: bool = True):
        self.symbols = tuple(int(s) for s in symbols)
        if not self.symbols:
            raise ValueError("empty side sequence")
        if any(s not in (1, 2, 3) for s in self.symbols):
            raise ValueError(f"side labels must be 1, 2 or 3: {self.symbols}")
        self.repeating = repeating

    @classmethod
    def parse(cls, text: str, repeating: bool = True) -> "SideSequence":
        return cls([int(ch) for ch in text.strip()], repeating)

    def __str__(self):
        return "".join(str(s) for s in self.symbols)

    def __repr__(self):
        return f"SideSequence({self}, repeating={self.repeating})"

    def __eq__(self, other):
        return (isinstance(other, SideSequence)
                and self.symbols == other.symbols
                and self.repeating == other.repeating)

    def __hash__(self):
        return hash((self.symbols, self.repeating))

    def __len__(self):
        return len(self.symbols)


class CodeSequence:
    """Run lengths of a side sequence's bounce fans."""

    __slots__ = ("codes",)

    def __init__(self, codes):
        self.codes = tuple(int(c) for c in codes)
        if not self.codes:
            raise ValueError("empty code sequence")
        if any(c < 1 for c in self.codes):
            raise ValueError(f"code numbers must be positive: {self.codes}")

    @classmethod
    def parse(cls, text: str) -> "CodeSequence":
        return cls([int(tok) for tok in text.split()])

    def __str__(self):
        return " ".join(str(c) for c in self.codes)

    def __repr__(self):
        return f"CodeSequence({self})"

    def __eq__(self, other):
        return isinstance(other, CodeSequence) and self.codes == other.codes

    def __hash__(self):
        return hash(self.codes)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)

    def total(self) -> int:
        return sum(self.codes)

    def alphabet(self) -> "AlphabetSequence":
        return AlphabetSequence("".join("E" if c % 2 == 0 else "O"
                                        for c in self.codes))

    def is_legal(self) -> bool:
        try:
            code_to_side(self, (1, 2))
        except ValueError:
            return False
        return True

    def minimal_period(self) -> int:
        n = len(self.codes)
        for p in range(1, n + 1):
            if n % p == 0 and self.codes == self.codes[p:] + self.codes[:p]:
                return p
        return n


class AlphabetSequence:
    """Word over O (odd) and E (even), the parity shadow of a code."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        self.letters = "".join(letters)
        if not self.letters:
            raise ValueError("empty alphabet sequence")
        if set(self.letters) - {"O", "E"}:
            raise ValueError(f"letters must be O or E: {self.letters}")

    def __str__(self):
        return self.letters

    def __repr__(self):
        return f"AlphabetSequence({self.letters})"

    def __eq__(self, other):
        return (isinstance(other, AlphabetSequence)
                and self.letters == other.letters)

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)


class AngleAssignment:
    """Angle symbols attached to code positions, alternating rows.

    Position i (1-based) sits in the top row when i is odd and in the bottom
    row when i is even.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols):
        self.symbols = tuple(symbols)

    def symbol(self, i: int) -> str:
        """Angle symbol at 1-based position i."""
        return self.symbols[(i - 1) % len(self.symbols)]

    def top_row(self) -> list:
        return list(self.symbols[0::2])

    def bottom_row(self) -> list:
        return list(self.symbols[1::2])

    def __eq__(self, other):
        return (isinstance(other, AngleAssignment)
                and self.symbols == other.symbols)

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return (f"AngleAssignment(top={' '.join(self.top_row())}, "
                f"bottom={' '.join(self.bottom_row())})")


# --- legality ---------------------------------------------------------

def is_legal_side_sequence(seq: SideSequence) -> bool:
    """No adjacent repeats (wrapping when periodic) and all three sides."""
    s = seq.symbols
    if not s:
        raise ValueError("empty side sequence")
    for i in range(len(s) - 1):
        if s[i] == s[i + 1]:
            return False
    if seq.repeating and len(s) > 1 and s[-1] == s[0]:
        return False
    if seq.repeating and len(s) == 1:
        return False
    return set(s) == {1, 2, 3}


def _require_legal(seq: SideSequence):
    if not is_legal_side_sequence(seq):
        raise ValueError(f"illegal side sequence {seq}")


def standard_form_side(seq: SideSequence) -> SideSequence:
    """Lexicographic minimum over all rotations and reversals."""
    _require_legal(seq)
    s = seq.symbols
    best = min(_cyclic_variants(s))
    return SideSequence(best, True)


def extra_standard_form_side(seq: SideSequence) -> SideSequence:
    """Minimum over rotations, reversals and the six side relabelings."""
    _require_legal(seq)
    best = None
    for perm in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2),
                 (3, 2, 1)):
        relabeled = tuple(perm[s - 1] for s in seq.symbols)
        cand = min(_cyclic_variants(relabeled))
        if best is None or cand < best:
            best = cand
    return SideSequence(best, True)


def _cyclic_variants(s: tuple):
    for base in (s, s[::-1]):
        for k in range(len(base)):
            yield base[k:] + base[:k]


# --- conversions ------------------------------------------------------

def side_to_code(seq: SideSequence):
    """Run-length encode the cyclic angle word of a legal side sequence.

    Returns (CodeSequence, angle letters), one lowercase letter per run.
    The cyclic word is first rotated off any run that straddles the seam.
    """
    _require_legal(seq)
    s = seq.symbols
    n = len(s)
    word = [PAIR_ANGLE[frozenset((s[i], s[(i + 1) % n]))] for i in range(n)]
    if word[-1] == word[0]:
        j = n
        while j > 1 and word[j - 1] == word[0]:
            j -= 1
        if j == 1:
            raise ValueError(f"single-angle side sequence {seq}")
        word = word[j:] + word[:j]
    codes, angles = [], []
    i = 0
    while i < n:
        j = i
        while j < n and word[j] == word[i]:
            j += 1
        codes.append(j - i)
        angles.append(word[i])
        i = j
    return CodeSequence(codes), tuple(angles)


def code_to_side(code: CodeSequence, start=(1, 2)) -> SideSequence:
    """Expand code runs back into a side sequence.

    ``start`` fixes the first side and its initial bounce partner; different
    choices give relabeled rotations of the same path.  Raises ValueError
    when the expansion does not close into a legal repeating sequence.
    """
    s0, s1 = start
    if s0 == s1 or {s0, s1} - {1, 2, 3}:
        raise ValueError(f"start pair must be two distinct sides: {start}")
    seq = [s0]
    cur = s0
    pair = (s0, s1)
    first_pair = frozenset(pair)
    last_pair = None
    for c in code:
        a, b = pair
        for _ in range(c):
            cur = a if cur == b else b
            seq.append(cur)
        last_pair = frozenset(pair)
        pair = (cur, _third_side(a, b))
    if seq[-1] != seq[0]:
        return _reject(code, "does not close")
    if last_pair == first_pair:
        return _reject(code, "seam runs merge")
    body = seq[:-1]
    if set(body) != {1, 2, 3}:
        return _reject(code, "misses a side")
    out = SideSequence(body, True)
    if not is_legal_side_sequence(out):
        return _reject(code, "expansion illegal")
    return out


def _reject(code, why):
    raise ValueError(f"not a legal code sequence {code}: {why}")


def standard_form_code(code: CodeSequence) -> CodeSequence:
    """Lexicographic minimum over rotations and reversals."""
    best = None
    for base in (code.codes, code.codes[::-1]):
        for k in range(len(base)):
            cand = base[k:] + base[:k]
            if best is None or cand < best:
                best = cand
    return CodeSequence(best)


# --- the parity automaton --------------------------------------------

# states are ordered angle pairs; an O advances both three-cycles, an E
# swaps each pair with its mirror
_O_PERM = {"xy": "yz", "yz": "zx", "zx": "xy",
           "yx": "xz", "xz": "zy", "zy": "yx"}
_E_PERM = {"xy": "yx", "yx": "xy", "yz": "zy", "zy": "yz",
           "zx": "xz", "xz": "zx"}


def automaton_trace(alpha: AlphabetSequence, start: str = "xy") -> list:
    """State walk of the word from ``start``, including both endpoints.

    The letters act as a regular permutation group action, so a legal word
    returns every state to itself and one walk is enough to exhibit a
    rejection.
    """
    state = start
    walk = [state]
    for ch in alpha.letters:
        state = (_O_PERM if ch == "O" else _E_PERM)[state]
        walk.append(state)
    return walk


# --- angle assignment -------------------------------------------------

def label_walk(code: CodeSequence) -> list:
    """Labels 0, 1, 2 of the code positions, walked from 0 and 1.

    After the first two positions an even code number repeats the label
    two back, an odd one forces the third label 3 - a - b.  The same rule
    must hold across the seam or the code is rejected.
    """
    c = code.codes
    k = len(c)
    if k == 1:
        raise ValueError(f"not a legal code sequence {code}: single run")
    a = [0, 1] + [0] * (k - 2)
    for i in range(k - 2):
        # next label is driven by the parity of the middle code number
        a[i + 2] = a[i] if c[i + 1] % 2 == 0 else 3 - a[i] - a[i + 1]
    for i in (k - 2, k - 1):
        b, n = a[(i + 1) % k], c[(i + 1) % k]
        if (a[i] if n % 2 == 0 else 3 - a[i] - b) != a[(i + 2) % k]:
            raise ValueError(
                f"not a legal code sequence {code}: seam symbol mismatch")
    return a


def assign_angles(code: CodeSequence, first: str = "X",
                  second: str = "Y") -> AngleAssignment:
    """Attach an angle symbol to every code position.

    The first two positions get ``first`` and ``second``; after that an even
    code number repeats the symbol two back, an odd one forces the third
    symbol.  The rule commutes with relabeling the symbols, so this is
    ``label_walk`` with 0, 1, 2 read as first, second and third: the seam
    check passes for all six symbol pairs or for none.
    """
    if first == second or {first, second} - set(_SYMBOLS):
        raise ValueError(f"need two distinct symbols, got {first} {second}")
    symbols = (first, second, _THIRD[first, second])
    return AngleAssignment(symbols[label] for label in label_walk(code))


def all_assignments(code: CodeSequence) -> list:
    """The six relabelings of one ``label_walk``, in ``ASSIGNMENT_ORDER``,
    or none when the code is rejected: they stand or fall together."""
    try:
        labels = label_walk(code)
    except ValueError:
        return []
    return [AngleAssignment(symbols[label] for label in labels)
            for symbols in ASSIGNMENT_ORDER]


# each symbol's angle as integers (ax, ay, q): ax*x + ay*y + q*90 degrees
SYMBOL_FORMS = {"X": (1, 0, 0), "Y": (0, 1, 0), "Z": (-1, -1, 2)}


def form_degrees(form, x, y) -> Fraction:
    """Degrees of an integer angle triple (ax, ay, q), ax*x + ay*y + q*90,
    at rational (x, y)."""
    ax, ay, q = form
    return ax * Fraction(x) + ay * Fraction(y) + 90 * q
