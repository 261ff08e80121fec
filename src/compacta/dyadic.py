"""Exact dyadic rationals and the nested interval addressing scheme.

Every coordinate produced by the tree-to-set construction is a dyadic
rational a/2^k, so all geometry here is closed-form integer arithmetic.
Cantor-set internals are the one exception: points below the grid are
exact pairs over powers of 3 (`compactum.succ`), framed by interval
endpoints that stay dyadic.  A tree node's nested interval is read as
ints, one step per address index (`_child`): `address_ends` steps down
one address, `tree_ends` takes every node of a tree from its parent's.
A caller builds a `Dyadic` from them only where it needs one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Address = tuple[int, ...]

ROOT: Address = ()


_set = object.__setattr__


class Dyadic:
    """a/2^k with k >= 0 and a odd unless the value is zero.  Immutable."""

    __slots__ = ("num", "exp")

    num: int
    exp: int

    def __init__(self, num: int, exp: int = 0) -> None:
        if not num:
            exp = 0
        elif exp < 0:
            num <<= -exp
            exp = 0
        elif exp and not num & 1:
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        _set(self, "num", num)
        _set(self, "exp", exp)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Dyadic is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Dyadic is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple[type, tuple[int, int]]:
        return Dyadic, (self.num, self.exp)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Dyadic | int") -> "Dyadic":
        other = _coerce(other)
        a, ea, b, eb = self.num, self.exp, other.num, other.exp
        if ea == eb:
            return Dyadic(a + b, ea)
        # One numerator is odd over the larger exponent, the other becomes
        # even when shifted onto it, so the sum is already normalised.
        if ea > eb:
            return _raw(a + (b << (ea - eb)), ea)
        return _raw((a << (eb - ea)) + b, eb)

    def __neg__(self) -> "Dyadic":
        return _raw(-self.num, self.exp)

    def __sub__(self, other: "Dyadic | int") -> "Dyadic":
        return self + (-_coerce(other))

    def __abs__(self) -> "Dyadic":
        return _raw(abs(self.num), self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def scaled_pow2(self, shift: int) -> "Dyadic":
        """Multiply by 2^shift (shift may be negative)."""
        return Dyadic(self.num, self.exp - shift)

    # -- comparisons --------------------------------------------------------

    def _key(self, other: "Dyadic | int") -> tuple[int, int]:
        other = _coerce(other)
        ea, eb = self.exp, other.exp
        if ea == eb:
            return self.num, other.num
        if ea > eb:
            return self.num, other.num << (ea - eb)
        return self.num << (eb - ea), other.num

    def __lt__(self, other: "Dyadic | int") -> bool:
        a, b = self._key(other)
        return a < b

    def __le__(self, other: "Dyadic | int") -> bool:
        a, b = self._key(other)
        return a <= b

    def __gt__(self, other: "Dyadic | int") -> bool:
        a, b = self._key(other)
        return a > b

    def __ge__(self, other: "Dyadic | int") -> bool:
        a, b = self._key(other)
        return a >= b

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Dyadic(other)
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    # -- conversions --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    __repr__ = __str__


def _raw(num: int, exp: int) -> Dyadic:
    """A Dyadic from a pair already in normal form."""
    d = object.__new__(Dyadic)
    _set(d, "num", num)
    _set(d, "exp", exp)
    return d


def _coerce(x: "Dyadic | int") -> Dyadic:
    return x if isinstance(x, Dyadic) else Dyadic(x)


ZERO = Dyadic(0)


def parse_dyadic(text: str) -> Dyadic:
    """Parse the literal form `a/2^k`, e.g. `13/2^4` or `-3/2^1`."""
    num_part, sep, exp_part = text.partition("/2^")
    try:
        num, exp = _parse_int(num_part), _parse_int(exp_part if sep else "")
    except ValueError:
        raise ValueError(f"not a dyadic literal: {text!r}") from None
    if exp < 0:
        raise ValueError(f"negative exponent in dyadic literal: {text!r}")
    return Dyadic(num, exp)


def format_dyadic(n: int, e: int) -> str:
    """n / 2^e in lowest terms, as `Dyadic(n, e)` prints, from the ints."""
    k = min((n & -n).bit_length() - 1, e) if n else e
    return f"{n >> k}/2^{e - k}"


def midpoint(a: Dyadic, b: Dyadic) -> Dyadic:
    return (a + b).half()


def address_ends(addr: Address, lo: int = 0, e: int = 1) -> tuple[int, int]:
    """(lo, e) with the interval of addr equal to [lo, lo + 2] / 2^e.  Given
    the lo and e of a node, addr is read as a path below that node.

    Each step rescales the root pattern into the current interval.  The
    m-th root-level interval has length exactly 2^-(m+2).  Even indices 2n
    are centered in the block [(1-2^-n)/2, (1-2^-(n+1))/2] climbing toward
    1/2 from the left; odd indices 2n+1 sit in the mirrored block on the
    right, descending toward 1/2.  Blocks partition each side, so distinct
    intervals never touch.  In units of 2^-(m+3), the interval starts at
    2^(m+2) - 1 -+ 3*2^(m-n), minus for even m and plus for odd.  The
    children of a node at (lo, e) accumulate at its midpoint (lo + 1) / 2^e.
    """
    for m in addr:
        if m < 0:
            raise ValueError("interval index must be a natural number")
        lo, e = _child(lo, e, m)
    return lo, e


def _child(lo: int, e: int, m: int) -> tuple[int, int]:
    """One step of `address_ends`: (lo, e) of child m of the node on
    [lo, lo + 2] / 2^e."""
    t = 3 << (m - (m >> 1))
    return ((lo + 1) << (m + 2)) - 1 + (t if m & 1 else -t), e + m + 2


def tree_ends(addrs: Iterable[Address]) -> dict[Address, tuple[int, int]]:
    """`address_ends` of every address of a prefix-closed set, each taken
    from its parent's in one step.  The addresses may come in any order:
    one met before its parent waits, and the waiting ones are stepped
    shortest first, so that every parent is known before its children."""
    ends = {ROOT: (0, 1)}
    waiting = []
    for addr in addrs:
        if addr:
            try:
                lo, e = ends[addr[:-1]]
            except KeyError:
                waiting.append(addr)
                continue
            ends[addr] = _child(lo, e, addr[-1])
    for addr in sorted(waiting, key=len):
        ends[addr] = _child(*ends[addr[:-1]], addr[-1])
    return ends


def format_address(addr: Address) -> str:
    return ".".join(str(i) for i in addr) if addr else "-"


def parse_address(text: str) -> Address:
    if text == "-":
        return ()
    try:
        addr = tuple(_parse_int(p) for p in text.split("."))
    except ValueError:
        raise ValueError(f"not an address: {text!r}") from None
    if any(i < 0 for i in addr):
        raise ValueError(f"negative index in address: {text!r}")
    return addr


def check_natural(name: str, n: int) -> int:
    """n, once it is known to be a natural number; `name` is the caller's
    name for it."""
    if n < 0:
        raise ValueError(f"{name} must be a natural number, got {n}")
    return n


def parse_natural(text: str) -> int:
    """The natural number an ASCII decimal numeral names; no sign, space or
    underscore."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a natural number: {text!r}")
    return int(text)


def _parse_int(text: str) -> int:
    """An optional minus sign, then a numeral as `parse_natural` reads it."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_fraction(text: str) -> Fraction:
    """Fraction(text); a zero denominator is a bad literal too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational literal: {text!r}") from None


def read_lines(text: str, header: str | None, kinds: Mapping) -> list:
    """The values built by the lines of a text format, blank ones skipped.

    The first line is `header` (if not None); one ending in `=`, like
    `cover n=`, carries a natural number that leads the values.  Later
    lines read `keyword field... key=value...`: kinds[keyword] is (count,
    build, *names), and build(*fields, **options) the line's value, with
    option keys from names.  Without keywords, kinds[None] builds a line
    from all its tokens.  A ValueError names its line: `... in line '<line>'`.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if header is not None and not lines:
        raise ValueError(f"missing {header!r} header")
    values = []
    for i, line in enumerate(lines):
        try:
            if i or header is None:
                values.append(_line_value(line.split(), kinds))
            elif header.endswith("=") and line.startswith(header):
                values.append(parse_natural(line[len(header):]))
            elif line != header:
                raise ValueError(f"missing {header!r} header")
        except ValueError as exc:
            raise ValueError(f"{exc} in line {line!r}") from None
    return values


def _line_value(tokens: list[str], kinds: Mapping) -> object:
    if None in kinds:
        return kinds[None](*tokens)
    keyword = tokens.pop(0)
    if keyword not in kinds:
        raise ValueError(f"unknown keyword {keyword!r}")
    count, build, *names = kinds[keyword]
    fields, opts = tokens[:count], {}
    if len(fields) < count:
        raise ValueError(f"expected {count} fields, got {len(fields)}")
    for token in tokens[len(fields):]:
        key, eq, value = token.partition("=")
        if not eq or key not in names or key in opts:
            raise ValueError(f"unexpected {token!r}")
        opts[key] = value
    return build(*fields, **opts)
