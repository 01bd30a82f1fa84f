"""The one sparse-term algebra, and the integer Laurent polynomials in A.

``_Terms`` is an immutable ``terms`` dict of nonzero coefficients with
zero-dropping construction, ``+``, ``-``, ``==``, ``hash``, scaling and one
text codec: "0", or terms ``coeff*<open>key<close>`` joined by " + ", which
``parse`` inverts byte for byte, rejecting a malformed term or a repeated
key.  Subclasses supply the key text and its parse, the term order, the
brackets around a key and the coefficient codec.  ``Laurent``, keyed by the
exponent of A, holds bracket state sums: ``-1*A^4 + -1*A^-4``.  LK, co and
the homotopy bracket are the class-keyed subclasses in ``homotopy``.
"""

from __future__ import annotations

import re

__all__ = ["Laurent"]

# split a term list at every " + " outside a parenthesised coefficient
_TERM_SEP = re.compile(r" \+ (?![^(]*\))")
_INT = re.compile(r"-?\d+")


def _put(acc: dict, key, c) -> None:
    acc[key] = acc[key] + c if key in acc else c


def _int(text: str) -> int:
    if not _INT.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


class _Terms:
    """Finite combination of keys with nonzero coefficients."""

    __slots__ = ("terms",)
    _coeff_text = str
    _coeff_parse = staticmethod(_int)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, terms: dict):
        """The element with these terms, which must hold no zero."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms.items():
            if k in acc:
                c = acc[k] + c
                if not c:
                    del acc[k]
                    continue
            acc[k] = c
        return self._of(acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def scale(self, f):
        return type(self)({k: f * c for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.terms})"

    def to_text(self, spec=None) -> str:
        """The terms in print order; ``spec`` names the group of class keys."""
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self._coeff_text(self.terms[k])}*{self._open}"
            f"{self._key_text(k, spec)}{self._close}"
            for k in sorted(self.terms, key=self._order))

    @classmethod
    def parse(cls, spec, text: str):
        """Inverse of ``to_text``."""
        text = text.strip()
        acc = {}
        for part in ([] if text == "0" else _TERM_SEP.split(text)):
            coeff, _, rest = part.partition("*" + cls._open)
            try:
                if not rest.endswith(cls._close):
                    raise ValueError("unclosed term")
                key = cls._key_parse(rest[:len(rest) - len(cls._close)], spec)
                if key in acc:
                    raise ValueError("repeated key")
                acc[key] = cls._coeff_parse(coeff)
            except ValueError as exc:
                raise ValueError(f"bad term {part!r}: {exc}") from None
        return cls(acc)


class Laurent(_Terms):
    """Laurent polynomial over the integers, keyed by exponent of A."""

    __slots__ = ()
    _open, _close = "A^", ""

    # bench/tracer.py patches these through Laurent.__dict__, which holds
    # no inherited name
    __init__ = _Terms.__init__
    __eq__ = _Terms.__eq__
    __hash__ = _Terms.__hash__
    __add__ = _Terms.__add__
    __sub__ = _Terms.__sub__
    __neg__ = _Terms.__neg__

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def one(cls) -> "Laurent":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "Laurent":
        return cls({exp: coeff})

    @classmethod
    def A(cls, exp: int = 1) -> "Laurent":
        return cls({exp: 1})

    @classmethod
    def minus_A3_power(cls, k: int) -> "Laurent":
        """(-A^3)**k for any integer k, including negative k."""
        return cls({3 * k: -1 if k % 2 else 1})

    @classmethod
    def loop_factor(cls) -> "Laurent":
        """-A^2 - A^-2, the weight of a closed trivial curve."""
        return cls({2: -1, -2: -1})

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        acc: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                c = acc.get(e, 0) + c1 * c2
                if c:
                    acc[e] = c
                else:
                    del acc[e]
        return self._of(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers only defined for monomials")
            ((exp, c),) = self.terms.items()
            if c not in (1, -1):
                raise ValueError("negative powers need a unit coefficient")
            return Laurent({exp * n: -1 if (c == -1 and n % 2) else 1})
        out = Laurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ---------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    def top_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degrees")
        return max(self.terms)

    def low_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degrees")
        return min(self.terms)

    def span(self) -> int:
        """Top degree minus low degree; zero for the zero polynomial."""
        if not self.terms:
            return 0
        return max(self.terms) - min(self.terms)

    def subs_A_inverse(self) -> "Laurent":
        """The polynomial with A replaced by A^-1."""
        return self._of({-e: c for e, c in self.terms.items()})

    # -- text --------------------------------------------------------

    @staticmethod
    def _key_text(exp: int, _spec) -> str:
        return str(exp)

    @staticmethod
    def _key_parse(text: str, _spec) -> int:
        return _int(text)

    @staticmethod
    def _order(exp: int) -> int:
        return -exp

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def parse(cls, text: str) -> "Laurent":
        return super().parse(None, text)
