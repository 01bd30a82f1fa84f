"""Free and free-abelian groups, words, and conjugacy-class canonical forms.

Holonomy of loops is computed in one of these groups.  Free-group elements
are reduced words of nonzero integers (letter ``i+1`` is generator ``i``,
negation is inversion); free-abelian elements are exponent vectors.

Conjugacy classes get a canonical representative so they can serve as
dictionary keys: cyclic reduction plus the lexicographically least
rotation, where plain generators sort before all inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["GroupSpec", "ConjClass", "reduce_word", "mul", "inv", "conj_class"]

Word = Tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """Either a free group or a free abelian group of finite rank."""

    kind: str                      # "free" | "abelian"
    names: Tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("free", "abelian"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names repeat")

    @classmethod
    def free(cls, *names: str) -> "GroupSpec":
        return cls("free", tuple(names))

    @classmethod
    def abelian(cls, rank: int) -> "GroupSpec":
        if rank < 0:
            raise ValueError(f"negative group rank {rank}")
        return cls("abelian", tuple(f"g{i + 1}" for i in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.names)

    def identity(self) -> Word:
        if self.kind == "free":
            return ()
        return (0,) * self.rank

    def generator(self, i: int) -> Word:
        if self.kind == "free":
            return (i + 1,)
        return tuple(1 if j == i else 0 for j in range(self.rank))


def reduce_word(letters) -> Word:
    """Free reduction: cancel adjacent inverse pairs."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def mul(spec: GroupSpec, a: Word, b: Word) -> Word:
    """Product; free words must be reduced, so only where a meets b cancels."""
    if spec.kind == "free":
        if not a or not b:
            return a or b
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1] == -b[j]:
            i, j = i - 1, j + 1
        return a[:i] + b[j:]
    return tuple(x + y for x, y in zip(a, b))


def inv(spec: GroupSpec, a: Word) -> Word:
    """Inverse; the identity comes back as it is."""
    if spec.kind == "free":
        return tuple([-x for x in reversed(a)]) if a else a
    return tuple([-x for x in a]) if any(a) else a


def _letter_key(x: int) -> Tuple[int, int]:
    # plain generators sort before every inverse letter
    return (0, x) if x > 0 else (1, -x)


def _word_key(w: Word):
    return tuple(_letter_key(x) for x in w)


def _cyclic_reduce(w: Word) -> Word:
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


@dataclass(frozen=True)
class ConjClass:
    """Canonical conjugacy-class representative.

    ``data`` is the least rotation of the cyclically reduced word for free
    groups and the exponent vector for free abelian groups.
    """

    kind: str
    data: Word

    def is_identity(self) -> bool:
        if self.kind == "free":
            return not self.data
        return not any(self.data)

    def inverse(self) -> "ConjClass":
        if self.kind == "free":
            return _canon_free(tuple(-x for x in reversed(self.data)))
        return ConjClass("abelian", tuple(-x for x in self.data))

    def sort_key(self):
        if self.kind == "free":
            return (len(self.data), _word_key(self.data))
        return (0, self.data)

    def __str__(self) -> str:  # symbolic form needs a GroupSpec; use indices
        return f"ConjClass({self.data})"


def _canon_free(w: Word) -> ConjClass:
    w = _cyclic_reduce(reduce_word(w))
    if not w:
        return ConjClass("free", ())
    best = min(range(len(w)), key=lambda i: _word_key(w[i:] + w[:i]))
    return ConjClass("free", w[best:] + w[:best])


def conj_class(spec: GroupSpec, w: Word) -> ConjClass:
    """Canonical free-homotopy class of the loop with holonomy ``w``."""
    if spec.kind == "free":
        return _canon_free(w)
    return ConjClass("abelian", tuple(w))


def unoriented_class(spec: GroupSpec, w: Word) -> ConjClass:
    """Class of an undirected loop: the smaller of the class and its inverse."""
    c = conj_class(spec, w)
    ci = c.inverse()
    return c if c.sort_key() <= ci.sort_key() else ci


# -- symbolic display / parsing ---------------------------------------

def word_to_text(spec: GroupSpec, letters_or_class) -> str:
    """Render a word or ConjClass as generator syllables, identity as ``1``."""
    if isinstance(letters_or_class, ConjClass):
        data = letters_or_class.data
        if letters_or_class.kind == "abelian":
            return _vector_to_text(spec, data)
        letters = data
    elif spec.kind == "abelian":
        return _vector_to_text(spec, letters_or_class)
    else:
        letters = letters_or_class
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name = spec.names[abs(letters[i]) - 1]
        power = (j - i) * (1 if letters[i] > 0 else -1)
        parts.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(parts)


def _vector_to_text(spec: GroupSpec, vec) -> str:
    parts = []
    for name, e in zip(spec.names, vec):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def text_to_word(spec: GroupSpec, text: str) -> Word:
    """Parse generator syllables back into a group element."""
    text = text.strip()
    if text == "1":
        return spec.identity()
    index = {n: i for i, n in enumerate(spec.names)}
    if spec.kind == "abelian":
        vec = [0] * spec.rank
    else:
        letters: list[int] = []
    for token in text.split():
        if "^" in token:
            name, _, p = token.partition("^")
            try:
                power = int(p)
            except ValueError:
                raise ValueError(f"bad exponent in {token!r}") from None
        else:
            name, power = token, 1
        if name not in index:
            raise ValueError(f"unknown generator {name!r}")
        i = index[name]
        if spec.kind == "abelian":
            vec[i] += power
        else:
            letter = (i + 1) if power > 0 else -(i + 1)
            letters.extend([letter] * abs(power))
    if spec.kind == "abelian":
        return tuple(vec)
    return reduce_word(letters)
