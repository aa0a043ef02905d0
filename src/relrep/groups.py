"""Dense arithmetic over finite abelian groups given as products of cyclic factors.

Everything here works on exact boolean membership masks indexed by the
mixed-radix encoding of group elements, which keeps sumsets, spans and coset
computations both fast and bit-exact.  MEMORY_BUDGET is the one limit on dense
work: every place that decides a large allocation charges it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

# The one limit on dense work, in bytes.  Each charge is fitted to measured peak
# RSS above the interpreter's baseline (2 cores, Python 3.11, numpy 2.4).
MEMORY_BUDGET = 4 << 30

# Per group element, by sumset transform: masks, kept spectra, temporaries.  WHT, on
# (Z/2)^k: verify_sumsets at orders 2^20 and 2^22, validate_fixture and a search
# restart at 2^22 peaked at 67-83 B.  FFT, elsewhere: verify_sumsets peaked at 91-115 B
# on smooth orders 2^20 to 2^22 and 199-215 B with a large prime factor, which the FFT pads.
_BYTES_PER_ELEMENT = {"wht": 96, "fft": 240}

# The float64 WHT counts of _sum_counts are exact up to this order: arithmetic, not a budget.
_WHT_EXACT_ORDER = 1 << 26


class MemoryGuardError(MemoryError):
    """Work refused before allocating, because it would exceed MEMORY_BUDGET."""


def check_memory(need: int, what: str) -> None:
    """Refuse work charged ``need`` bytes over MEMORY_BUDGET; the one resource refusal."""
    if need > MEMORY_BUDGET:
        raise MemoryGuardError(f"memory guard: {what} needs about {need} bytes, "
                               f"over the {MEMORY_BUDGET}-byte budget")


def _trial_factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n up to ~10^12."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(n: int) -> bool:
    return n >= 2 and _trial_factorize(n) == {n: 1}


class GroupSpec:
    """Z/n1 x ... x Z/nr with elements encoded as mixed-radix indices.

    Coordinate 0 is the most significant digit, so for (Z/2Z)^k the index of
    a bitstring is ``int(bits, 2)`` with the leftmost character being
    coordinate 0.  Instances are immutable and safe to share.
    """

    def __init__(self, moduli: Sequence[int]):
        moduli = tuple(int(n) for n in moduli)
        if not moduli:
            raise ValueError("need at least one cyclic factor")
        if any(n < 2 for n in moduli):
            raise ValueError(f"moduli must all be >= 2, got {moduli}")
        order = math.prod(moduli)
        self._is_two_power = all(n == 2 for n in moduli)
        check_memory(order * _BYTES_PER_ELEMENT["wht" if self._is_two_power else "fft"],
                     f"dense work over a group of order {order}")
        self.moduli = moduli
        self.order = order
        self._weights = tuple(math.prod(moduli[i + 1:]) for i in range(len(moduli)))

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        return cls((n,))

    @classmethod
    def power(cls, base: int, exponent: int) -> "GroupSpec":
        """(Z/base)^exponent; power(2, k) is the GF(2)^k vector group."""
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        return cls((base,) * exponent)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def is_elementary_two(self) -> bool:
        return self._is_two_power

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupSpec) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"GroupSpec({self.moduli!r})"

    def describe(self) -> str:
        if self.rank == 1:
            return f"Z/{self.moduli[0]}"
        if len(set(self.moduli)) == 1:
            return f"(Z/{self.moduli[0]})^{self.rank}"
        return " x ".join(f"Z/{n}" for n in self.moduli)

    # -- scalar element arithmetic ------------------------------------

    def check_element(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.order:
            raise ValueError(f"element index {x} out of range for group of order {self.order}")
        return x

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return sum((int(c) % n) * w for c, n, w in zip(coords, self.moduli, self._weights))

    def decode(self, x: int) -> tuple[int, ...]:
        x = self.check_element(x)
        return tuple((x // w) % n for n, w in zip(self.moduli, self._weights))

    def add(self, x: int, y: int) -> int:
        if self._is_two_power:
            return self.check_element(x) ^ self.check_element(y)
        xs, ys = self.decode(x), self.decode(y)
        return self.encode([a + b for a, b in zip(xs, ys)])

    def neg(self, x: int) -> int:
        if self._is_two_power:
            return self.check_element(x)
        return self.encode([-c for c in self.decode(x)])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def elements(self) -> range:
        return range(self.order)

    # -- vectorized internals ------------------------------------------

    def _index_sub(self, x, y):
        """Index of x - y over index arrays: XOR on (Z/2)^k, digit-wise mod n otherwise."""
        if self._is_two_power:
            return x ^ y
        out = 0
        for n, w in zip(self.moduli, self._weights):
            out = out + (x // w - y // w) % n * w
        return out

    @cached_property
    def _indices(self) -> np.ndarray:
        idx = np.arange(self.order, dtype=np.intp)
        idx.setflags(write=False)
        return idx

    @cached_property
    def _negation_perm(self) -> np.ndarray:
        perm = self._index_sub(0, self._indices)
        perm.setflags(write=False)
        return perm

    def _translate_mask(self, mask: np.ndarray, c: int) -> np.ndarray:
        """Mask of S -> mask of S + c."""
        return mask[self._index_sub(self._indices, self.check_element(c))]

    def difference_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 of the order x order table D with D[x, y] = index of y - x."""
        idx = self._indices
        return self._index_sub(idx, idx[start:stop, None])

    # -- element text forms ---------------------------------------------

    def format_element(self, x: int) -> str:
        x = self.check_element(x)
        if self._is_two_power:
            return format(x, f"0{self.rank}b")
        if self.rank == 1:
            return str(x)
        return ",".join(str(c) for c in self.decode(x))

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if self._is_two_power:
            if len(text) != self.rank or set(text) - {"0", "1"}:
                raise ValueError(f"expected a {self.rank}-character bitstring, got {text!r}")
            return int(text, 2)
        if self.rank == 1:
            try:
                value = int(text)
            except ValueError:
                raise ValueError(f"expected an integer element, got {text!r}") from None
            return self.check_element(value)
        parts = text.split(",")
        if len(parts) != self.rank:
            raise ValueError(f"expected {self.rank} comma-separated coordinates, got {text!r}")
        coords = [int(p) for p in parts]
        if any(not 0 <= c < n for c, n in zip(coords, self.moduli)):
            raise ValueError(f"coordinates {text!r} out of range for {self.describe()}")
        return self.encode(coords)


class ElementSet:
    """An immutable dense subset of a finite abelian group."""

    __slots__ = ("group", "mask", "_size", "_transform")

    def __init__(self, group: GroupSpec, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (group.order,):
            raise ValueError(f"mask shape {mask.shape} does not match group order {group.order}")
        self.group = group
        self.mask = mask.copy()
        self.mask.setflags(write=False)
        self._size = int(self.mask.sum())
        self._transform = None

    @classmethod
    def _wrap(cls, group: GroupSpec, mask: np.ndarray) -> "ElementSet":
        """Take ownership of a freshly-built mask without copying."""
        obj = object.__new__(cls)
        mask.setflags(write=False)
        obj.group = group
        obj.mask = mask
        obj._size = int(mask.sum())
        obj._transform = None
        return obj

    @classmethod
    def empty(cls, group: GroupSpec) -> "ElementSet":
        return cls._wrap(group, np.zeros(group.order, dtype=bool))

    @classmethod
    def full(cls, group: GroupSpec) -> "ElementSet":
        return cls._wrap(group, np.ones(group.order, dtype=bool))

    @classmethod
    def singleton(cls, group: GroupSpec, x: int) -> "ElementSet":
        return cls.from_indices(group, (x,))

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "ElementSet":
        mask = np.zeros(group.order, dtype=bool)
        for x in indices:
            mask[group.check_element(x)] = True
        return cls._wrap(group, mask)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[self.group.check_element(x)])

    def __iter__(self) -> Iterator[int]:
        return (int(i) for i in np.flatnonzero(self.mask))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ElementSet) and self.group == other.group
                and np.array_equal(self.mask, other.mask))

    __hash__ = None  # mask-based identity; not for dict keys

    def __repr__(self) -> str:
        return f"<ElementSet of {self.group.describe()}, size {self._size}>"

    def _binary(self, other: "ElementSet", op) -> "ElementSet":
        if not isinstance(other, ElementSet):
            return NotImplemented
        return ElementSet._wrap(_same_group(self, other), op(self.mask, other.mask))

    def __or__(self, other):
        return self._binary(other, np.logical_or)

    def __and__(self, other):
        return self._binary(other, np.logical_and)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a & ~b)

    def __le__(self, other) -> bool:
        _same_group(self, other)
        return bool(np.all(~self.mask | other.mask))

    def complement(self) -> "ElementSet":
        return ElementSet._wrap(self.group, ~self.mask)

    def negated(self) -> "ElementSet":
        """The pointwise negation {-s : s in S}."""
        return ElementSet._wrap(self.group, self.mask[self.group._negation_perm])

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.mask, self.mask[self.group._negation_perm]))

    def _spectrum(self) -> np.ndarray:
        """The mask's transform for sumsets, computed on first use and kept read-only.

        A float64 Walsh-Hadamard transform on (Z/2Z)^k, an FFT over the cyclic
        factors on other groups; either way a set in many sumsets is
        transformed once, and a kept spectrum takes about 8 bytes per element.
        """
        if self._transform is None:
            group = self.group
            if group.is_elementary_two:
                spectrum = _walsh_hadamard(self.mask.astype(np.float64))
            else:
                spectrum = np.fft.rfftn(self.mask.reshape(group.moduli))
            spectrum.setflags(write=False)
            self._transform = spectrum
        return self._transform


def _same_group(left: ElementSet, right: ElementSet) -> GroupSpec:
    if left.group != right.group:
        raise ValueError("element sets live in different groups")
    return left.group


@lru_cache(maxsize=None)
def _hadamard(d: int) -> np.ndarray:
    """The read-only float64 Sylvester-Hadamard matrix of order 2^d."""
    h = np.ones((1, 1))
    for _ in range(d):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """The unnormalised WHT of a float64 vector of length 2^k; may overwrite ``values``.

    One matrix product per near-equal digit of at most 6 index bits applies H to the
    lowest digit and moves it to the top of the index, so after the last digit the
    index is in order again.  Every value, partial sums in a product included, is a
    signed sum of inputs: the transform is exact while sum |values| <= 2^53.
    """
    if values.dtype != np.float64 or values.ndim != 1:
        raise ValueError("the Walsh-Hadamard transform takes a float64 vector")
    k = values.size.bit_length() - 1
    digits = -(-k // 6)
    src, dst = values, np.empty_like(values)
    for i in range(digits):
        d = (k + i) // digits
        np.matmul(_hadamard(d), src.reshape(-1, 1 << d).T, out=dst.reshape(1 << d, -1))
        src, dst = dst, src
    return src


def _sum_counts(left: ElementSet, right: ElementSet) -> np.ndarray:
    """Exact counts c[z] = #{(x, y): x + y = z, x in left, y in right}, as float64.

    Multiplies the two sets' spectra (:meth:`ElementSet._spectrum`) and inverts
    the product.  On (Z/2)^k of order N the float64 WHT counts are exact up to
    N = 2^26: each value inside the forward transform is at most |A| <= N, and
    each inside the inverse at most sum_chi |A^(chi) B^(chi)| <= N sqrt(|A| |B|)
    <= N^2 <= 2^53 by Cauchy-Schwarz and Parseval (sum_chi A^(chi)^2 = N |A|);
    scaling by 1/N, a power of two, is exact.  FFT rounding is checked below 1/4.
    """
    group = _same_group(left, right)
    if group.is_elementary_two:
        if group.order > _WHT_EXACT_ORDER:
            raise ValueError(f"float64 WHT counts are exact only up to order {_WHT_EXACT_ORDER}")
        # the product is not kept, so its buffer is free again for the rint check
        counts = _walsh_hadamard(left._spectrum() * right._spectrum())
        counts *= 1 / group.order
        if not np.array_equal(np.rint(counts), counts):
            raise AssertionError("xor convolution produced non-integer counts")
        return counts
    product = left._spectrum() * right._spectrum()
    conv = np.fft.irfftn(product, s=group.moduli, axes=range(group.rank)).ravel()
    counts = np.rint(conv)
    if np.abs(conv - counts).max() > 0.25:
        raise AssertionError("cyclic convolution lost integer exactness")
    return counts


def sumset(left: ElementSet, right: ElementSet) -> ElementSet:
    """The exact sumset {x + y : x in left, y in right}; agrees with :func:`sumset_reference`."""
    return ElementSet._wrap(left.group, _sum_counts(left, right) > 0)


def sumset_reference(left: ElementSet, right: ElementSet) -> ElementSet:
    """Definitional double loop; kept as the oracle the fast path is tested against."""
    group = _same_group(left, right)
    ys = right.indices().tolist()  # read once, not once per element of left
    out = set()
    for x in left:
        for y in ys:
            out.add(group.add(x, y))
    return ElementSet.from_indices(group, out)


@dataclass(frozen=True)
class Subgroup:
    generators: tuple[int, ...]
    elements: ElementSet

    @property
    def order(self) -> int:
        return len(self.elements)


def span(group: GroupSpec, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators, computed by closure."""
    gens = tuple(group.check_element(v) for v in generators)
    mask = np.zeros(group.order, dtype=bool)
    mask[0] = True
    members = group._indices[:1]
    for gen in gens:
        # members is a subgroup H; H + <gen> is the disjoint union of the
        # cosets H + j*gen over the multiples j*gen before the first in H
        reps = [0]
        step = gen
        while not mask[step]:
            reps.append(step)
            step = group.add(step, gen)
        members = group._index_sub(members[:, None], group._negation_perm[reps]).ravel()
        mask[members] = True
    return Subgroup(gens, ElementSet._wrap(group, mask))


def is_primitive_root(g: int, p: int) -> bool:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return g % p != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in _trial_factorize(p - 1))


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo a prime p (1 for p = 2)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return next(g for g in range(1, p) if is_primitive_root(g, p))


def cyclotomic_cosets(p: int, m: int, g: int | None = None) -> list[ElementSet]:
    """The m classes X_i = {g^(a*m + i)} of the multiplicative group mod p.

    X_0 is the index-m subgroup of (Z/pZ)^x and the others are its cosets;
    together they partition {1, ..., p-1}.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1 or (p - 1) % m != 0:
        raise ValueError(f"{m} does not divide p - 1 = {p - 1}")
    if g is None:
        g = primitive_root(p)
    elif not is_primitive_root(g, p):
        raise ValueError(f"{g} is not a primitive root mod {p}")
    group = GroupSpec.cyclic(p)
    # per element, each coset's mask and kept FFT spectrum, and one sumset's
    # transforms: comer peaked at 188-203 B at m = 2 and 240 at m = 8 (p = 1048129),
    # and at 615 B at m = 42 (p = 100003)
    check_memory(p * (11 * m + 200), f"a scheme of {m} cosets mod {p}")
    masks = np.zeros((m, p), dtype=bool)
    power = 1
    for t in range(p - 1):
        masks[t % m, power] = True
        power = power * g % p
    return [ElementSet._wrap(group, row) for row in masks]


@lru_cache(maxsize=8)
def hamming_weights(k: int) -> np.ndarray:
    """Popcounts of the indices 0 .. 2^k - 1."""
    counts = np.bitwise_count(np.arange(1 << k, dtype=np.uint32))
    counts.setflags(write=False)
    return counts


def weight_class(group: GroupSpec, lo: int, hi: int) -> ElementSet:
    """All elements of (Z/2Z)^k with Hamming weight in [lo, hi]."""
    if not group.is_elementary_two:
        raise ValueError("weight classes are defined over (Z/2Z)^k groups only")
    if not 0 <= lo <= hi <= group.rank:
        raise ValueError(f"weight bounds [{lo}, {hi}] out of range for k = {group.rank}")
    w = hamming_weights(group.rank)
    return ElementSet._wrap(group, (w >= lo) & (w <= hi))
