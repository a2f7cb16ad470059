"""Hamming-weight operator basis: indexing, counting, and sparse coefficient extraction.

The basis element o = |a><b| is indexed by the ket/bra bitstrings (a, b); its
weight is popcount(a) + popcount(b) and its zero-block count is the number of
qubit positions where both bits are 0. A state propagated through a noisy IQP
circuit is approximated by keeping every coefficient alpha_(a,b) = <a|rho|b> of
weight at most a cutoff k; those coefficients are read off propagated frame
strings, each weight-(<=k) index being supported by exactly one initial string.
"""

from __future__ import annotations

import math
import re
from collections.abc import ItemsView, Mapping, MutableMapping
from dataclasses import dataclass
from itertools import combinations

from .circuit_model import FLOAT_FMT, Circuit
from .frame_engine import MINUS, PLUS, FrameString, initial_strings, propagate

# A finite decimal number as `serialize` writes it: no `_` separators, no nan/inf.
_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


@dataclass(frozen=True)
class HWIndex:
    """One ket-bra basis index; bit i of ket/bra is qubit i read MSB-first."""

    n: int
    ket: int
    bra: int

    @property
    def weight(self) -> int:
        return self.ket.bit_count() + self.bra.bit_count()

    @property
    def zero_blocks(self) -> int:
        return self.n - (self.ket | self.bra).bit_count()

    def bitstrings(self) -> tuple[str, str]:
        return format(self.ket, f"0{self.n}b"), format(self.bra, f"0{self.n}b")


def zero_block_range(h: int, n: int) -> tuple[int, int]:
    """(max, min) possible zero-block counts among weight-h operators on n qubits."""
    if not (0 <= h <= 2 * n):
        raise ValueError(f"weight must be in [0, {2*n}], got {h}")
    return n - (h + 1) // 2, max(0, n - h)


def count_weight_h_with_r_zeroblocks(h: int, r: int, n: int) -> int:
    """Number of weight-h ket-bra indices with exactly r zero blocks.

    Counting blocks of the four kinds, r blocks are (0,0), w = h - n + r are
    (1,1) and u = 2(n - r) - h are off-diagonal with 2 sign choices each:
    multinomial(n; r, w, u) * 2^u. Summed over r this gives C(2n, h).
    """
    mu, lo = zero_block_range(h, n)
    if not (lo <= r <= mu):
        raise ValueError(f"zero-block count {r} outside [{lo}, {mu}] for h={h}, n={n}")
    w = h - n + r
    u = n - r - w
    return math.comb(n, r) * math.comb(n - r, w) * (2 ** u)


_BAD_KEY = (TypeError, ValueError, OverflowError, AttributeError)


def _mask_width(n: int) -> int:
    return max(1, (n + 7) // 8)


class MaskMap(MutableMapping):
    """Insertion-ordered map keyed by n-bit masks, or by (ket, bra) pairs of them.

    Python hashes an int as its value mod 2^61 - 1, so past 61 qubits masks
    whose bits sit 61 places apart collide: at n = 600 the 179,700 two-bit
    masks share 1,891 hashes and a dict keyed by them degrades to long probe
    chains. Each mask is therefore stored as mask.to_bytes(width, "little")
    with width = ceil(n / 8), and a (ket, bra) key as a 2-tuple of those;
    bytes hash with SipHash. Reads, iteration, `items()`, `len`, `==` and
    `dict(...)` see int or (ket, bra) keys in insertion order.

    `raw` is the stored dict. Builders that already hold encoded keys wrap it
    with `from_encoded` and skip the re-encoding.
    """

    def __init__(self, n: int, pairs: bool, entries=()):
        self.width = _mask_width(n)
        self.pairs = pairs
        self.raw: dict = {}
        self._decoded: list | None = None
        self.update(entries)

    @classmethod
    def from_encoded(cls, n: int, pairs: bool, raw: dict) -> "MaskMap":
        """Wrap a dict whose keys are already encoded for this n, without copying."""
        out = cls(n, pairs)
        out.raw = raw
        return out

    @classmethod
    def of(cls, n: int, pairs: bool, entries) -> "MaskMap":
        """`entries` itself when it is a MaskMap of this shape, else a re-keyed copy."""
        if (isinstance(entries, MaskMap) and entries.pairs == pairs
                and entries.width == _mask_width(n)):
            return entries
        return cls(n, pairs, entries)

    def encode_mask(self, mask: int) -> bytes:
        return mask.to_bytes(self.width, "little")

    def encode(self, key):
        if self.pairs:
            ket, bra = key
            return self.encode_mask(ket), self.encode_mask(bra)
        return self.encode_mask(key)

    def decode(self, raw):
        if self.pairs:
            return int.from_bytes(raw[0], "little"), int.from_bytes(raw[1], "little")
        return int.from_bytes(raw, "little")

    def add_pair(self, ket: int, bra: int, value, mirror: bool = False) -> None:
        """Add `value` at (ket, bra), and with `mirror` its conjugate at (bra, ket).

        Each mask is encoded once and the encoding shared by both entries.
        """
        width, raw = self.width, self.raw
        ket_b, bra_b = ket.to_bytes(width, "little"), bra.to_bytes(width, "little")
        key = (ket_b, bra_b)
        raw[key] = raw.get(key, 0.0) + value
        if mirror:
            key = (bra_b, ket_b)
            raw[key] = raw.get(key, 0.0) + value.conjugate()
        self._decoded = None

    def int_items(self) -> list:
        """Decoded (key, value) pairs in insertion order, built once and kept until the map changes."""
        if self._decoded is None:
            self._decoded = list(self.items())
        return self._decoded

    def __getitem__(self, key):
        try:
            return self.raw[self.encode(key)]
        except (KeyError, *_BAD_KEY):
            raise KeyError(key) from None

    def __setitem__(self, key, value) -> None:
        self.raw[self.encode(key)] = value
        self._decoded = None

    def __delitem__(self, key) -> None:
        try:
            del self.raw[self.encode(key)]
        except (KeyError, *_BAD_KEY):
            raise KeyError(key) from None
        self._decoded = None

    def __iter__(self):
        return map(self.decode, self.raw)

    def __len__(self) -> int:
        return len(self.raw)

    def items(self):
        return _DecodedItems(self)

    def values(self):
        return self.raw.values()

    def __eq__(self, other) -> bool:
        if isinstance(other, MaskMap) and (other.width, other.pairs) == (self.width, self.pairs):
            return self.raw == other.raw
        if not isinstance(other, Mapping):
            return NotImplemented
        try:
            rekeyed = {self.encode(k): v for k, v in other.items()}
        except _BAD_KEY:
            return False
        return len(rekeyed) == len(other) and rekeyed == self.raw

    def __repr__(self) -> str:
        return f"MaskMap({{{', '.join(f'{k!r}: {v!r}' for k, v in self.items())}}})"


class _DecodedItems(ItemsView):
    def __iter__(self):
        decode = self._mapping.decode
        for key, value in self._mapping.raw.items():
            yield decode(key), value


class HWCoefficientTable:
    """Sparse map from (ket, bra) bitmask pairs to complex coefficients, weight <= cutoff."""

    def __init__(self, n: int, cutoff: int):
        if not (0 <= cutoff <= 2 * n):
            raise ValueError(f"cutoff must be in [0, {2*n}], got {cutoff}")
        self.n = n
        self.cutoff = cutoff
        self._data = MaskMap(n, pairs=True)

    @property
    def data(self) -> MaskMap:
        """(ket, bra) -> coefficient; a plain mapping assigned here is re-keyed into a MaskMap."""
        return self._data

    @data.setter
    def data(self, entries) -> None:
        self._data = MaskMap.of(self.n, True, entries)

    def __len__(self) -> int:
        return len(self._data)

    def add(self, ket: int, bra: int, value: complex) -> None:
        if (ket | bra) >> self.n:  # nonzero for a negative mask or one >= 2^n
            raise ValueError(f"masks must lie in [0, 2^{self.n}), got ket={ket}, bra={bra}")
        if ket.bit_count() + bra.bit_count() > self.cutoff:
            raise ValueError("entry weight exceeds cutoff")
        self._data.add_pair(ket, bra, value)

    def get(self, ket: int, bra: int) -> complex:
        return self._data.get((ket, bra), 0.0)

    def hermiticity_defect(self) -> float:
        raw = self._data.raw
        worst = 0.0
        for (ket, bra), v in raw.items():
            worst = max(worst, abs(v - raw.get((bra, ket), 0.0).conjugate()))
        return worst

    def sorted_items(self) -> list[tuple[tuple[int, int], complex]]:
        return sorted(self._data.items(),
                      key=lambda kv: (kv[0][0].bit_count() + kv[0][1].bit_count(), kv[0][0], kv[0][1]))

    def parity_sums(self) -> dict[bytes, complex]:
        """Sum of the values per parity ket XOR bra, keyed by the parity's mask encoding.

        Parities appear in order of first occurrence and each sum is taken in
        insertion order.
        """
        data = self._data
        width = data.width
        zero = data.encode_mask(0)
        from_bytes = int.from_bytes
        acc: dict[bytes, complex] = {}
        get = acc.get
        for (ket, bra), v in data.raw.items():
            if bra == zero:
                s = ket
            elif ket == zero:
                s = bra
            elif ket == bra:
                s = zero
            else:
                s = (from_bytes(ket, "little") ^ from_bytes(bra, "little")).to_bytes(width, "little")
            acc[s] = get(s, 0.0) + v
        return acc

    def serialize(self) -> str:
        """One `<ket-bits> <bra-bits> <re> <im>` line per entry, sorted by (weight, ket, bra)."""
        width = self.n
        lines = []
        for (ket, bra), v in self.sorted_items():
            lines.append(f"{ket:0{width}b} {bra:0{width}b} "
                         f"{format(v.real, FLOAT_FMT)} {format(v.imag, FLOAT_FMT)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def trace(self) -> complex:
        return sum(v for (ket, bra), v in self._data.raw.items() if ket == bra)

    def to_dense(self):
        """Dense matrix realization for small-n cross-checks."""
        import numpy as np

        out = np.zeros((1 << self.n, 1 << self.n), dtype=complex)
        for (ket, bra), v in self._data.items():
            out[ket, bra] += v
        return out


def parse_table(text: str) -> HWCoefficientTable:
    """Inverse of HWCoefficientTable.serialize; cutoff is the largest weight present.

    Bit strings must consist of 0s and 1s, values must be finite decimal
    numbers, and each (ket, bra) index may appear on one line only.
    """
    entries: dict[tuple[int, int], complex] = {}
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'ket bra re im', got {line!r}")
        ket_s, bra_s, re_s, im_s = parts
        if n is None:
            n = len(ket_s)
        if len(ket_s) != n or len(bra_s) != n:
            raise ValueError(f"line {lineno}: inconsistent bitstring width")
        if ket_s.strip("01") or bra_s.strip("01"):
            raise ValueError(f"line {lineno}: bit strings must consist of 0s and 1s, "
                             f"got {ket_s!r} {bra_s!r}")
        if not all(_DECIMAL.fullmatch(x) and math.isfinite(float(x)) for x in (re_s, im_s)):
            raise ValueError(f"line {lineno}: values must be finite decimal numbers, "
                             f"got {re_s!r} {im_s!r}")
        key = (int(ket_s, 2), int(bra_s, 2))
        if key in entries:
            raise ValueError(f"line {lineno}: repeated entry {ket_s} {bra_s}")
        entries[key] = complex(float(re_s), float(im_s))
    if n is None:
        raise ValueError("empty table document")
    cutoff = max((k.bit_count() + b.bit_count() for k, b in entries), default=0)
    table = HWCoefficientTable(n, cutoff)
    for (ket, bra), v in entries.items():
        table.add(ket, bra, v)
    return table


def _string_masks(s: FrameString) -> tuple[int, int, list[int]]:
    """(ket bits from Plus slots, bra bits from Minus slots, diagonal positions)."""
    ket = bra = 0
    diag: list[int] = []
    for q, kind in enumerate(s.kinds):
        bit = 1 << (s.n - 1 - q)
        if kind == PLUS:
            ket |= bit
        elif kind == MINUS:
            bra |= bit
        else:
            diag.append(q)
    return ket, bra, diag


def build_table(circuit: Circuit, cutoff: int, mirror: bool = True) -> HWCoefficientTable:
    """Propagate every needed initial string through `circuit` and extract the table.

    A propagated branch whose off-diagonal slots match an index (a, b) exactly
    contributes beta times the product, over diagonal slots inside the index's
    (1,1) positions, of the final argument a_t; all other indices get 0 from
    it. Every branch of a string hits the same indices and each index of
    weight <= cutoff comes from exactly one initial string, so each entry is
    the sum over that string's branches, in branch order, added once.

    With mirror=True only one string of each Hermitian-conjugate pair is
    propagated; the partner's contributions are the mirrored conjugates, which
    makes the table exactly Hermitian.
    """
    n = circuit.n
    table = HWCoefficientTable(n, cutoff)
    data = table.data
    max_off = min(cutoff, n)
    for s in initial_strings(n, max_off):
        slots = s.offdiag_slots()
        if mirror and slots and slots[0][1] == MINUS:
            continue  # covered by its adjoint's mirror
        mirrored = mirror and bool(slots)
        live = [(b.beta, b.diag_args) for b in propagate(s, circuit)]
        live = [(beta, args) for beta, args in live if beta != 0]
        if not live:
            continue
        ket0, bra0, diag = _string_masks(s)
        # weights stay <= cutoff by construction, so table.add's check is skipped
        for j in range((cutoff - len(slots)) // 2 + 1):
            for subset in combinations(diag, j):
                bits = 0
                for q in subset:
                    bits |= 1 << (n - 1 - q)
                total = 0.0
                for beta, args in live:
                    value = beta
                    for q in subset:
                        value *= args[q]
                    total += value
                data.add_pair(ket0 | bits, bra0 | bits, total, mirrored)
    return table
