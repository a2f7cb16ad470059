"""Hamming-weight operator basis: indexing, counting, and sparse coefficient extraction.

The basis element o = |a><b| is indexed by the ket/bra bitstrings (a, b); its
weight is popcount(a) + popcount(b) and its zero-block count is the number of
qubit positions where both bits are 0. A state propagated through a noisy IQP
circuit is approximated by keeping every coefficient alpha_(a,b) = <a|rho|b> of
weight at most a cutoff k; those coefficients are read off propagated frame
strings, each weight-(<=k) index being supported by exactly one initial string.

A table is three aligned columns in entry order: ket and bra qubit positions
(ascending, padded with the sentinel n to min(k, n)) and complex values, so no
int mask is ever hashed. Callers read it through `MaskView`, a read-only
mapping keyed by (ket, bra) pairs of int masks. Every builder computes one
entry per Hermitian pair, and `mirrored_columns` alone turns those into a table.
"""

from __future__ import annotations

import math
import re
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circuit_model import FLOAT_FMT, Circuit
from .frame_engine import DIAG, MINUS, PLUS, initial_strings, propagate

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


POSITION = np.int32  # dtype of the qubit-position columns
_CHUNK = 1 << 12  # entries turned into Python keys and values at a time


def row_width(n: int, cutoff: int) -> int:
    """Positions per row of a cutoff-k table on n qubits: no mask of it has more than min(k, n) bits."""
    return max(1, min(cutoff, n))


def _mask_positions(mask, n: int) -> list[int]:
    """Ascending qubit positions set in an n-bit mask; ValueError unless it is an int in [0, 2^n)."""
    if not isinstance(mask, int) or mask < 0 or mask >> n:
        raise ValueError(f"masks must lie in [0, 2^{n}), got {mask!r}")
    positions = []
    while mask:
        top = mask.bit_length() - 1
        positions.append(n - 1 - top)
        mask ^= 1 << top
    return positions


def _padded_rows(positions: list, n: int, width: int) -> np.ndarray:
    """(len, width) array of position lists, each padded with the sentinel n."""
    return np.array([[*row, *[n] * (width - len(row))] for row in positions],
                    dtype=POSITION).reshape(-1, width)


def _masks(rows: np.ndarray, n: int) -> list[int]:
    """The int mask of every position row."""
    bit = [1 << (n - 1 - q) for q in range(n)] + [0]  # the sentinel n sets no bit
    masks = [0] * len(rows)
    for column in rows.T.tolist():
        masks = [m | b for m, b in zip(masks, map(bit.__getitem__, column))]
    return masks


def mirrored_columns(kets: np.ndarray, bras: np.ndarray, vals: np.ndarray) -> tuple:
    """Table columns from one entry per Hermitian pair, given in the caller's order.

    Drops every entry whose value is exactly 0 and puts each off-diagonal entry's
    mirror (bra, ket, 0.0 + conj(v)) right after it; the 0.0 + makes it +0.0j for a real v.
    """
    nonzero = np.flatnonzero(vals != 0)  # gathers by index: far faster than by mask on rows
    kets, bras, vals = (column.take(nonzero, axis=0) for column in (kets, bras, vals))
    is_off = (kets != bras).any(axis=1)
    at = np.arange(len(vals)) + np.cumsum(is_off) - is_off  # a mirror takes the next slot
    off = np.flatnonzero(is_off)
    columns = []  # each allocated once at its final size
    for own, mirror in ((kets, bras.take(off, axis=0)), (bras, kets.take(off, axis=0)),
                        (vals, 0.0 + vals.take(off).conj())):
        out = np.empty((len(vals) + len(off), *own.shape[1:]), dtype=own.dtype)
        out[at], out[at[off] + 1] = own, mirror
        columns.append(out)
    return tuple(columns)


def void_rows(rows: np.ndarray) -> np.ndarray:
    """One opaque fixed-size key per row, to sort, group and search rows as wholes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


class MaskView(Mapping):
    """Read-only mapping over the position columns of a table or a Fourier support.

    Entry i is `kets[i]` and, in a table, `bras[i]`: the ascending qubit
    positions of its masks, padded with the sentinel n. `vals[i]` is its value.
    Reads see int masks (a support) or (ket, bra) pairs of them (a table), with
    Python complex or float values, in entry order; iteration converts a chunk
    of entries at a time. A lookup binary-searches the rows, sorted on first use.
    """

    def __init__(self, n: int, kets: np.ndarray, bras: np.ndarray | None, vals: np.ndarray):
        self.n, self.kets, self.bras, self.vals = n, kets, bras, vals
        for column in (kets, vals) if bras is None else (kets, bras, vals):
            column.flags.writeable = False  # the lookup index and decoded pairs stay valid
        self._index: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_mapping(cls, n: int, entries: Mapping, cutoff: int | None = None) -> "MaskView":
        """Columns of outside keys: masks, or with a `cutoff` (ket, bra) pairs of weight <= cutoff.

        Raises ValueError for a table key that is not a (ket, bra) pair, a mask
        outside [0, 2^n), an entry above the cutoff or a non-finite value.
        """
        keys = list(entries)
        vals = np.array(list(entries.values()), dtype=float if cutoff is None else complex)
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):
            raise ValueError(f"entry {keys[bad[0]]} has a non-finite value {vals[bad[0]]}")
        if cutoff is None:
            kets = [_mask_positions(mask, n) for mask in keys]
            width = max([1, *map(len, kets)])
            return cls(n, _padded_rows(kets, n, width), None, vals)
        for key in keys:
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"table keys must be (ket, bra) pairs of masks, got {key!r}")
        kets = [_mask_positions(ket, n) for ket, _ in keys]
        bras = [_mask_positions(bra, n) for _, bra in keys]
        for key, ket, bra in zip(keys, kets, bras):
            if len(ket) + len(bra) > cutoff:
                raise ValueError(f"entry {key} has weight above the cutoff {cutoff}")
        width = row_width(n, cutoff)
        return cls(n, _padded_rows(kets, n, width), _padded_rows(bras, n, width), vals)

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Entry index of each key row (ket positions, then bra positions in a table); -1 if absent."""
        if self._index is None:
            own = void_rows(self.kets if self.bras is None else np.hstack((self.kets, self.bras)))
            order = np.argsort(own)
            self._index = own[order], order
        keys, order = self._index
        if not len(order):
            return np.full(len(rows), -1)
        wanted = void_rows(rows)
        at = np.searchsorted(keys, wanted).clip(max=len(order) - 1)
        return np.where(keys[at] == wanted, order[at], -1)

    def __getitem__(self, key):
        masks = (key,) if self.bras is None else key
        width = self.kets.shape[1]
        try:
            if not (isinstance(masks, tuple) and len(masks) == (1 if self.bras is None else 2)):
                raise ValueError(key)
            positions = [_mask_positions(mask, self.n) for mask in masks]
        except ValueError:
            raise KeyError(key) from None
        found = -1
        if max(map(len, positions)) <= width:
            found = int(self.locate(_padded_rows(positions, self.n, width).reshape(1, -1))[0])
        if found < 0:
            raise KeyError(key)
        return self.vals[found].item()

    def __len__(self) -> int:
        return len(self.vals)

    def iter_items(self, order: np.ndarray | None = None):
        """(key, value) pairs in entry order, or in the order of the entry indices `order`."""
        for lo in range(0, len(self), _CHUNK):
            pick = slice(lo, lo + _CHUNK) if order is None else order[lo:lo + _CHUNK]
            keys = _masks(self.kets[pick], self.n)
            if self.bras is not None:
                keys = zip(keys, _masks(self.bras[pick], self.n))
            yield from zip(keys, self.vals[pick].tolist())

    def __iter__(self):
        return (key for key, _ in self.iter_items())

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        if (isinstance(other, MaskView) and other.n == self.n
                and (other.bras is None) == (self.bras is None)
                and other.kets.shape[1] == self.kets.shape[1]):
            # rows of the same layout: look every own key up in `other` at once
            at = other.locate(self.kets if self.bras is None else np.hstack((self.kets, self.bras)))
            return bool((at >= 0).all() and (other.vals[at] == self.vals).all())
        missing = object()
        return all(other.get(key, missing) == v for key, v in self.iter_items())

    def __repr__(self) -> str:
        return f"MaskView({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self):
        return self._mapping.iter_items()


class _Values(ValuesView):
    def __iter__(self):
        vals = self._mapping.vals
        for lo in range(0, len(vals), _CHUNK):
            yield from vals[lo:lo + _CHUNK].tolist()


class HWCoefficientTable:
    """Coefficients of the ket-bra indices of weight <= cutoff, stored as position columns.

    `data` is a read-only MaskView keyed by (ket, bra) bitmask pairs. Builders
    pass their (kets, bras, values) columns to the constructor; assigning a
    mapping to `data` is the entry point for outside keys, which it checks.
    """

    def __init__(self, n: int, cutoff: int, columns: tuple | None = None):
        if not (0 <= cutoff <= 2 * n):
            raise ValueError(f"cutoff must be in [0, {2*n}], got {cutoff}")
        self.n = n
        self.cutoff = cutoff
        self._data = MaskView(n, *columns) if columns else MaskView.from_mapping(n, {}, cutoff)

    @property
    def data(self) -> MaskView:
        """(ket, bra) -> coefficient in entry order."""
        return self._data

    @data.setter
    def data(self, entries: Mapping) -> None:
        self._data = MaskView.from_mapping(self.n, entries, self.cutoff)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, ket: int, bra: int) -> complex:
        return self._data.get((ket, bra), 0.0)

    def hermiticity_defect(self) -> float:
        data = self._data
        mirror = data.locate(np.hstack((data.bras, data.kets)))
        partner = np.where(mirror >= 0, data.vals[mirror], 0.0)
        return float(np.abs(data.vals - partner.conj()).max(initial=0.0))

    def sorted_items(self):
        """((ket, bra), value) pairs in (weight, ket, bra) order, one at a time."""
        data = self._data
        # n - q is 0 for the sentinel and falls as the position q rises, so the
        # lexicographic order of these rows is the int order of the masks
        keys = self.n - np.vstack((data.bras.T[::-1], data.kets.T[::-1]))
        order = np.lexsort((*keys, np.count_nonzero(keys, axis=0)))  # last key, weight, first
        return data.iter_items(order)

    def text_rows(self):
        """(ket bits, bra bits, re, im) per entry in (weight, ket, bra) order, one at a time."""
        return ((f"{ket:0{self.n}b}", f"{bra:0{self.n}b}", v.real, v.imag)
                for (ket, bra), v in self.sorted_items())

    def serialize(self):
        """The table document, streamed as `<ket-bits> <bra-bits> <re> <im>` lines, one per row."""
        return (f"{ket} {bra} {format(re, FLOAT_FMT)} {format(im, FLOAT_FMT)}\n"
                for ket, bra, re, im in self.text_rows())

    def trace(self) -> complex:
        data = self._data
        return sum(data.vals[(data.kets == data.bras).all(axis=1)].tolist())

    def to_dense(self):
        """Dense matrix realization for small-n cross-checks."""
        out = np.zeros((1 << self.n, 1 << self.n), dtype=complex)
        for (ket, bra), v in self._data.items():
            out[ket, bra] += v
        return out


def parse_table(text: str) -> HWCoefficientTable:
    """Inverse of HWCoefficientTable.serialize; cutoff is the largest weight present.

    Bit strings must consist of 0s and 1s, values must be finite decimal
    numbers, and each (ket, bra) index may appear on one line only.
    """
    kets, bras, vals, origins = [], [], [], []
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
        kets.append(_mask_positions(int(ket_s, 2), n))
        bras.append(_mask_positions(int(bra_s, 2), n))
        vals.append(complex(float(re_s), float(im_s)))
        origins.append((lineno, ket_s, bra_s))
    if n is None:
        raise ValueError("empty table document")
    cutoff = max((len(ket) + len(bra) for ket, bra in zip(kets, bras)), default=0)
    width = row_width(n, cutoff)
    kets, bras = _padded_rows(kets, n, width), _padded_rows(bras, n, width)
    _, first, group = np.unique(void_rows(np.hstack((kets, bras))),
                                return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[group] != np.arange(len(vals)))
    if len(repeats):
        raise ValueError("line {}: repeated entry {} {}".format(*origins[repeats[0]]))
    return HWCoefficientTable(n, cutoff, (kets, bras, np.array(vals, dtype=complex)))


def build_table(circuit: Circuit, cutoff: int) -> HWCoefficientTable:
    """Propagate every needed initial string through `circuit` and extract the table.

    A propagated branch whose off-diagonal slots match an index (a, b) exactly
    contributes beta times the product, over diagonal slots inside the index's
    (1,1) positions, of the final argument a_t; all other indices get 0 from
    it. Every branch of a string hits the same indices and each index of
    weight <= cutoff comes from exactly one initial string, so each entry is
    the sum over that string's branches, in branch order.

    Only one string of each Hermitian-conjugate pair is propagated, and its
    entries go to `mirrored_columns`, which completes the table.
    """
    n = circuit.n
    kets, bras, vals = [], [], []  # position lists and values, in entry order
    for s in initial_strings(n, min(cutoff, n)):
        slots = s.offdiag_slots()
        if slots and slots[0][1] == MINUS:
            continue  # covered by its adjoint's mirror
        live = [(b.beta, b.diag_args) for b in propagate(s, circuit) if b.beta != 0]
        plus = [q for q, kind in slots if kind == PLUS]
        minus = [q for q, kind in slots if kind == MINUS]
        diag = [q for q, kind in enumerate(s.kinds) if kind == DIAG]
        # weights stay <= cutoff by construction
        for j in range((cutoff - len(slots)) // 2 + 1):
            for subset in combinations(diag, j):
                total = 0.0
                for beta, args in live:
                    value = beta
                    for q in subset:
                        value *= args[q]
                    total += value
                kets.append(sorted(plus + list(subset)))
                bras.append(sorted(minus + list(subset)))
                vals.append(total)
    width = row_width(n, cutoff)
    return HWCoefficientTable(n, cutoff, mirrored_columns(
        _padded_rows(kets, n, width), _padded_rows(bras, n, width), np.array(vals, dtype=complex)))
