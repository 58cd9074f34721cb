"""Core data model: hypotheses, classes and samples.

A hypothesis is a total 0/1-valued function on the non-negative integers,
stored as an int support mask: bit x is its value at x, so it is 0 past
its highest set bit. Equality is extensional (equal masks), and hashing
follows it. A sample is the masks of its 1-labeled and 0-labeled points
plus a count of its pairs, so consistency is two big-int operations,
``ones & ~f == 0 and f & zeros == 0``, whatever the sample's length.

Points must lie in 0..MASK_WIDTH-1, which caps a mask at 2^20 bits
(128 KiB); anything else raises PointError naming the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable
from weakref import WeakValueDictionary

from .errors import ClassFileError, ContradictorySample, EmptyClass, PointError

Point = int
Bit = int
LabeledPair = tuple[Point, Bit]

MASK_WIDTH = 1 << 20

_BITS = frozenset((0, 1))
# the "0"/"1" digits of bin() or of a class row to bytes 0/1, for itertools.compress
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# The points 0, 1, 2, ... as one shared tuple, so a view costs a pointer per
# point rather than a fresh int each. It grows by doubling, capped at
# MASK_WIDTH, and keeps its int objects when it grows: growing it to each
# wider mask exactly would copy it once per request, quadratic over a long
# game whose functions widen by a point at a time.
_POINTS: tuple[Point, ...] = ()


def point_bit(x: Point) -> int:
    """The mask bit of point ``x``."""
    if type(x) is not int or not 0 <= x < MASK_WIDTH:
        _check_points((x,))
    return 1 << x


def _check_points(points: tuple, what: str = "") -> None:
    """Raise PointError naming the first point that is not an int in
    0..MASK_WIDTH-1 (bools included) or that repeats."""
    if set(map(type, points)) <= {int} and len(set(points)) == len(points):
        if min(points, default=0) >= 0 and max(points, default=0) < MASK_WIDTH:
            return
    prefix = f"{what}: " if what else ""
    seen: set[Point] = set()
    for x in points:
        if type(x) is not int:
            raise PointError(f"{prefix}point {x!r} is not an integer")
        if x < 0:
            raise PointError(f"{prefix}negative point {x}")
        if x >= MASK_WIDTH:
            raise PointError(f"{prefix}point {x} is past the mask-width limit {MASK_WIDTH - 1}")
        if x in seen:
            raise PointError(f"{prefix}duplicate point {x}")
        seen.add(x)


def mask_points(mask: int) -> tuple[Point, ...]:
    """The set bits of ``mask``, in increasing order.

    A single run of ones, such as every function a ``free`` game reveals,
    is one slice of the point pool; any other mask is a scan of its bits.
    """
    global _POINTS
    width = mask.bit_length()
    if width > len(_POINTS):
        _POINTS += tuple(range(len(_POINTS), max(width, min(2 * len(_POINTS), MASK_WIDTH))))
    low = mask & -mask
    if mask & (mask + low) == 0:  # no 0 bit between the lowest and highest 1
        return _POINTS[low.bit_length() - 1 : width] if mask else ()
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return tuple(compress(_POINTS, bits))


@dataclass(frozen=True, eq=False, init=False)
class Hypothesis:
    """A name and a support mask; the function is 1 exactly on the mask's bits.

    ``Hypothesis(name, support)`` is the only constructor; a table of values
    is read only for a whole class, by ``HypothesisClass.from_rows``. It
    holds a name, a mask and one view slot, and no instance dict. ``domain``
    (the mask's 1-points in increasing order) and ``values`` (a 1 for each)
    are built by the first reader of a live mask and shared by equal masks.
    Only the tests and perfbench read them; a copy or a pickle carries none.
    """

    __slots__ = ("name", "support", "_views", "__weakref__")  # Python 3.10 has no weakref_slot=
    name: str
    support: int

    def __init__(self, name: str, support: int) -> None:
        if type(support) is not int or support < 0 or support.bit_length() > MASK_WIDTH:
            raise PointError(f"hypothesis {name!r}: support is not a mask below 2^{MASK_WIDTH}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "support", support)

    @property
    def domain(self) -> tuple[Point, ...]:
        return self._pair()[0]

    @property
    def values(self) -> tuple[Bit, ...]:
        return self._pair()[1]

    def _pair(self) -> tuple[tuple[Point, ...], tuple[Bit, ...]]:
        if not hasattr(self, "_views"):  # the first reader of a live mask builds, the rest copy
            twin = _VIEWED.setdefault(self.support, self)
            points = mask_points(self.support) if twin is self else None
            object.__setattr__(self, "_views", twin._pair() if points is None else (points, (1,) * len(points)))
        return self._views

    def __reduce__(self) -> tuple:
        return Hypothesis, (self.name, self.support)

    def __call__(self, x: Point) -> Bit:
        try:
            return self.support >> x & 1
        except ValueError:
            raise PointError(f"negative point {x}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypothesis):
            return NotImplemented
        return self.support == other.support

    def __hash__(self) -> int:
        return hash(self.support)

    def __repr__(self) -> str:
        return f"Hypothesis({self.name!r}, support={self.support:#x})"


# The hypothesis that holds the views of each mask, while one is alive.
_VIEWED: WeakValueDictionary[int, Hypothesis] = WeakValueDictionary()


def add_label(ones: int, zeros: int, x: Point, y: Bit) -> tuple[int, int]:
    """The (ones, zeros) masks after labeling ``x`` with ``y``; checks only
    this pair against the masks."""
    bit = point_bit(x)
    if y not in _BITS:
        raise ValueError("sample labels must be bits")
    if bit & (zeros if y else ones):
        raise ContradictorySample(f"point {x} labeled both 0 and 1")
    return (ones | bit, zeros) if y else (ones, zeros | bit)


@dataclass(frozen=True, slots=True, init=False)
class Sample:
    """A labeled sample as the masks of its 1-labeled and 0-labeled points,
    and ``size``, the number of pairs it was built from.

    ``Sample(pairs)`` is the only way to build one: a point may repeat only
    with the same label, and anything else is rejected because no function
    could realize it. ``extended`` adds one pair in O(1) big-int operations.
    """

    ones: int
    zeros: int
    size: int

    def __init__(self, pairs: Iterable[LabeledPair] = ()) -> None:
        ones = zeros = size = 0
        for x, y in pairs:
            ones, zeros = add_label(ones, zeros, x, y)
            size += 1
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "size", size)

    def extended(self, x: Point, y: Bit) -> "Sample":
        """This sample plus the pair (x, y), checking only the new pair."""
        ones, zeros = add_label(self.ones, self.zeros, x, y)
        s = object.__new__(Sample)
        object.__setattr__(s, "ones", ones)
        object.__setattr__(s, "zeros", zeros)
        object.__setattr__(s, "size", self.size + 1)
        return s

    def __len__(self) -> int:
        return self.size


def distinct(hypotheses: Iterable[Hypothesis]) -> tuple[Hypothesis, ...]:
    """Extensional deduplication, keeping first occurrences in order."""
    # dict.fromkeys keeps the first of equal keys, at its first position
    return tuple(dict.fromkeys(hypotheses))


@dataclass(frozen=True)
class HypothesisClass:
    """An ordered, finite set of hypotheses, each 0 off the shared domain."""

    domain: tuple[Point, ...]
    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise EmptyClass("a hypothesis class must be non-empty")
        _check_points(self.domain, "class domain")
        off_domain = ~sum(map((1).__lshift__, self.domain))
        for h in self.hypotheses:
            if h.support & off_domain:
                raise ValueError(f"hypothesis {h.name!r} is 1 off the class domain")

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __iter__(self):
        return iter(self.hypotheses)

    @cached_property
    def engine(self):
        """The class's one dimension engine, built on first use and shared by
        every consumer of the class; nobody grows it."""
        from .littlestone import _DimensionEngine  # littlestone imports this module

        return _DimensionEngine(self.hypotheses)

    @classmethod
    def from_rows(cls, domain: Iterable[Point], rows: Iterable[tuple[str, str]]) -> "HypothesisClass":
        """Build a class from (name, '0101...') rows over a shared domain,
        one 0/1 per domain point. The domain is checked before any row; a
        bad point raises PointError and a bad row ValueError, naming it."""
        dom = tuple(domain)
        _check_points(dom, "domain")
        point_bits = tuple(map((1).__lshift__, dom))
        hyps = []
        for name, values in rows:
            if not isinstance(values, str) or values.strip("01"):
                raise ValueError(f"hypothesis {name!r}: 'values' must be a string of 0/1")
            if len(values) != len(dom):
                raise ValueError(f"hypothesis {name!r}: {len(values)} values for {len(dom)} domain points")
            hyps.append(Hypothesis(name, sum(compress(point_bits, values.encode().translate(_BIT_BYTES)))))
        return cls(dom, tuple(hyps))


def is_consistent(h: Hypothesis, sample: Sample) -> bool:
    """True iff ``h`` agrees with every labeled pair of the sample."""
    return sample.ones & ~h.support == 0 and h.support & sample.zeros == 0


def load_class_file(path: str | Path) -> HypothesisClass:
    """Read a hypothesis class from a JSON file.

    Format: {"domain": [int, ...],
             "hypotheses": [{"name": str, "values": "0101..."}, ...]}.
    Points absent from the domain are implicitly 0. Every domain point must
    be a distinct integer in 0..MASK_WIDTH-1; the first that is not is
    named in the ClassFileError. A member without a name is named h<i>.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ClassFileError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
        raise ClassFileError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "domain" not in doc or "hypotheses" not in doc:
        raise ClassFileError(f"{path}: expected an object with 'domain' and 'hypotheses'")
    if not isinstance(doc["domain"], list):
        raise ClassFileError(f"{path}: 'domain' must be an array of integers")

    def rows():  # read lazily, so a bad domain is reported before a bad row
        if not isinstance(doc["hypotheses"], list):
            raise ClassFileError(f"{path}: 'hypotheses' must be an array")
        for i, entry in enumerate(doc["hypotheses"]):
            if not isinstance(entry, dict) or "values" not in entry:
                raise ClassFileError(f"{path}: hypothesis #{i} must be an object with 'values'")
            name = entry.get("name", f"h{i}")
            if not isinstance(name, str):
                raise ClassFileError(f"{path}: hypothesis #{i}: 'name' must be a string")
            yield name, entry["values"]

    try:
        return HypothesisClass.from_rows(doc["domain"], rows())
    except ValueError as exc:
        raise ClassFileError(f"{path}: {exc}") from exc
    except EmptyClass as exc:
        raise ClassFileError(f"{path}: class is empty") from exc


def save_class_file(c: HypothesisClass, path: str | Path) -> None:
    doc = {
        "domain": list(c.domain),
        "hypotheses": [
            {"name": h.name, "values": "".join(str(h(x)) for x in c.domain)}
            for h in c.hypotheses
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
