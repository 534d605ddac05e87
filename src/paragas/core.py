"""Domain types (transactions, transaction sets, weights) and their JSON.

Every quantity (execution time, weight, gas) is an exact rational.  Nothing in
this package ever goes through floating point, so all comparisons are exact.

Every JSON format of the package is read here and only here: block files,
the transaction objects that blocks and property witnesses share, and key
weights, in a block or in a weights file (``parse_weights``);
``json_object`` is the one check of an object's fields, which the workload
and witness readers use too.  Every error message that echoes an
input shows it through ``echo`` (a repr) or ``cut`` (a rational as
``format_rational`` prints it), so a huge input gives a short message.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator, Mapping


class BlockError(ValueError):
    """Base class for malformed transactions or blocks."""


class EmptyKeySet(BlockError):
    pass


class NonPositiveTime(BlockError):
    pass


class DuplicateId(BlockError):
    pass


class MalformedDocument(BlockError):
    pass


class NonPositiveWeight(BlockError):
    pass


ECHO_CHARS = 80  # the longest repr of an input that an error echoes whole


def cut(text: str) -> str:
    """``text`` for an error message that echoes an input: cut to
    ``ECHO_CHARS`` characters, with its full length appended, when longer,
    so a huge input gives a short error line."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def echo(value) -> str:
    """``repr(value)``, cut as ``cut`` cuts it."""
    return cut(repr(value))


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def to_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational given as an int, Fraction or "p/q" string.
    A Fraction is returned as it is: it is immutable."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise MalformedDocument(f"not a rational: {echo(value)}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value.strip())
        if m is not None and m.group(2) != "0":
            try:
                return Fraction(int(m.group(1)), int(m.group(2) or 1))
            except ValueError:  # more digits than int() converts
                pass
    raise MalformedDocument(f"not a rational: {echo(value)}")


def rational_of(what: str, value) -> Fraction:
    """``to_rational(value)``, where a value that is no rational is refused
    with a message naming ``what``: the field or flag it was given in."""
    try:
        return to_rational(value)
    except MalformedDocument:
        raise MalformedDocument(
            f"{what} is not a rational: {echo(value)}") from None


def over_lcm(values) -> tuple[list[int], int]:
    """The numerators of the rationals ``values`` over the lcm of their
    denominators, in order, and that lcm: the one way the package turns
    rationals into integers that keep their order, sums and ratios."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q" (never a decimal)."""
    return str(value)


def format_approx(value: Fraction) -> str:
    """A rational to 6 significant digits for display, as ``f"{x:g}"``
    prints the float x, also when it is too large for a float."""
    try:
        return f"{float(value):g}"
    except OverflowError:
        from decimal import Context, Decimal
        rounded = Context(prec=6).divide(Decimal(value.numerator),
                                         Decimal(value.denominator))
        return f"{rounded.normalize():g}"


@dataclass(frozen=True)
class Transaction:
    """A transaction abstracted to (execution time, locked storage keys).

    Identity is carried by ``tx_id``: two distinct transactions may share the
    same (time, keys) tuple.
    """

    tx_id: str
    time: Fraction
    keys: frozenset[str]


def make_transaction(tx_id: str, time: int | str | Fraction,
                     keys: Iterable[str]) -> Transaction:
    """A checked transaction.  The id and every key must be strings: a
    number is refused, not coerced, since 1 and "1" would name one key."""
    keys = tuple(keys)
    if not isinstance(tx_id, str):
        raise MalformedDocument(
            f"transaction id {echo(tx_id)} is not a string")
    if not all(isinstance(k, str) for k in keys):
        raise MalformedDocument(f"transaction {echo(tx_id)}: keys must be "
                                f"strings, got {echo(list(keys))}")
    t = rational_of(f"transaction {echo(tx_id)}: time", time)
    if t <= 0:
        raise NonPositiveTime(
            f"transaction {echo(tx_id)}: time must be > 0, "
            f"got {cut(format_rational(t))}")
    key_set = frozenset(keys)
    if not key_set:
        raise EmptyKeySet(
            f"transaction {echo(tx_id)}: key set must be non-empty")
    return Transaction(tx_id, t, key_set)


def similar(tx1: Transaction, tx2: Transaction) -> bool:
    """Whether the two transactions have equal (time, keys) tuples."""
    return tx1.time == tx2.time and tx1.keys == tx2.keys


def concatenate(tx1: Transaction, tx2: Transaction, tx_id: str) -> Transaction:
    """Sequential composition: executes tx1 then tx2 atomically."""
    return Transaction(str(tx_id), tx1.time + tx2.time, tx1.keys | tx2.keys)


_tx_id = attrgetter("tx_id")
_set = object.__setattr__  # TxSet's own __setattr__ refuses every write


class TxSet:
    """An immutable set of transactions with distinct ids (a block).

    The set keeps its total time and its compiled form (the scheduler's
    integer form of the block) once they are first asked for.
    """

    __slots__ = ("txs", "_by_id", "_total", "_compiled")

    def __init__(self, txs: Iterable[Transaction] = ()):
        self._fill(tuple(sorted(txs, key=_tx_id)))

    @classmethod
    def _sorted(cls, ordered: tuple) -> "TxSet":
        """The set of ``ordered``, a tuple already sorted by id."""
        txs = object.__new__(cls)
        txs._fill(ordered)
        return txs

    def _fill(self, ordered: tuple) -> None:
        by_id = {tx.tx_id: tx for tx in ordered}
        if len(by_id) < len(ordered):
            dup = next(a.tx_id for a, b in zip(ordered, ordered[1:])
                       if a.tx_id == b.tx_id)
            raise DuplicateId(f"duplicate transaction id {echo(dup)}")
        _set(self, "txs", ordered)
        _set(self, "_by_id", by_id)

    def __setattr__(self, name, value):
        raise AttributeError("TxSet is immutable")

    def __len__(self) -> int:
        return len(self.txs)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.txs)

    def __contains__(self, item) -> bool:
        if isinstance(item, Transaction):
            held = self._by_id.get(item.tx_id)
            return held is item or held == item
        return item in self._by_id

    def __eq__(self, other) -> bool:
        return isinstance(other, TxSet) and self.txs == other.txs

    def __hash__(self) -> int:
        return hash(self.txs)

    def __repr__(self) -> str:
        return f"TxSet({list(self.txs)!r})"

    def get(self, tx_id: str) -> Transaction:
        return self._by_id[tx_id]

    @property
    def ids(self) -> frozenset[str]:
        return frozenset(self._by_id)

    def with_txs(self, *extra: Transaction) -> "TxSet":
        return TxSet._sorted(tuple(sorted(self.txs + extra, key=_tx_id)))

    def subset(self, ids: Iterable[str]) -> "TxSet":
        wanted = set(ids)
        missing = wanted - self._by_id.keys()
        if missing:
            raise KeyError(f"unknown transaction ids: {sorted(missing)}")
        return TxSet._sorted(tuple(tx for tx in self.txs
                                   if tx.tx_id in wanted))

    def total_time(self) -> Fraction:
        value = getattr(self, "_total", None)
        if value is None:
            value = sum((tx.time for tx in self.txs), Fraction(0))
            _set(self, "_total", value)
        return value

    def compiled_form(self, build):
        """``build(self)``, made on the first call and kept with the set;
        the scheduler keeps its integer form of the block here."""
        value = getattr(self, "_compiled", None)
        if value is None:
            value = build(self)
            _set(self, "_compiled", value)
        return value

    def all_keys(self) -> frozenset[str]:
        keys: set[str] = set()
        for tx in self.txs:
            keys |= tx.keys
        return frozenset(keys)

    def shape_key(self) -> tuple:
        """Canonical multiset of (time, keys) tuples; ids do not matter for
        scheduling, so this is the memoization key for makespans."""
        return tuple(sorted((tx.time, tuple(sorted(tx.keys)))
                            for tx in self.txs))


@dataclass(frozen=True)
class WeightTable:
    """Positive per-key weights; keys absent from the map get default_weight."""

    weights: Mapping[str, Fraction] = None  # type: ignore[assignment]
    default_weight: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights or {}))
        object.__setattr__(self, "default_weight",
                           rational_of("default_weight", self.default_weight))
        if self.default_weight <= 0:
            raise NonPositiveWeight(
                f"default weight must be > 0, "
                f"got {cut(format_rational(self.default_weight))}")
        for key, w in self.weights.items():
            w = rational_of(f"weight of {echo(key)}", w)
            self.weights[key] = w
            if w <= 0:
                raise NonPositiveWeight(
                    f"weight of {echo(key)} must be > 0, "
                    f"got {cut(format_rational(w))}")

    def get(self, key: str) -> Fraction:
        return self.weights.get(key, self.default_weight)


def _unique_keys(pairs: list) -> dict:
    """JSON object hook that refuses a key given twice in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedDocument(f"duplicate JSON key {echo(key)}")
        obj[key] = value
    return obj


def load_json(document: str):
    """``json.loads`` that reports every undecodable document, including
    integers too long to convert, nesting too deep to parse and a key given
    twice in one object, as MalformedDocument."""
    try:
        return json.loads(document, object_pairs_hook=_unique_keys)
    except MalformedDocument:  # raised by a hook
        raise
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc


def json_object(doc, what: str, allowed, required=()) -> dict:
    """``doc``, when it is a JSON object whose fields are all in
    ``allowed`` and include every field of ``required``; otherwise
    MalformedDocument names ``what`` and the fault."""
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{what} must be a JSON object")
    unknown = doc.keys() - set(allowed)
    if unknown:
        raise MalformedDocument(
            f"unknown {what} fields: {echo(sorted(unknown, key=str))}")
    for name in required:
        if name not in doc:
            raise MalformedDocument(f"{what} missing field {name!r}")
    return doc


# The transaction object of block files and witnesses, in field order.
_TX_FIELDS = ("id", "time", "keys")


def tx_from_json(obj) -> Transaction:
    """The transaction of a ``{"id", "time", "keys"}`` object."""
    json_object(obj, "transaction", _TX_FIELDS, required=_TX_FIELDS)
    if not isinstance(obj["keys"], list):
        raise MalformedDocument(f"transaction {echo(obj['id'])}: keys must "
                                f"be a list, got {echo(obj['keys'])}")
    return make_transaction(obj["id"], obj["time"], obj["keys"])


def tx_to_json(tx: Transaction) -> dict:
    """Inverse of tx_from_json."""
    return {"id": tx.tx_id, "time": format_rational(tx.time),
            "keys": sorted(tx.keys)}


def txs_from_json(objs) -> TxSet:
    """The transaction set of a list of transaction objects."""
    if not isinstance(objs, list):
        raise MalformedDocument("transactions must be a JSON list")
    return TxSet([tx_from_json(obj) for obj in objs])


def txs_to_json(txs: TxSet) -> list:
    """Inverse of txs_from_json."""
    return [tx_to_json(tx) for tx in txs]


def weights_from_json(doc: dict) -> WeightTable:
    """The key weights of a block or weights document: its ``weights``
    object of key -> rational and its ``default_weight``."""
    weights = doc.get("weights", {})
    if not isinstance(weights, dict):
        raise MalformedDocument('"weights" must be a JSON object')
    return WeightTable(weights, doc.get("default_weight", 1))


_WEIGHT_FIELDS = ("weights", "default_weight")
_BLOCK_FIELDS = ("transactions", *_WEIGHT_FIELDS)


def parse_block(document: str) -> tuple[TxSet, WeightTable]:
    """Parse the block JSON format; enforces all transaction invariants."""
    data = json_object(load_json(document), "block", _BLOCK_FIELDS,
                       required=("transactions",))
    return txs_from_json(data["transactions"]), weights_from_json(data)


def parse_weights(document: str) -> WeightTable:
    """Parse a weights document: an object in the nested form of a
    block's weights (only ``weights`` and ``default_weight``), or any other
    object as a flat map of key -> weight."""
    data = load_json(document)
    if not isinstance(data, dict):
        raise MalformedDocument("weights file must be a JSON object")
    if data.keys() <= set(_WEIGHT_FIELDS):
        return weights_from_json(data)
    return WeightTable(weights=data)


def render_block(txs: TxSet, weights: WeightTable | None = None) -> str:
    """Inverse of parse_block (up to JSON formatting)."""
    doc: dict = {"transactions": txs_to_json(txs)}
    if weights is not None:
        doc["weights"] = {k: format_rational(w)
                          for k, w in sorted(weights.weights.items())}
        doc["default_weight"] = format_rational(weights.default_weight)
    return json.dumps(doc, indent=2)
