"""Streaming canonical JSON: the bytes behind ``RouterReport.fingerprint``.

The fingerprint is SHA-1 over one canonical JSON document -- what
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` writes
for the report's full payload.  Building that payload as a dict tree
and one string costs far more than the run it describes, so this
module writes the *same bytes* incrementally instead:

* every record list (completed, rejected, events) is encoded in
  bounded chunks of column lists, and each chunk is handed to the
  digest as soon as it is rendered;
* records are formatted from a fixed, sorted key template, and each
  column is rendered with the exact primitive ``json`` uses for its
  type (``float.__repr__``, ``int.__repr__``,
  ``encode_basestring_ascii``), with ``NaN`` / ``Infinity`` spelled
  the way ``json`` spells them;
* anything off those typed fast paths (mixed-type columns, nested
  containers, non-string keys) falls back to ``json.dumps`` itself.

A record source supplies raw value columns in the key order of
:data:`COMPLETED_KEYS`, :data:`REJECTED_KEYS` and :data:`EVENT_KEYS`;
a column is a list, a numpy array, or -- already rendered as JSON --
an :class:`Encoded` list, which passes through untouched.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, List, Mapping, Sequence

import numpy as np

__all__ = [
    "CHUNK",
    "COMPLETED_KEYS",
    "EVENT_KEYS",
    "Encoded",
    "REJECTED_KEYS",
    "REPORT_LISTS",
    "chunked",
    "encode_column",
    "encode_float",
    "encode_mappings",
    "encode_repeated",
    "encode_report",
    "encode_rows",
    "encode_scalar",
    "event_chunks",
]

#: Records per rendered chunk: bounds the encoder's working set
#: independently of the report's size.
CHUNK = 512

#: Sorted keys of ``CompletedRequest.to_dict``.
COMPLETED_KEYS = (
    "arrival_s",
    "batch",
    "deadline_hit",
    "entropy",
    "finish_s",
    "latency_s",
    "level",
    "platform",
    "rid",
    "soc",
    "soc_accuracy",
    "soc_time",
    "start_s",
    "tenant",
)
#: Sorted keys of ``RejectedRequest.to_dict``.
REJECTED_KEYS = ("arrival_s", "reason", "rid", "tenant")
#: Sorted keys of ``RouterEvent.to_dict`` minus ``seq``, which the
#: fingerprint drops.
EVENT_KEYS = ("detail", "kind", "platform", "request_ids", "tenant", "time_s")

#: The streamed top-level sections and the key order of their records.
REPORT_LISTS = {
    "completed": COMPLETED_KEYS,
    "events": EVENT_KEYS,
    "rejected": REJECTED_KEYS,
}

_BOOLS = {True: "true", False: "false"}
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


class Encoded(list):
    """A column whose values are already canonical JSON text."""


def chunked(items: Iterable) -> Iterator[list]:
    """Consecutive lists of at most :data:`CHUNK` items."""
    iterator = iter(items)
    while True:
        chunk = list(islice(iterator, CHUNK))
        if not chunk:
            return
        yield chunk


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def encode_float(value: float) -> str:
    """One float exactly as ``json`` writes it (``allow_nan=True``)."""
    if _isfinite(value):
        return _float_repr(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def encode_scalar(value) -> str:
    """One value exactly as ``json.dumps`` writes it, dispatching on
    type in the encoder's own order (containers go to ``json``)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_repr(value)
    if isinstance(value, float):
        return encode_float(value)
    return _dumps(value)


def encode_column(values: Sequence) -> List[str]:
    """Render one column; a single-type column takes one C-level map."""
    if type(values) is Encoded:
        return values
    if isinstance(values, np.ndarray):
        return encode_column(values.tolist())
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is float:
            if all(map(_isfinite, values)):
                return list(map(_float_repr, values))
        elif kind is int:
            return list(map(_int_repr, values))
        elif kind is str:
            return list(map(encode_basestring_ascii, values))
        elif kind is bool:
            return list(map(_BOOLS.__getitem__, values))
        elif kind is tuple or kind is list:
            if set(map(type, chain.from_iterable(values))) <= {int}:
                # An int list's repr differs from its JSON by spaces.
                return list(
                    map(
                        str.replace,
                        map(repr, map(list, values)),
                        repeat(" "),
                        repeat(""),
                    )
                )
    return list(map(encode_scalar, values))


def encode_repeated(values: np.ndarray) -> Encoded:
    """Render a float64 array whose values mostly repeat, each distinct
    bit pattern once (``-0.0`` and ``0.0`` stay distinct).

    Only for columns known to repeat: the sort costs more than it saves
    on a column of mostly distinct values, such as arrival times.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    rendered = encode_column(bits.view(np.float64).tolist())
    return Encoded(map(rendered.__getitem__, inverse.tolist()))


def encode_rows(keys: Sequence[str], columns: Sequence[Sequence]) -> List[str]:
    """Render records whose values arrive as one column per key.

    ``keys`` must already be in sorted order; the result is one JSON
    object string per row, byte-identical to ``json.dumps`` of the
    equivalent dict with ``sort_keys=True`` and compact separators.
    Each record is one ``str.join`` over its interleaved key prefixes
    and rendered values.
    """
    if not keys:
        # With no column to bound it, the zip below would never end.
        raise ValueError("encode_rows needs at least one key")
    parts = []
    for position, (key, column) in enumerate(zip(keys, columns)):
        prefix = "," if position else "{"
        parts.append(repeat(prefix + encode_basestring_ascii(key) + ":"))
        parts.append(encode_column(column))
    parts.append(repeat("}"))
    return list(map("".join, zip(*parts)))


def encode_mappings(mappings: Sequence[Mapping]) -> Encoded:
    """Render a column of small dicts (event details).

    Dicts sharing one key layout are rendered together through
    :func:`encode_rows`; a layout with a non-string key goes to
    ``json.dumps`` whole, since ``json`` coerces such keys first.
    """
    out = Encoded([None] * len(mappings))
    groups = {}
    layouts = []
    for index, mapping in enumerate(mappings):
        layout = tuple(mapping)
        members = groups.get(layout)
        if members is None:
            groups[layout] = members = []
            layouts.append(layout)
        members.append(index)
    for layout in layouts:
        members = groups[layout]
        if not layout:
            rows = ["{}"] * len(members)
        elif all(type(key) is str for key in layout):
            keys = sorted(layout)
            rows = encode_rows(
                keys,
                [[mappings[index][key] for index in members] for key in keys],
            )
        else:
            rows = [_dumps(dict(mappings[index])) for index in members]
        for index, row in zip(members, rows):
            out[index] = row
    return out


def event_chunks(events: Iterable[tuple]) -> Iterator[tuple]:
    """Column chunks in :data:`EVENT_KEYS` order from ``(time_s, kind,
    tenant, platform, request_ids, detail)`` event tuples."""
    for chunk in chunked(events):
        times, kinds, tenants, platforms, request_ids, details = zip(*chunk)
        yield (
            encode_mappings(details),
            kinds,
            platforms,
            request_ids,
            tenants,
            times,
        )


def _encode_list(
    keys: Sequence[str], chunks: Iterable[Sequence[Sequence]]
) -> Iterator[str]:
    yield "["
    first = True
    for columns in chunks:
        rows = encode_rows(keys, columns)
        if not rows:
            continue
        yield ",".join(rows) if first else "," + ",".join(rows)
        first = False
    yield "]"


def encode_report(head: Mapping, lists: Mapping[str, Iterable]) -> Iterator[str]:
    """Yield the canonical document of ``head`` plus the streamed
    record ``lists`` (section name -> iterable of column chunks, keyed
    as in :data:`REPORT_LISTS`), top-level keys in sorted order."""
    yield "{"
    for position, name in enumerate(sorted(chain(head, lists))):
        yield ("," if position else "") + encode_basestring_ascii(name) + ":"
        if name in lists:
            yield from _encode_list(REPORT_LISTS[name], lists[name])
        else:
            yield _dumps(head[name])
    yield "}"
