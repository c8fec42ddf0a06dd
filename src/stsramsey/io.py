"""Text formats for systems, colorings, and hole certificates.

System format (one file per system)::

    # sts v1
    n m
    a b c        <- m lines, vertices 0-based and sorted ascending

Coloring format (written only; same triple order as its system file)::

    colors r
    c            <- m lines, one color index per line

Lines starting with ``#`` are comments and ignored on read.  Writers emit a
single canonical byte representation (LF endings) so identical inputs give
byte-identical files.

Hole certificates travel as small JSON documents: ``{"k":…, "a":…,
"parts": [[…], …]}``.
"""

from __future__ import annotations

import json
import os
from typing import Union

from .core import (
    EdgeColoring,
    HoleCertificate,
    TripleSystem,
    build_system,
)

PathLike = Union[str, "os.PathLike[str]"]


class FormatError(ValueError):
    """Raised when a file does not follow the declared text contract."""


def format_system(ts: TripleSystem) -> str:
    lines = ["# sts v1", f"{ts.n} {ts.m}"]
    lines.extend(f"{t.a} {t.b} {t.c}" for t in ts.triples)
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> TripleSystem:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise FormatError("empty system file")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"non-integer header {rows[0]!r}") from exc
    body = rows[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} triple lines, found {len(body)}")
    triples = []
    for ln in body:
        try:
            x, y, z = ln.split()
        except ValueError:
            raise FormatError(f"triple line must have 3 vertices: {ln!r}") from None
        try:
            a, b, c = int(x), int(y), int(z)
        except ValueError as exc:
            raise FormatError(f"non-integer vertex in {ln!r}") from exc
        if not (a < b < c):
            raise FormatError(f"triple not sorted ascending: {ln!r}")
        triples.append((a, b, c))
    return build_system(n, triples)


def write_system(ts: TripleSystem, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_system(ts))


def _read_text(path: PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from exc


def read_system(path: PathLike) -> TripleSystem:
    return parse_system(_read_text(path))


def format_coloring(c: EdgeColoring) -> str:
    lines = [f"colors {c.r}"]
    lines.extend(str(col) for col in c.colors)
    return "\n".join(lines) + "\n"


def write_coloring(c: EdgeColoring, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_coloring(c))


def format_hole(h: HoleCertificate) -> str:
    doc = {"k": h.k, "a": h.a, "parts": [sorted(p) for p in h.parts]}
    return json.dumps(doc, sort_keys=True) + "\n"


def parse_hole(text: str) -> HoleCertificate:
    """Read a hole certificate; k, a and every vertex must be JSON integers."""
    try:
        doc = json.loads(text)
        k, a = doc["k"], doc["a"]
        parts = tuple(frozenset(p) for p in doc["parts"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad hole certificate: {exc}") from exc
    for name, value in (("k", k), ("a", a)):
        if type(value) is not int:
            raise FormatError(f"bad hole certificate: {name} {value!r} is not an integer")
    for part in parts:
        for v in part:
            if type(v) is not int:
                raise FormatError(f"bad hole certificate: vertex {v!r} is not an integer")
    return HoleCertificate(k=k, a=a, parts=parts)


def read_hole(path: PathLike) -> HoleCertificate:
    return parse_hole(_read_text(path))
