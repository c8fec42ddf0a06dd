"""Text formats for systems, colorings, and hole certificates.

System format (one file per system)::

    # sts v1
    n m
    a b c        <- m lines, vertices 0-based and sorted ascending

Coloring format (companion to a system file, same triple order)::

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
    SteinerSystem,
    TripleSystem,
    as_triple_system,
    build_system,
)

PathLike = Union[str, "os.PathLike[str]"]


class FormatError(ValueError):
    """Raised when a file does not follow the declared text contract."""


def format_system(s: TripleSystem | SteinerSystem) -> str:
    ts = as_triple_system(s)
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
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"triple line must have 3 vertices: {ln!r}")
        try:
            a, b, c = (int(x) for x in parts)
        except ValueError as exc:
            raise FormatError(f"non-integer vertex in {ln!r}") from exc
        if not (a < b < c):
            raise FormatError(f"triple not sorted ascending: {ln!r}")
        triples.append((a, b, c))
    return build_system(n, triples)


def write_system(s: TripleSystem | SteinerSystem, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_system(s))


def read_system(path: PathLike) -> TripleSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def format_coloring(c: EdgeColoring) -> str:
    lines = [f"colors {c.r}"]
    lines.extend(str(col) for col in c.colors)
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, system: TripleSystem) -> EdgeColoring:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows or not rows[0].startswith("colors"):
        raise FormatError("coloring file must start with 'colors r'")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"bad coloring header {rows[0]!r}")
    try:
        r = int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad color count in {rows[0]!r}") from exc
    body = rows[1:]
    if len(body) != system.m:
        raise FormatError(f"expected {system.m} color lines, found {len(body)}")
    try:
        colors = tuple(int(ln) for ln in body)
    except ValueError as exc:
        raise FormatError("non-integer color line") from exc
    return EdgeColoring(system=system, r=r, colors=colors)


def write_coloring(c: EdgeColoring, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_coloring(c))


def read_coloring(path: PathLike, system: TripleSystem) -> EdgeColoring:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coloring(fh.read(), system)


def format_hole(h: HoleCertificate) -> str:
    doc = {"k": h.k, "a": h.a, "parts": [sorted(p) for p in h.parts]}
    return json.dumps(doc, sort_keys=True) + "\n"


def parse_hole(text: str) -> HoleCertificate:
    try:
        doc = json.loads(text)
        parts = tuple(frozenset(p) for p in doc["parts"])
        return HoleCertificate(k=int(doc["k"]), a=int(doc["a"]), parts=parts)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad hole certificate: {exc}") from exc


def write_hole(h: HoleCertificate, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_hole(h))


def read_hole(path: PathLike) -> HoleCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hole(fh.read())
