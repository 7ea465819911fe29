"""Text formats: graph6, DIMACS edge format, and plain edge lists."""

from __future__ import annotations

import binascii
import re

from .graphs import Graph, _triangle_code, graph_from_triangle_bits


class FormatError(ValueError):
    """Malformed graph text."""


# ---------------------------------------------------------------------------
# graph6: a size header, then 6-bit chunks of the upper triangle in
# column-major order (the bit layout of the canonical codes in graphs.py),
# zero-padded, each chunk offset by 63.  The header is one byte for n <= 62
# and "~" plus three bytes (18 bits of n) up to GRAPH6_MAX_N, which caps
# the other readers too: a few characters must not allocate a huge graph.

GRAPH6_MAX_N = 258047


def _graph6_size(n: int) -> str:
    if n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 writer supports n <= {GRAPH6_MAX_N}, got {n}")
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


# The graph6 body is base64 with its own alphabet: every 6-bit chunk, most
# significant first, is one character.  The writer lets ``binascii`` cut the
# chunks and maps its alphabet onto graph6's; the reader maps each character
# to its 6 bits by one ``str.translate``.  Neither shifts an int per chunk,
# which made both quadratic in the length of the body.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_CHAR_BITS = {v + 63: format(v, "06b") for v in range(64)}


def graph6_from_code(n: int, code: int) -> str:
    """The graph6 string of the graph on n vertices whose upper triangle is
    ``code`` (the layout of ``_triangle_code``), with no ``Graph`` built."""
    header = _graph6_size(n)
    nbits = n * (n - 1) // 2
    # Zero-padded to whole 3-byte groups, which base64 writes as 4 chunks.
    raw = (code << -nbits % 24).to_bytes((nbits + 23) // 24 * 3, "big")
    body = binascii.b2a_base64(raw, newline=False).translate(_BASE64_TO_GRAPH6)
    return header + body[: (nbits + 5) // 6].decode()


def to_graph6(g: Graph) -> str:
    _graph6_size(g.n)  # an oversized n fails before the triangle code is built
    return graph6_from_code(g.n, _triangle_code(g, range(g.n)))


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    if s[0] == "~":
        header = s[1:4]
        if len(header) < 3 or header[0] == "~":
            raise FormatError(f"unsupported graph6 size header {s[:4]!r}")
        n = 0
        for ch in header:
            val = ord(ch) - 63
            if not 0 <= val < 64:
                raise FormatError(f"graph6 size character {ch!r} out of range")
            n = n << 6 | val
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise FormatError(f"unsupported graph6 size byte {s[0]!r}")
        body = s[1:]
    nbits = n * (n - 1) // 2
    nchunks = (nbits + 5) // 6
    if len(body) != nchunks:
        raise FormatError(
            f"graph6 body has {len(body)} chars, expected {nchunks} for n={n}"
        )
    text = body.translate(_CHAR_BITS)
    if len(text) != 6 * nchunks:  # a character outside the table stays one character
        bad = next(ch for ch in body if ord(ch) - 63 not in range(64))
        raise FormatError(f"graph6 character {bad!r} out of range")
    if "1" in text[nbits:]:
        raise FormatError("nonzero padding bits in graph6 string")
    return graph_from_triangle_bits(n, text[:nbits])


# ---------------------------------------------------------------------------
# The numbers of the DIMACS and edge-list formats: ASCII decimal with an
# optional sign.  ``int()`` alone also takes underscores and non-ASCII
# digits, so "1_0" or an Arabic-Indic one would name a vertex.

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _integer(token: str) -> int:
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


# ---------------------------------------------------------------------------
# DIMACS edge format


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.num_edges()}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
    n = None
    declared_m = None
    first = {}  # each edge, smaller end first, and the line that gave it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise FormatError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n, declared_m = _integer(parts[2]), _integer(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: malformed problem line {line!r}")
            if n < 0 or declared_m < 0:
                raise FormatError(f"line {lineno}: negative sizes")
            if n > GRAPH6_MAX_N:
                raise FormatError(f"line {lineno}: vertex count {n} exceeds {GRAPH6_MAX_N}")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = _integer(parts[1]) - 1, _integer(parts[2]) - 1
            except ValueError:
                raise FormatError(f"line {lineno}: malformed edge line {line!r}")
            if u == v:
                raise FormatError(f"line {lineno}: self-loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"line {lineno}: vertex out of range")
            edge = (u, v) if u < v else (v, u)
            if edge in first:
                raise FormatError(f"line {lineno}: edge {u + 1} {v + 1} repeats line {first[edge]}")
            first[edge] = lineno
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("missing problem line")
    if len(first) != declared_m:
        raise FormatError(f"{len(first)} edge lines, but the problem line declares {declared_m}")
    return Graph.from_edges(n, first)


# ---------------------------------------------------------------------------
# Whitespace edge list, 0-indexed; vertex count inferred from the largest id.


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    tokens = text.split()
    if not tokens:
        return Graph(0, ())
    try:
        values = [_integer(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"non-integer token in edge list: {exc}") from None
    # An odd token count means a leading vertex-count header.
    if len(values) % 2 == 1:
        n, values = values[0], values[1:]
        if n < 0:
            raise FormatError("negative vertex count")
    else:
        n = max(values) + 1
    if n > GRAPH6_MAX_N:
        raise FormatError(f"vertex count {n} exceeds {GRAPH6_MAX_N}")
    edges = []
    for u, v in zip(values[::2], values[1::2]):
        if u == v:
            raise FormatError(f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise FormatError("negative vertex id")
        if u >= n or v >= n:
            raise FormatError(f"vertex id {max(u, v)} exceeds vertex count {n}")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


FORMATS = {
    "graph6": (from_graph6, to_graph6),
    "dimacs": (from_dimacs, to_dimacs),
    "edges": (from_edge_list, to_edge_list),
}


def parse(text: str, fmt: str) -> Graph:
    try:
        reader, _ = FORMATS[fmt]
    except KeyError:
        raise FormatError(f"unknown format {fmt!r}") from None
    return reader(text)


def emit(g: Graph, fmt: str) -> str:
    try:
        _, writer = FORMATS[fmt]
    except KeyError:
        raise FormatError(f"unknown format {fmt!r}") from None
    return writer(g)
