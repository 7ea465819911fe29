"""graph6, DIMACS, and edge-list round trips and error handling."""

import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from widthlab.formats import (
    FORMATS,
    GRAPH6_MAX_N,
    FormatError,
    emit,
    from_dimacs,
    from_edge_list,
    from_graph6,
    graph6_from_code,
    parse,
    to_dimacs,
    to_edge_list,
    to_graph6,
)
from widthlab.graphs import (
    Graph,
    _canonical_codes,
    _triangle_code,
    enumerate_graphs,
    graph_from_triangle_code,
    path_graph,
    random_graph,
    star,
)


def test_graph6_known_string():
    g = from_graph6("D?{")
    assert g.n == 5
    # Star with centre 4: the last column of the upper triangle is all ones.
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert to_graph6(g) == "D?{"


def test_graph6_null_and_single():
    assert to_graph6(Graph(0, ())) == "?"
    assert from_graph6("?").n == 0
    assert to_graph6(Graph(1, (0,))) == "@"
    assert from_graph6("@").n == 1


def test_graph6_header_stripped():
    assert from_graph6(">>graph6<<D?{").n == 5


def test_graph6_round_trip_all_small_graphs():
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            assert from_graph6(to_graph6(g)) == g


def test_graph6_body_is_the_canonical_code():
    # graph6 and the canonical codes share one bit layout: the body is the
    # code, most significant bit first, zero-padded to whole 6-bit chunks.
    for n in range(0, 8):
        nbits = n * (n - 1) // 2
        width = -(-nbits // 6) * 6
        for code in _canonical_codes(n):
            bitstring = format(code, "b").zfill(nbits) + "0" * (width - nbits)
            chunks = [bitstring[i : i + 6] for i in range(0, width, 6)]
            expected = chr(n + 63) + "".join(chr(int(c, 2) + 63) for c in chunks)
            g = graph_from_triangle_code(n, code)
            assert to_graph6(g) == graph6_from_code(n, code) == expected
            assert from_graph6(expected) == g


def test_graph6_multibyte_size_header():
    assert to_graph6(Graph(63, (0,) * 63)).startswith("~??~")
    for n in (62, 63, 79):
        g = random_graph(n, 0.1, n)
        text = to_graph6(g)
        assert text.startswith("~") == (n > 62)
        assert from_graph6(text) == g


@pytest.mark.parametrize("n", [0, 1, 62, 63, 100])
def test_graph6_from_code_across_the_size_header(n):
    # The code encoder writes the one-byte header up to n = 62 and "~" plus
    # 18 bits of n from 63 on.
    g = random_graph(n, 0.5, n)
    text = graph6_from_code(n, _triangle_code(g, range(n)))
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    assert text.startswith(header) and len(text) == len(header) + (nbits + 5) // 6
    assert text == to_graph6(g)
    assert from_graph6(text) == g


# sha256 of the graph6 strings of random_graph(n, p, n) for n in 0, 1, 62,
# 63, 100 and p in 0.1, 0.5, one per line, recorded from the writer that
# shifted one growing int per vertex pair.
GRAPH6_ACROSS_SIZES_DIGEST = "2beadf80ec8ce942fc974161c3ab7034ff65c8a3bbb4d42e77d0624b267de851"


def test_graph6_strings_pinned_across_the_size_header():
    graphs = [random_graph(n, p, n) for n in (0, 1, 62, 63, 100) for p in (0.1, 0.5)]
    texts = [to_graph6(g) for g in graphs]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == GRAPH6_ACROSS_SIZES_DIGEST
    assert [from_graph6(text) for text in texts] == graphs


def test_graph6_round_trip_is_linear_in_the_pairs():
    # 1,123,750 vertex pairs.  With one shift of a growing int per pair,
    # each direction took over 20 s on a 2-core host; read and written as
    # bit strings, the round trip takes a fraction of a second.
    g = path_graph(1500)
    text = to_graph6(g)
    assert len(text) == 4 + (1500 * 1499 // 2 + 5) // 6
    assert from_graph6(text) == g
    assert graph_from_triangle_code(1500, _triangle_code(g, range(1500))) == g


def test_graph6_writer_rejects_an_oversized_order_first():
    # The size header holds 18 bits of n; a larger graph fails before its
    # quadratic upper triangle is read.
    oversized = Graph(258048, (0,) * 258048)
    with pytest.raises(FormatError, match="graph6 writer supports n <= 258047, got 258048"):
        to_graph6(oversized)
    with pytest.raises(FormatError, match="got 258048"):
        graph6_from_code(258048, 0)


def test_graph6_malformed():
    with pytest.raises(FormatError):
        from_graph6("")
    with pytest.raises(FormatError):
        from_graph6("D?")  # truncated body
    with pytest.raises(FormatError):
        from_graph6("D?{{")  # trailing junk
    with pytest.raises(FormatError):
        from_graph6(chr(62))  # size byte below '?'
    with pytest.raises(FormatError):
        from_graph6("~?@")  # truncated multi-byte size header
    with pytest.raises(FormatError):
        from_graph6("~~??????")  # 8-byte header form (n > 258047)
    with pytest.raises(FormatError, match="graph6 character '>' out of range"):
        from_graph6("D?>")  # a body character below '?'
    with pytest.raises(FormatError, match="out of range"):
        from_graph6("D?" + chr(127))  # a body character above '~'
    with pytest.raises(FormatError, match="nonzero padding bits"):
        from_graph6("D?}")


def test_dimacs_round_trip():
    g = star(4)
    assert from_dimacs(to_dimacs(g)) == g
    parsed = from_dimacs("c a comment\np edge 2 1\ne 1 2\n")
    assert parsed.n == 2 and parsed.edges() == [(0, 1)]


def test_dimacs_errors():
    with pytest.raises(FormatError):
        from_dimacs("e 1 2\n")  # edge before header
    with pytest.raises(FormatError):
        from_dimacs("p edge 2 1\ne 1 1\n")  # loop
    with pytest.raises(FormatError):
        from_dimacs("p edge 2 1\ne 1 3\n")  # out of range
    with pytest.raises(FormatError):
        from_dimacs("p edge x y\n")
    # Every e line counts against the problem line.
    for text in ("p edge 3 7\ne 1 2\n", "p edge 3 1\ne 1 2\ne 2 3\ne 1 3\n", "p edge 2 1\n"):
        with pytest.raises(FormatError, match="edge lines, but the problem line declares"):
            from_dimacs(text)
    # A repeated or reversed edge is an error, even when the lines make up the count.
    for text, message in (
        ("p edge 2 2\ne 1 2\ne 2 1\n", "line 3: edge 2 1 repeats line 2"),
        ("p edge 3 3\ne 1 2\nc x\ne 2 3\ne 1 2\n", "line 5: edge 1 2 repeats line 2"),
        ("p edge 3 1\ne 1 2\ne 1 2\ne 1 2\n", "line 3: edge 1 2 repeats line 2"),
    ):
        with pytest.raises(FormatError, match=message):
            from_dimacs(text)
    # int() alone reads an underscore, an Arabic-Indic and a fullwidth digit.
    for token in ("1_0", "\u0661", "\uff11"):
        with pytest.raises(FormatError, match="malformed edge line"):
            from_dimacs(f"p edge 12 1\ne 1 {token}\n")
        with pytest.raises(FormatError, match="malformed problem line"):
            from_dimacs(f"p edge {token} 0\n")


def test_edge_list_round_trip():
    g = star(3)
    assert from_edge_list(to_edge_list(g)) == g
    assert from_edge_list("0 1\n1 2\n").edges() == [(0, 1), (1, 2)]
    # Odd token count means a leading vertex count; isolated vertices survive.
    assert from_edge_list("4 0 1\n").n == 4
    assert from_edge_list("+2 -0\n").edges() == [(0, 2)]  # signs stay


def test_edge_list_errors():
    with pytest.raises(FormatError):
        from_edge_list("0 0\n")  # loop
    with pytest.raises(FormatError):
        from_edge_list("2 0 5\n")  # exceeds declared count
    with pytest.raises(FormatError):
        from_edge_list("0 x\n")
    for token in ("1_0", "\u0661", "\uff11"):
        with pytest.raises(FormatError, match="non-integer token"):
            from_edge_list(f"0 {token}\n")


def test_readers_reject_vertex_counts_graph6_cannot_hold():
    # A few characters must not make a reader allocate a huge graph.
    assert from_edge_list(f"{GRAPH6_MAX_N}\n").n == GRAPH6_MAX_N
    with pytest.raises(FormatError, match="vertex count 99999999999 exceeds 258047"):
        from_edge_list("99999999999\n")
    with pytest.raises(FormatError, match="vertex count 258048 exceeds"):
        from_edge_list("0 258047\n")
    with pytest.raises(FormatError, match="line 1: vertex count 99999999999 exceeds"):
        from_dimacs("p edge 99999999999 0\n")


# ---------------------------------------------------------------------------
# Generated inputs: derandomised, with a fixed number of examples, so every
# run reads the same texts.

GENERATED = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def _lines(token):
    """Text of up to six lines of up to five tokens each."""
    line = st.lists(token, max_size=5).map(" ".join)
    return st.lists(line, max_size=6).map("\n".join)


# Small numbers, vertex counts past GRAPH6_MAX_N, which the readers reject
# before they allocate, and tokens int() reads but the readers must not: an
# underscore, an Arabic-Indic and a fullwidth digit.
_NUMBER = (st.integers(-3, 40) | st.integers(GRAPH6_MAX_N + 1, 10**15)).map(str) | st.sampled_from(
    ["1_0", "\u0661", "\uff11"]
)
# Text shaped like each format, so the readers get past their first test.
SHAPED = {
    "graph6": st.text(st.characters(min_codepoint=32, max_codepoint=130), max_size=12)
    | st.text(st.characters(min_codepoint=63, max_codepoint=126), max_size=12).map(
        lambda body: ">>graph6<<" + body
    ),
    "dimacs": _lines(_NUMBER | st.sampled_from(["p", "edge", "col", "e", "c", "x", "1.5"])),
    "edges": _lines(_NUMBER | st.sampled_from(["x", "1.5", "+2", "-0"])),
}


@GENERATED
@given(st.sampled_from(sorted(FORMATS)), st.data())
def test_parse_returns_a_graph_or_raises_format_error(fmt, data):
    text = data.draw(st.text() | SHAPED[fmt], label="text")
    try:
        g = parse(text, fmt)
    except FormatError:
        return
    assert isinstance(g, Graph)
    if fmt == "edges":
        assert all(re.fullmatch("[+-]?[0-9]+", token) for token in text.split()), text


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 70))  # past the one-byte graph6 size header at 62
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return Graph.from_edges(n, edges)


@GENERATED
@given(graphs(), st.sampled_from(sorted(FORMATS)))
def test_emit_then_parse_gives_the_graph_back(g, fmt):
    assert parse(emit(g, fmt), fmt) == g
