"""Property-based round-trip tests for the textual IR format.

The printer (:func:`graph_to_text`) and the parser
(:func:`graph_from_text`) must be exact inverses over everything a graph
can carry: hostile names (whitespace, ``#``, commas, quotes, leading
digits), integer and string attributes, arbitrary widths, and loop
back-edges.  A second family pins the parser's diagnostic contract: every
rejection is a :class:`ValueError` naming the 1-based line number.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ir.builder import GraphBuilder
from repro.ir.graph import DataflowGraph
from repro.ir.ops import OpKind
from repro.ir.textual import graph_from_text, graph_to_text, parse_design_text

# Printable-ish names including every character class the quoting layer
# must defend: hash (comment marker), comma/paren (argument syntax),
# quotes and backslashes (the JSON escape path), whitespace, digits first.
_NAME_ALPHABET = st.sampled_from(
    list("abcXYZ019 _#,()\"\\'=:./-") + ["\t"])
_names = st.text(alphabet=_NAME_ALPHABET, min_size=0, max_size=12)
_BINARY = ("add", "sub", "xor", "and_", "or_", "mul")


@st.composite
def _graphs(draw):
    builder = GraphBuilder(draw(_names) or "g")
    width = draw(st.sampled_from([4, 8, 16, 32]))
    pool = [builder.param(f"p{i}", width) for i in range(draw(
        st.integers(min_value=1, max_value=3)))]
    pool.append(builder.constant(
        draw(st.integers(min_value=0, max_value=(1 << width) - 1)), width,
        name=draw(_names)))
    phis = []
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        phi = builder.phi(draw(st.sampled_from(pool)), name=draw(_names))
        phis.append(phi)
        pool.append(phi)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        method = draw(st.sampled_from(_BINARY))
        value = getattr(builder, method)(draw(st.sampled_from(pool)),
                                         draw(st.sampled_from(pool)),
                                         name=draw(_names))
        pool.append(value)
    for phi in phis:
        # Close every recurrence on a node downstream-ish of the pool; any
        # non-phi node of matching width is structurally legal.
        candidates = [n for n in pool
                      if n.width == phi.width and n.kind is not OpKind.PHI]
        builder.back_edge(phi, draw(st.sampled_from(candidates)),
                          distance=draw(st.integers(min_value=1, max_value=3)))
    builder.output(pool[-1], name=draw(_names))
    return builder.graph


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_round_trip_is_exact(graph):
    text = graph_to_text(graph)
    parsed = graph_from_text(text)
    assert parsed.name == graph.name
    assert len(parsed) == len(graph)
    for a, b in zip(graph.nodes(), parsed.nodes()):
        assert a.kind is b.kind
        assert a.width == b.width
        assert a.operands == b.operands
        assert a.name == b.name
        # The parser always passes an explicit width to add_node, which
        # records a `width` attr; builder-inferred nodes don't carry one
        # and the printer never emits it, so compare modulo that key.
        strip = lambda attrs: {k: v for k, v in attrs.items() if k != "width"}
        assert strip(a.attrs) == strip(b.attrs)
    assert parsed.back_edges() == graph.back_edges()
    # Idempotence: printing the parse reproduces the text byte-for-byte.
    assert graph_to_text(parsed) == text


@settings(max_examples=50, deadline=None)
@given(_names)
def test_design_name_round_trips(name):
    graph = DataflowGraph(name or "g")
    graph.add_node(OpKind.PARAM, [], width=8, name="x")
    assert graph_from_text(graph_to_text(graph)).name == graph.name


@pytest.mark.parametrize("name", [") : 0 #", ") : 8 #", ") : 8 #x",
                                  "a(b) : 1"])
def test_name_mimicking_width_suffix_round_trips(name):
    # The argument list ends at the first unquoted ")", not at a ") : N"
    # inside the quoted name comment.
    builder = GraphBuilder("g")
    param = builder.param("p0", 8)
    builder.output(builder.add(param, param, name=name), name="o")
    text = graph_to_text(builder.graph)
    parsed = graph_from_text(text)
    assert [(n.name, n.width) for n in parsed.nodes()] == [
        (n.name, n.width) for n in builder.graph.nodes()]
    assert graph_to_text(parsed) == text


def test_string_attribute_round_trips():
    graph = DataflowGraph("g")
    node = graph.add_node(OpKind.PARAM, [], width=8, name="x",
                          note="weird, #value\"")
    parsed = graph_from_text(graph_to_text(graph))
    assert parsed.node(node.node_id).attrs["note"] == "weird, #value\""


class TestDiagnostics:
    """Every parser rejection is a ValueError naming the offending line."""

    def _rejects(self, text, line_no, match=""):
        with pytest.raises(ValueError, match=f"line {line_no}.*{match}"):
            parse_design_text(text)

    def test_duplicate_node_id(self):
        self._rejects("design g\nn0 = param() : 8\nn0 = param() : 8\n",
                      3, "duplicate node id")

    def test_forward_reference(self):
        self._rejects("design g\nn0 = add(n1, n1) : 8\nn1 = param() : 8\n",
                      2, "forward references")

    def test_unknown_opcode(self):
        self._rejects("design g\nn0 = frobnicate() : 8\n", 2, "unknown opcode")

    def test_bad_width(self):
        self._rejects("design g\nn0 = param() : 0\n", 2, "width")

    def test_malformed_line(self):
        self._rejects("design g\nn0 := param : 8\n", 2, "malformed")

    def test_duplicate_design_line(self):
        self._rejects("design g\ndesign h\n", 2, "duplicate 'design'")

    def test_duplicate_clock_line(self):
        self._rejects("design g\nclock 100\nclock 200\n", 3,
                      "duplicate 'clock'")

    def test_negative_clock(self):
        self._rejects("design g\nclock -5\n", 2, "positive")

    @pytest.mark.parametrize("clock", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_clock(self, clock):
        self._rejects(f"design g\nn0 = param() : 8\nclock {clock}\n", 3,
                      "finite")

    def test_backedge_to_undefined_node(self):
        self._rejects("design g\nn0 = param() : 8\n"
                      "backedge n0 -> n9 distance=1\n", 3, "undefined")

    def test_backedge_to_non_phi(self):
        self._rejects("design g\nn0 = param() : 8\nn1 = add(n0, n0) : 8\n"
                      "backedge n1 -> n0 distance=1\n", 4)

    def test_backedge_bad_distance(self):
        text = ("design g\nn0 = constant(value=0) : 8\nn1 = phi(n0) : 8\n"
                "backedge n0 -> n1 distance=0\n")
        self._rejects(text, 4, "distance")

    def test_width_attribute_banned(self):
        self._rejects("design g\nn0 = param(width=8) : 8\n", 2, "width")

    def test_duplicate_attribute(self):
        self._rejects("design g\nn0 = constant(value=1, value=2) : 8\n", 2,
                      "duplicate attribute")

    def test_unterminated_string(self):
        self._rejects('design g\nn0 = constant(value="oops) : 8\n', 2)

    def test_missing_design_line_names_first_line(self):
        self._rejects("n0 = param() : 8\n", 1, "design")

    def test_comment_and_blank_lines_skipped(self):
        graph, clock = parse_design_text(
            "// header\n\ndesign g\n// mid\nclock 1234.5\nn0 = param() : 8\n")
        assert len(graph) == 1 and clock == 1234.5
