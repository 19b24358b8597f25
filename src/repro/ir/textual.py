"""Human-readable text format for dataflow graphs.

The format is a flat list of SSA assignments, one node per line::

    design my_design
    clock 2500
    n0 = param() : 32  # x
    n1 = param() : 32  # y
    n2 = add(n0, n1) : 32
    n3 = output(n2) : 32  # sum

Attributes are printed as ``key=value`` pairs inside the parentheses after
the operands, e.g. ``n4 = constant(value=7) : 8``.  Names and string
attribute values that are not simple identifier tokens (whitespace, ``#``,
commas, a leading digit, ...) are JSON-quoted so that printing and parsing
are exact inverses.

Pipelined loops serialise their back-edges as trailing ``backedge`` lines::

    n2 = phi(n1) : 32  # acc
    n4 = add(n2, n0) : 32
    ...
    backedge n4 -> n2 distance=1

meaning: the value ``n4`` produces in iteration ``i`` is carried into the
phi ``n2`` of iteration ``i + 1``.

The optional ``clock <picoseconds>`` directive records the design's target
clock period for file-based ingestion (``runner campaign --design x.ir``);
:func:`graph_from_text` ignores it, :func:`parse_design_text` returns it.

The parser is a real ingestion path, not just the printer's inverse: every
diagnostic is a :class:`ValueError` naming the 1-based line number, and
malformed input (unknown opcodes, duplicate ids, forward or dangling
references, bad widths, stray tokens) is rejected explicitly rather than
surfacing ``KeyError``/``IndexError`` from the graph layer.
"""

from __future__ import annotations

import json
import re

from repro.ir.graph import DataflowGraph
from repro.ir.ops import OpKind

_SAFE_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-./]*")

# A node line is split in two around the argument list, which ends at the
# first ``)`` outside a quoted string: a quoted name after ``#`` may itself
# contain ``) : <digits>``, so one greedy regex cannot find the boundary.
_NODE_HEAD_RE = re.compile(r"n(?P<id>\d+)\s*=\s*(?P<kind>[a-z_]+)\s*\(")
_NODE_TAIL_RE = re.compile(r"\s*:\s*(?P<width>\d+)\s*(?:#\s*(?P<name>.*))?")

_BACKEDGE_LINE_RE = re.compile(
    r"^backedge\s+n(?P<src>\d+)\s*->\s*n(?P<phi>\d+)\s+"
    r"distance\s*=\s*(?P<distance>-?\d+)\s*$")

_OPERAND_RE = re.compile(r"n\d+")


def _quote(value: str) -> str:
    """Render a name/string verbatim when safe, JSON-quoted otherwise."""
    if _SAFE_TOKEN_RE.fullmatch(value):
        return value
    return json.dumps(value)


def _format_attr_value(key: str, value: object) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _quote(value)
    raise ValueError(
        f"attribute {key!r} has unserialisable type {type(value).__name__}")


def graph_to_text(graph: DataflowGraph) -> str:
    """Serialise ``graph`` to the textual format.

    Raises:
        ValueError: if an attribute value is neither ``int`` nor ``str``.
    """
    lines = [f"design {_quote(graph.name)}"]
    for node in graph.nodes():
        args = [f"n{operand}" for operand in node.operands]
        for key in sorted(node.attrs):
            if key == "width":
                continue
            args.append(f"{key}={_format_attr_value(key, node.attrs[key])}")
        arg_text = ", ".join(args)
        line = f"n{node.node_id} = {node.kind.value}({arg_text}) : {node.width}"
        default_name = f"{node.kind.value}_{node.node_id}"
        if node.name and node.name != default_name:
            line += f"  # {_quote(node.name)}"
        lines.append(line)
    for edge in graph.back_edges():
        lines.append(f"backedge n{edge.src} -> n{edge.phi} "
                     f"distance={edge.distance}")
    return "\n".join(lines) + "\n"


def _parse_quoted(raw: str, line_no: int, what: str) -> str:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"line {line_no}: malformed quoted {what} {raw!r}: {exc}") from None
    if not isinstance(value, str):
        raise ValueError(
            f"line {line_no}: quoted {what} {raw!r} is not a string")
    return value


def _match_node_line(line: str) -> dict[str, str | None] | None:
    """Split a node line into id, kind, args, width and name fields.

    Returns ``None`` when ``line`` is not a well-formed node line.
    """
    head = _NODE_HEAD_RE.match(line)
    if not head:
        return None
    in_string = False
    escape = False
    for index in range(head.end(), len(line)):
        ch = line[index]
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == ")":
            tail = _NODE_TAIL_RE.fullmatch(line, index + 1)
            if not tail:
                return None
            return {"id": head.group("id"), "kind": head.group("kind"),
                    "args": line[head.end():index], **tail.groupdict()}
    return None


def _split_args(args: str, line_no: int) -> list[str]:
    """Split an argument list on commas, respecting JSON-quoted strings."""
    pieces: list[str] = []
    current: list[str] = []
    in_string = False
    escape = False
    for ch in args:
        if in_string:
            current.append(ch)
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
            current.append(ch)
        elif ch == ",":
            pieces.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if in_string:
        raise ValueError(f"line {line_no}: unterminated string in arguments")
    tail = "".join(current).strip()
    if pieces or tail:
        pieces.append(tail)
    if any(not piece for piece in pieces):
        raise ValueError(f"line {line_no}: empty argument in list {args!r}")
    return pieces


def _parse_attr_value(raw: str, line_no: int) -> object:
    if raw.startswith('"'):
        return _parse_quoted(raw, line_no, "attribute value")
    try:
        return int(raw)
    except ValueError:
        pass
    if _SAFE_TOKEN_RE.fullmatch(raw):
        return raw
    raise ValueError(f"line {line_no}: malformed attribute value {raw!r}")


def _parse_name(raw: str, line_no: int) -> str:
    raw = raw.strip()
    if raw.startswith('"'):
        return _parse_quoted(raw, line_no, "name")
    return raw


def parse_design_text(text: str) -> tuple[DataflowGraph, float | None]:
    """Parse the textual format, returning the graph and its clock directive.

    Returns:
        ``(graph, clock_period_ps)`` where the clock is ``None`` when the
        file carries no ``clock`` directive.

    Raises:
        ValueError: on any malformed input, always naming the 1-based line
            number of the offending line.  The parser never lets
            ``KeyError``/``IndexError`` escape from the graph layer.
    """
    graph: DataflowGraph | None = None
    clock_ps: float | None = None
    id_map: dict[int, int] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("//"):
            continue

        if graph is None:
            if not line.startswith("design"):
                raise ValueError(
                    f"line {line_no}: textual IR must start with a "
                    f"'design <name>' line, got {line!r}")
            rest = line[len("design"):].strip()
            if not rest:
                raise ValueError(f"line {line_no}: design line without a name")
            graph = DataflowGraph(_parse_name(rest, line_no))
            continue

        if line.startswith("design"):
            raise ValueError(f"line {line_no}: duplicate 'design' line")

        if line.startswith("clock"):
            rest = line[len("clock"):].strip()
            if clock_ps is not None:
                raise ValueError(f"line {line_no}: duplicate 'clock' line")
            try:
                clock_ps = float(rest)
            except ValueError:
                raise ValueError(
                    f"line {line_no}: malformed clock period {rest!r}") from None
            if not clock_ps > 0:
                raise ValueError(
                    f"line {line_no}: clock period must be positive, "
                    f"got {clock_ps}")
            continue

        if line.startswith("backedge"):
            match = _BACKEDGE_LINE_RE.match(line)
            if not match:
                raise ValueError(
                    f"line {line_no}: malformed backedge line {line!r} "
                    f"(expected 'backedge nSRC -> nPHI distance=D')")
            src_ref = int(match.group("src"))
            phi_ref = int(match.group("phi"))
            distance = int(match.group("distance"))
            for ref in (src_ref, phi_ref):
                if ref not in id_map:
                    raise ValueError(
                        f"line {line_no}: backedge references undefined "
                        f"node n{ref}")
            try:
                graph.add_back_edge(id_map[phi_ref], id_map[src_ref], distance)
            except (ValueError, KeyError) as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            continue

        fields = _match_node_line(line)
        if fields is None:
            raise ValueError(f"line {line_no}: malformed IR line {line!r}")
        text_id = int(fields["id"])
        if text_id in id_map:
            raise ValueError(f"line {line_no}: duplicate node id n{text_id}")
        try:
            kind = OpKind(fields["kind"])
        except ValueError:
            raise ValueError(
                f"line {line_no}: unknown opcode "
                f"{fields['kind']!r}") from None
        width = int(fields["width"])
        if width <= 0:
            raise ValueError(f"line {line_no}: non-positive width {width}")
        name = _parse_name(fields["name"] or "", line_no)

        operands: list[int] = []
        attrs: dict[str, object] = {}
        for piece in _split_args(fields["args"], line_no):
            if "=" in piece and not piece.startswith('"'):
                key, _, raw = piece.partition("=")
                key = key.strip()
                raw = raw.strip()
                if not _SAFE_TOKEN_RE.fullmatch(key):
                    raise ValueError(
                        f"line {line_no}: malformed attribute key {key!r}")
                if key == "width":
                    raise ValueError(
                        f"line {line_no}: 'width' attribute is not allowed; "
                        f"use the ': <width>' suffix")
                if key in attrs:
                    raise ValueError(
                        f"line {line_no}: duplicate attribute {key!r}")
                attrs[key] = _parse_attr_value(raw, line_no)
            elif _OPERAND_RE.fullmatch(piece):
                ref = int(piece[1:])
                if ref not in id_map:
                    raise ValueError(
                        f"line {line_no}: reference to undefined node "
                        f"n{ref} (forward references are not allowed)")
                operands.append(id_map[ref])
            else:
                raise ValueError(
                    f"line {line_no}: unrecognised argument {piece!r}")

        try:
            node = graph.add_node(kind, operands, width=width, name=name,
                                  **attrs)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        id_map[text_id] = node.node_id

    if graph is None:
        raise ValueError("textual IR must start with a 'design <name>' line")
    return graph, clock_ps


def graph_from_text(text: str) -> DataflowGraph:
    """Parse the textual format back into a :class:`DataflowGraph`.

    Raises:
        ValueError: on malformed input (with the offending line number).
    """
    graph, _ = parse_design_text(text)
    return graph
