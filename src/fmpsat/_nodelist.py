"""Reading the node-list file formats, and walking the graphs they describe.

The vtree, SDD, OBDD, decision-tree and XpG formats are all lists of
records, one per line: a kind word followed by integer fields. Blank
lines and lines starting with ``c`` are skipped. Each format describes
its records with a `LineFormat`; its parser keeps only what the
records mean.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import ParseError


class LineFormat(NamedTuple):
    name: str                  # format name in messages, e.g. "OBDD"
    header: str                # kind of the header record
    header_required: bool
    fields: Mapping[str, int]  # record kind -> number of integer fields
    variadic: frozenset[str] = frozenset()  # kinds whose count is a minimum


def read_records(text: str, fmt: LineFormat) -> Iterator[tuple[int, str, list[int]]]:
    """Yield (line number, kind, integer fields) for each record line."""
    fields, variadic = fmt.fields, fmt.variadic
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        kind = parts[0]
        count = fields.get(kind)
        if count is None:
            raise ParseError(f"unknown {fmt.name} line kind {kind!r}", lineno)
        given = len(parts) - 1
        try:
            if given < count or (given > count and kind not in variadic):
                raise ValueError
            ints = list(map(int, parts[1:]))
        except ValueError:
            raise ParseError(f"malformed {fmt.name} line {raw.strip()!r}", lineno) from None
        if kind == fmt.header:
            if seen_header:
                raise ParseError(f"{fmt.name} file has a second {fmt.header} header", lineno)
            seen_header = True
        yield lineno, kind, ints
    if fmt.header_required and not seen_header:
        raise ParseError(f"{fmt.name} file is missing the {fmt.header} header")


def add_node(nodes: dict, nid: int, node, fmt: LineFormat, lineno: int) -> None:
    """Record a node under its file id, which must be new and non-negative."""
    if nid < 0:
        raise ParseError(f"{fmt.name} node id {nid} is negative", lineno)
    if nid in nodes:
        raise ParseError(f"duplicate {fmt.name} node id {nid}", lineno)
    nodes[nid] = node


def check_node_count(nodes: Sequence | Mapping, expected: int | None, fmt: LineFormat) -> None:
    """The file declares some nodes, as many as its header announces."""
    if not nodes:
        raise ParseError(f"{fmt.name} file declares no nodes")
    if expected is not None and expected != len(nodes):
        raise ParseError(
            f"{fmt.name} header announces {expected} nodes, file declares {len(nodes)}"
        )


def dense_nodes(nodes: Mapping[int, object], fmt: LineFormat) -> list:
    """The nodes as a list indexed by id; the ids must be exactly 0..n-1."""
    n = len(nodes)
    if any(j not in nodes for j in range(n)):
        raise ParseError(f"{fmt.name} node ids must be dense 0..n-1")
    return [nodes[j] for j in range(n)]


def check_features(tests: Sequence[tuple[int, int]], num_features: int, fmt: LineFormat) -> None:
    """Each (line, feature) a node tests names a feature 1..num_features."""
    for lineno, feat in tests:
        if not 1 <= feat <= num_features:
            raise ParseError(
                f"{fmt.name} node tests feature {feat} outside 1..{num_features}", lineno
            )


def check_references(refs: Sequence[tuple], num_nodes: int, fmt: LineFormat) -> None:
    """Each (line, node id, ...) record refers only to declared nodes 0..num_nodes-1."""
    for lineno, *ids in refs:
        for nid in ids:
            if not 0 <= nid < num_nodes:
                raise ParseError(f"{fmt.name} line references missing node {nid}", lineno)


def single_root(num_nodes: int, edges: Sequence[tuple], fmt: LineFormat) -> int:
    """The one node that no edge ``(from, to, ...)`` enters."""
    targets = {edge[1] for edge in edges}
    roots = [j for j in range(num_nodes) if j not in targets]
    if len(roots) > 1:
        raise ParseError(f"multiple roots: nodes {roots} all have indegree 0")
    if not roots:
        raise ParseError(f"{fmt.name} has no root: every node has an incoming edge")
    return roots[0]


def postorder(root: int, children) -> list[int] | None:
    """The nodes reachable from `root`, each after all of its children.

    ``children[j]`` lists the children of node j; the last one listed is
    expanded first. Returns None when a node is reachable from itself.
    """
    order: list[int] = []
    finished: dict[int, bool] = {}  # False while the node is on the DFS path
    stack = [(root, False)]
    while stack:
        j, expanded = stack.pop()
        if expanded:
            finished[j] = True
            order.append(j)
        elif j not in finished:
            finished[j] = False
            stack.append((j, True))
            for c in children[j]:
                if not finished.get(c):
                    stack.append((c, False))
        elif not finished[j]:
            return None
    return order
