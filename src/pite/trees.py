"""Bracketed constituency trees and lowest-layer noun phrase extraction.

Trees arrive as Penn-style bracketed expressions, one per line, e.g.
``(TOP (S (NP woman) (VP is ...)))``.  A node is either an internal
constituent ``(LABEL child ...)`` or a bare word, which becomes a leaf.
Leaf spans are single token positions; internal spans cover their children.
``ParseTree`` and ``NounPhrase`` are named tuples, so ``extract-np`` needs
no ``dataclasses``.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, NamedTuple

from .jsonl import naming


class ParseError(ValueError):
    """Malformed bracketed tree. ``offset`` is the character offset of the problem in the parsed text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ParseTree(NamedTuple):
    """One constituency-tree node. A node has a token iff it has no children."""

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None
    span: tuple[int, int] = (0, 0)

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list[str]:
        return [
            node.token for node in self.iter_nodes() if node.is_leaf() and node.token is not None
        ]

    def text(self) -> str:
        """Surface form: space-joined leaves."""
        return " ".join(self.leaves())

    def iter_nodes(self) -> Iterator["ParseTree"]:
        """Pre-order traversal, self first; an explicit stack, so any depth is walked."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class NounPhrase(NamedTuple):
    text: str
    span: tuple[int, int]


_TOKEN = re.compile(r"\(|\)|[^()\s]+")


def parse_bracketed(text: str) -> ParseTree:
    """Parse one balanced bracketed expression into a ParseTree.

    Spans are token-index intervals [lo, hi) computed left to right over the
    leaves.  Raises ParseError (with character offset) on unbalanced brackets,
    empty constituents, or labeled constituents containing no word.
    """
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise ParseError("empty input", 0)
    # open constituents, outermost first: (label, children so far); the
    # explicit stack, not recursion, lets a tree nest to any depth
    stack: list[tuple[str, list[ParseTree]]] = []
    pos = 0
    n_leaves = 0
    root = None
    while root is None:
        if pos >= len(tokens):
            raise ParseError("unbalanced brackets", len(text))
        tok, off = tokens[pos]
        if tok == "(" or not stack:
            if tok == ")":
                raise ParseError("unexpected ')'", off)
            if tok != "(":
                # bare word outside brackets at top level is not a tree
                raise ParseError("expected '('", off)
            pos += 1
            if pos >= len(tokens):
                raise ParseError("unbalanced brackets", len(text))
            label_tok, label_off = tokens[pos]
            if label_tok == ")":
                raise ParseError("empty constituent", label_off)
            if label_tok == "(":
                raise ParseError("constituent without label", label_off)
            stack.append((label_tok, []))
            pos += 1
        elif tok == ")":
            pos += 1
            label, children = stack.pop()
            if not children:
                raise ParseError("leaf with no word", off)
            node = ParseTree(
                label=label,
                children=tuple(children),
                span=(children[0].span[0], children[-1].span[1]),
            )
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
        else:
            stack[-1][1].append(ParseTree(label=tok, token=tok, span=(n_leaves, n_leaves + 1)))
            n_leaves += 1
            pos += 1
    if pos != len(tokens):
        raise ParseError("trailing content after root", tokens[pos][1])
    return root


def parse_tree(location: str, line: str) -> ParseTree:
    """Parse one tree line; a malformed tree raises DataError as ``<location>: ParseError: ...``."""
    with naming(location):
        return parse_bracketed(line)


def extract_lowest_np(tree: ParseTree) -> list[NounPhrase]:
    """Return the lowest-layer noun phrases of ``tree``.

    A lowest-layer NP is a node labeled exactly ``NP`` (leaves do not count)
    with no ``NP``-labeled constituent below it.  Results come back in
    left-to-right span order.
    """

    def is_np(node: ParseTree) -> bool:
        return node.label == "NP" and not node.is_leaf()

    out = [
        NounPhrase(text=node.text(), span=node.span)
        for node in tree.iter_nodes()
        if is_np(node) and not any(map(is_np, itertools.islice(node.iter_nodes(), 1, None)))
    ]
    out.sort(key=lambda np_: np_.span)
    return out
