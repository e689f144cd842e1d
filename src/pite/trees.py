"""Bracketed constituency trees and lowest-layer noun phrase extraction.

Trees arrive as Penn-style bracketed expressions, one per line, e.g.
``(TOP (S (NP woman) (VP is ...)))``.  A node is either an internal
constituent ``(LABEL child ...)`` or a bare word, which becomes a leaf.
Leaf spans are single token positions; internal spans cover their children.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


class ParseError(ValueError):
    """Malformed bracketed tree. ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ParseTree:
    """One constituency-tree node. A node has a token iff it has no children."""

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None
    span: tuple[int, int] = (0, 0)

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list[str]:
        if self.is_leaf():
            return [self.token] if self.token is not None else []
        out: list[str] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def text(self) -> str:
        """Surface form: space-joined leaves."""
        return " ".join(self.leaves())

    def iter_nodes(self) -> Iterator["ParseTree"]:
        """Pre-order traversal, self first."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()


@dataclass(frozen=True)
class NounPhrase:
    text: str
    span: tuple[int, int]


_TOKEN = re.compile(r"\(|\)|[^()\s]+")


def parse_bracketed(text: str) -> ParseTree:
    """Parse one balanced bracketed expression into a ParseTree.

    Spans are token-index intervals [lo, hi) computed left to right over the
    leaves.  Raises ParseError (with byte offset) on unbalanced brackets,
    empty constituents, or labeled constituents containing no word.
    """
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    if not tokens:
        raise ParseError("empty input", 0)
    pos = 0
    n_leaves = 0

    def parse_node() -> ParseTree:
        nonlocal pos, n_leaves
        tok, off = tokens[pos]
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
        pos += 1
        children: list[ParseTree] = []
        while True:
            if pos >= len(tokens):
                raise ParseError("unbalanced brackets", len(text))
            tok, off = tokens[pos]
            if tok == ")":
                pos += 1
                break
            if tok == "(":
                children.append(parse_node())
            else:
                children.append(
                    ParseTree(label=tok, token=tok, span=(n_leaves, n_leaves + 1))
                )
                n_leaves += 1
                pos += 1
        if not children:
            raise ParseError("leaf with no word", off)
        return ParseTree(
            label=label_tok,
            children=tuple(children),
            span=(children[0].span[0], children[-1].span[1]),
        )

    root = parse_node()
    if pos != len(tokens):
        raise ParseError("trailing content after root", tokens[pos][1])
    return root


def extract_lowest_np(tree: ParseTree) -> list[NounPhrase]:
    """Return the lowest-layer noun phrases of ``tree``.

    A lowest-layer NP is a node labeled exactly ``NP`` (leaves do not count)
    with no ``NP``-labeled constituent below it.  Results come back in
    left-to-right span order.
    """

    def has_np_below(node: ParseTree) -> bool:
        return any(
            child.label == "NP" and not child.is_leaf() or has_np_below(child)
            for child in node.children
        )

    out: list[NounPhrase] = []
    for node in tree.iter_nodes():
        if node.is_leaf() or node.label != "NP":
            continue
        if has_np_below(node):
            continue
        out.append(NounPhrase(text=node.text(), span=node.span))
    out.sort(key=lambda np_: np_.span)
    return out
