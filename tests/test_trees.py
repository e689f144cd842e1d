import pytest
from hypothesis import given
from hypothesis import strategies as st

from pite.jsonl import read_lines
from pite.trees import (
    ParseError,
    ParseTree,
    extract_lowest_np,
    parse_bracketed,
)


def test_single_leaf():
    tree = parse_bracketed("(TOP (NP dog))")
    assert tree.label == "TOP"
    assert len(tree.children) == 1
    np_node = tree.children[0]
    assert np_node.label == "NP"
    assert np_node.leaves() == ["dog"]
    assert np_node.span == (0, 1)
    assert tree.span == (0, 1)


def test_fig3a_structure(fig3_trees):
    tree = parse_bracketed(fig3_trees[0])
    assert tree.text() == "woman is counting money with a pen on a white table"
    assert len(tree.leaves()) == 11
    # spans of children partition the parent span, leaves have width 1
    for node in tree.iter_nodes():
        if node.is_leaf():
            assert node.span[1] - node.span[0] == 1
        else:
            lo = node.span[0]
            for child in node.children:
                assert child.span[0] == lo
                lo = child.span[1]
            assert lo == node.span[1]


def test_fig3a_lowest_nps(fig3_trees):
    nps = extract_lowest_np(parse_bracketed(fig3_trees[0]))
    assert [np_.text for np_ in nps] == ["woman", "money", "a pen", "a white table"]
    # the enclosing "a pen on a white table" NP is excluded
    assert [np_.span for np_ in nps] == [(0, 1), (3, 4), (5, 7), (8, 11)]


def test_fig3b_lowest_nps(fig3_trees):
    nps = extract_lowest_np(parse_bracketed(fig3_trees[1]))
    assert [np_.text for np_ in nps] == ["two people", "hands", "front", "a desk"]


def test_no_np():
    assert extract_lowest_np(parse_bracketed("(TOP (VP run))")) == []


def test_unbalanced_error_offset():
    with pytest.raises(ParseError) as err:
        parse_bracketed("(TOP (NP dog)")
    assert err.value.offset == 13


def test_unbalanced_error_offset_counts_characters_not_bytes():
    with pytest.raises(ParseError) as err:
        parse_bracketed("(NP café) )")
    assert err.value.offset == 10  # its UTF-8 byte offset is 11


def test_empty_constituent():
    with pytest.raises(ParseError, match="empty constituent"):
        parse_bracketed("(TOP () )")


def test_constituent_without_word():
    with pytest.raises(ParseError, match="leaf with no word"):
        parse_bracketed("(TOP (NP))")


def test_trailing_content():
    with pytest.raises(ParseError, match="trailing"):
        parse_bracketed("(A x) (B y)")


def test_stray_close():
    with pytest.raises(ParseError):
        parse_bracketed(")")


def test_exact_tag_match():
    # function-tagged labels like NP-SBJ do not match
    tree = parse_bracketed("(S (NP-SBJ he) (VP ran))")
    assert extract_lowest_np(tree) == []


def test_np_word_leaf_is_not_a_constituent():
    # a literal word "NP" must not be treated as an NP node
    tree = parse_bracketed("(S (VP say NP))")
    assert extract_lowest_np(tree) == []


def test_read_lines_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "t.trees"
    path.write_text("(A x)\n\n  \n (B y) \n")
    assert list(read_lines(path)) == [(f"{path}:1", "(A x)"), (f"{path}:4", "(B y)")]


def serialize(tree: ParseTree) -> str:
    """Canonical single-space bracketed form of ``tree``."""
    if tree.is_leaf():
        return tree.token
    return f"({tree.label} {' '.join(serialize(c) for c in tree.children)})"


def test_serialize_round_trip_normalizes_whitespace():
    messy = "( TOP   (NP  dog ) )"
    tree = parse_bracketed(messy)
    assert serialize(tree) == "(TOP (NP dog))"
    assert parse_bracketed(serialize(tree)) == tree


# --- property tests -------------------------------------------------------

LABELS = st.sampled_from(["NP", "VP", "PP", "S", "X"])
WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@st.composite
def tree_sources(draw, depth=3):
    label = draw(LABELS)
    if depth == 0:
        kids = [draw(WORDS)]
    else:
        kids = draw(
            st.lists(
                st.one_of(WORDS, tree_sources(depth=depth - 1)),
                min_size=1,
                max_size=3,
            )
        )
    return f"({label} {' '.join(kids)})"


@given(tree_sources())
def test_round_trip(src):
    tree = parse_bracketed(src)
    again = parse_bracketed(serialize(tree))
    assert again == tree
    assert serialize(again) == serialize(tree)


def brute_force_lowest_nps(tree: ParseTree) -> list[tuple[str, tuple[int, int]]]:
    """Independent oracle: full subtree scan per candidate node."""
    found = []
    for node in tree.iter_nodes():
        if node.is_leaf() or node.label != "NP":
            continue
        descendants = [
            n
            for n in node.iter_nodes()
            if n is not node and not n.is_leaf() and n.label == "NP"
        ]
        if not descendants:
            found.append((node.text(), node.span))
    return sorted(found, key=lambda item: item[1])


@given(tree_sources())
def test_lowest_layer_property(src):
    tree = parse_bracketed(src)
    nps = extract_lowest_np(tree)
    assert [(p.text, p.span) for p in nps] == brute_force_lowest_nps(tree)


@given(tree_sources())
def test_spans_increasing_and_disjoint(src):
    nps = extract_lowest_np(parse_bracketed(src))
    for a, b in zip(nps, nps[1:]):
        assert a.span[1] <= b.span[0]
    for np_ in nps:
        assert np_.text
        assert np_.span[0] < np_.span[1]


@given(tree_sources())
def test_extraction_idempotent_on_np_subtree(src):
    tree = parse_bracketed(src)
    spans = {p.span for p in extract_lowest_np(tree)}
    for node in tree.iter_nodes():
        if node.label == "NP" and not node.is_leaf() and node.span in spans:
            inner = extract_lowest_np(node)
            assert len(inner) == 1
            assert inner[0].text == node.text()
