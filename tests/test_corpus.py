import pytest

from permlat import corpus
from permlat.corpus import (
    builtin_corpus,
    builtin_group,
    load_corpus_dir,
    load_group,
    parse_group_file,
    parse_group_text,
    serialize_group,
)
from permlat.errors import GroupFileError
from permlat.groups import CayleyTable, group_from_cayley

from oracles import dicyclic_table


S4_TEXT = """name: S4
degree: 4
gens: (1 2), (1 2 3 4)
"""


def test_parse_and_load_s4():
    spec = parse_group_text(S4_TEXT)
    assert spec.name == "S4"
    assert spec.degree == 4
    assert spec.gens == ("(1 2)", "(1 2 3 4)")
    assert load_group(spec).order == 24


def test_empty_gens_is_trivial():
    spec = parse_group_text("name: triv\ndegree: 3\ngens:\n")
    assert load_group(spec).order == 1


def test_point_out_of_degree_range():
    text = "name: bad\ndegree: 4\ngens: (1 2), (4 5)\n"
    with pytest.raises(GroupFileError) as err:
        parse_group_text(text)
    assert err.value.line == 3
    assert "point 5" in str(err.value)


def test_expected_order_checked():
    text = "name: S4\ndegree: 4\ngens: (1 2), (1 2 3 4)\nexpected_order: 24\n"
    assert load_group(parse_group_text(text)).order == 24
    bad = text.replace("24\n", "12\n")
    with pytest.raises(GroupFileError) as err:
        load_group(parse_group_text(bad))
    assert "order 24, expected 12" in str(err.value)


def test_comments_and_whitespace():
    text = (
        "# a comment line\n"
        "name:  spaced   \n"
        "degree: 3   # trailing comment\n"
        "gens:   (1 2) ,  (1 2 3)\n"
    )
    spec = parse_group_text(text)
    assert spec.name == "spaced"
    assert load_group(spec).order == 6


def test_parse_errors():
    with pytest.raises(GroupFileError):
        parse_group_text("degree: 3\ngens: (1 2)\n")  # missing name
    with pytest.raises(GroupFileError):
        parse_group_text("name: x\ngens: (1 2)\n")  # missing degree
    with pytest.raises(GroupFileError):
        parse_group_text("name: x\ndegree: 3\ngens:\ncolor: blue\n")
    with pytest.raises(GroupFileError):
        parse_group_text("name: x\nname: y\ndegree: 3\ngens:\n")
    with pytest.raises(GroupFileError):
        parse_group_text("name: x\ndegree: three\ngens:\n")
    with pytest.raises(GroupFileError):
        parse_group_text("name: x\ndegree: 3\ngens: (1 2\n")


def test_error_formatting_has_line_and_column():
    try:
        parse_group_text("name: x\ndegree: 4\ngens: (1 2), (4 5)\n")
    except GroupFileError as err:
        assert str(err).startswith(f"line {err.line}, col {err.column}:")
    else:
        raise AssertionError("expected a parse error")


def test_builtin_minimum_membership():
    names = {name for name, _ in builtin_corpus()}
    for n in range(2, 25):
        assert f"C{n}" in names
    for m in range(6, 25, 2):
        assert f"D{m}" in names
    for required in (
        "Q8",
        "Q16",
        "EA8",
        "EA27",
        "S3",
        "S4",
        "A4",
        "A5",
        "A6",
        "PSL(2,7)",
        "D8xC3",
        "Q8xC3",
        "S3xS3",
        "C3:C4",
    ):
        assert required in names
    assert len(names) >= 50


def test_builtin_key_orders():
    by_name = dict(builtin_corpus())
    assert by_name["PSL(2,7)"].order == 168
    assert by_name["A6"].order == 360
    assert by_name["A5"].order == 60
    assert by_name["Q16"].order == 16
    assert by_name["EA27"].order == 27
    assert by_name["C3:C4"].order == 12
    assert not by_name["C3:C4"].is_abelian()
    orders = {g.order for _, g in builtin_corpus()}
    assert 324 in orders
    assert 648 in orders


def test_builtin_is_deterministic_and_unique():
    a = builtin_corpus()
    b = builtin_corpus()
    assert [n for n, _ in a] == [n for n, _ in b]
    names = [n for n, _ in a]
    assert len(names) == len(set(names))
    assert len(a) == 89


def test_builtin_products_respect_limit():
    for name, g in builtin_corpus():
        if "x" in name and name not in ("D8xC3", "Q8xC3", "S3xS3"):
            assert g.order <= 200


def test_products_table_matches_the_product_rule():
    """``_PRODUCTS`` is the value of the rule it replaced: of the entries
    before it, pairs (A, B) with A not after B, neither a product, |A||B|
    <= 200 and not one of the three products listed with the builders,
    the 40 smallest by (order, A, B)."""
    base = [(name, g.order) for name, g in builtin_corpus()[:49]]
    listed = {("C3", "D8"), ("C3", "Q8"), ("S3", "S3")}
    pairs = sorted(
        (oa * ob, a, b)
        for i, (a, oa) in enumerate(base)
        for b, ob in base[i:]
        if oa * ob <= 200
        and "x" not in a + b
        and (a, b) not in listed
        and (b, a) not in listed
    )
    assert corpus._PRODUCTS == tuple(f"{a}x{b}" for _, a, b in pairs[:40])
    assert [n for n, _ in builtin_corpus()[49:]] == list(corpus._PRODUCTS)


@pytest.mark.parametrize("name,m", [("Q8", 2), ("Q16", 4), ("C3:C4", 3)])
def test_dicyclic_entries_match_their_normal_form_table(name, m):
    """The entries closed from the right-regular images of a and b are the
    regular representation of the table written from the normal forms."""
    table, ab = dicyclic_table(m)
    want = group_from_cayley(CayleyTable(table), generator_indices=ab)
    got = builtin_group(name)
    assert got.order == 4 * m
    assert got.elements == want.elements
    assert got.generators == want.generators
    assert got.table() == want.table()


def test_only_direct_products_supply_a_table():
    """Every other builtin entry is closed from its generators and builds
    its table on first use."""
    for name, _ in builtin_corpus():
        assert (builtin_group(name)._table is not None) == ("x" in name), name


def test_builtin_group_matches_corpus_entry(monkeypatch):
    """Every entry, the listed products included, builds alone."""
    entries = builtin_corpus()

    def refuse():
        raise AssertionError("builtin corpus built")

    monkeypatch.setattr(corpus, "_builtin", refuse)
    for name, g in entries:
        h = builtin_group(name)
        assert h.name == name
        assert h.degree == g.degree
        assert h.generators == g.generators, name
        assert h.elements == g.elements, name


def test_builtin_g324_closes_no_b648(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("B648 closed")

    monkeypatch.setattr(corpus, "wreath_regular", refuse)
    assert builtin_group("G324").order == 324


def test_example_pair_builds_no_table_of_b648():
    b, _ = corpus.example_pair()
    assert b._table is None
    # A fresh build, not the cached corpus that other tests share.
    assert dict(corpus._builtin.__wrapped__())["B648"]._table is None


def test_builtin_group_unknown_name():
    assert builtin_group("NoSuchGroup") is None


def test_roundtrip_all_builtin():
    for name, g in builtin_corpus():
        text = serialize_group(g, name)
        spec = parse_group_text(text)
        back = load_group(spec)
        assert back.order == g.order
        assert [p.images for p in back.elements] == [
            p.images for p in g.elements
        ]


def test_load_corpus_dir(tmp_path):
    (tmp_path / "b.group").write_text("name: BB\ndegree: 3\ngens: (1 2 3)\n")
    (tmp_path / "a.group").write_text("name: AA\ndegree: 2\ngens: (1 2)\n")
    (tmp_path / "notes.txt").write_text("ignored\n")
    loaded = load_corpus_dir(tmp_path)
    assert [n for n, _ in loaded] == ["AA", "BB"]
    assert [g.order for _, g in loaded] == [2, 3]


def test_load_corpus_dir_propagates_errors(tmp_path):
    (tmp_path / "bad.group").write_text("name: x\ndegree: 2\ngens: (1 3)\n")
    with pytest.raises(GroupFileError):
        load_corpus_dir(tmp_path)
