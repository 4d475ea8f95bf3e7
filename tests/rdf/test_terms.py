"""Unit tests for the RDF term and triple data model."""

import pytest

from repro.rdf import BNode, IRI, Literal, Triple, Variable, XSD, term_sort_key


class TestIRI:
    def test_value_round_trips(self):
        assert IRI("http://ex/a").value == "http://ex/a"

    def test_equality_by_value(self):
        assert IRI("http://ex/a") == IRI("http://ex/a")
        assert IRI("http://ex/a") != IRI("http://ex/b")

    def test_hashable_and_stable(self):
        assert hash(IRI("http://ex/a")) == hash(IRI("http://ex/a"))
        assert len({IRI("http://ex/a"), IRI("http://ex/a")}) == 1

    def test_not_equal_to_other_kinds(self):
        assert IRI("http://ex/a") != Literal("http://ex/a")
        assert IRI("a:b") != BNode("ab")

    def test_n3(self):
        assert IRI("http://ex/a").n3() == "<http://ex/a>"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IRI("")

    @pytest.mark.parametrize("bad", ["a b", "a<b", "a>b", 'a"b', "a{b}", "a|b", "a`b", "a\nb"])
    def test_rejects_forbidden_characters(self, bad):
        with pytest.raises(ValueError):
            IRI(bad)

    @pytest.mark.parametrize(
        "c", [chr(code) for code in range(0x80)] + ["\u00e9", "\u2028", "\U0001F600"]
    )
    def test_forbidden_characters_exhaustively(self, c):
        forbidden = c in '<>"{}|^`' or ord(c) <= 0x20
        if forbidden:
            with pytest.raises(ValueError):
                IRI("a" + c + "b")
        else:
            assert IRI("a" + c + "b").value == "a" + c + "b"

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            IRI(42)

    def test_immutable(self):
        iri = IRI("http://ex/a")
        with pytest.raises(AttributeError):
            iri.value = "http://ex/b"

    def test_ordering_within_kind(self):
        assert IRI("http://ex/a") < IRI("http://ex/b")

    def test_str(self):
        assert str(IRI("http://ex/a")) == "http://ex/a"


class TestBNode:
    def test_label(self):
        assert BNode("b1").label == "b1"

    def test_fresh_labels_unique(self):
        assert BNode().label != BNode().label

    def test_equality(self):
        assert BNode("x") == BNode("x")
        assert BNode("x") != BNode("y")

    def test_n3(self):
        assert BNode("x").n3() == "_:x"

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            BNode("with space")

    def test_sorts_before_iri(self):
        assert BNode("z") < IRI("http://a")

    def test_immutable(self):
        node = BNode("x")
        with pytest.raises(AttributeError):
            node.label = "y"


class TestLiteral:
    def test_plain(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.language is None
        assert lit.datatype is None

    def test_language_tag_normalized_lowercase(self):
        assert Literal("x", language="EN").language == "en"

    def test_datatype(self):
        lit = Literal("42", datatype=XSD.integer)
        assert lit.datatype == XSD.integer

    def test_language_and_datatype_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", language="en", datatype=XSD.string)

    def test_rejects_bad_language(self):
        with pytest.raises(ValueError):
            Literal("x", language="123-")

    def test_rejects_non_iri_datatype(self):
        with pytest.raises(TypeError):
            Literal("x", datatype="http://ex/dt")

    def test_equality_considers_all_parts(self):
        assert Literal("x") == Literal("x")
        assert Literal("x", language="en") != Literal("x")
        assert Literal("x", datatype=XSD.integer) != Literal("x")

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_n3_datatype(self):
        assert (
            Literal("1", datatype=XSD.integer).n3()
            == '"1"^^<http://www.w3.org/2001/XMLSchema#integer>'
        )

    def test_n3_escapes(self):
        assert Literal('a"b\n\t\\').n3() == '"a\\"b\\n\\t\\\\"'

    @pytest.mark.parametrize(
        "lexical,datatype_local,expected",
        [
            ("42", "integer", 42),
            ("3.5", "double", 3.5),
            ("true", "boolean", True),
            ("false", "boolean", False),
            ("free text", "string", "free text"),
        ],
    )
    def test_to_python(self, lexical, datatype_local, expected):
        assert Literal(lexical, datatype=XSD[datatype_local]).to_python() == expected

    def test_to_python_plain_is_str(self):
        assert Literal("x").to_python() == "x"


class TestVariable:
    def test_strips_question_mark(self):
        assert Variable("?x").name == "x"

    def test_equality(self):
        assert Variable("x") == Variable("?x")

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            Variable("not valid")

    def test_sorts_first(self):
        assert Variable("z") < BNode("a")
        assert Variable("z") < IRI("http://a")


class TestTriple:
    def test_fields(self):
        t = Triple(IRI("http://s"), IRI("http://p"), Literal("o"))
        assert t.subject == IRI("http://s")
        assert t.predicate == IRI("http://p")
        assert t.object == Literal("o")

    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            Triple(Literal("s"), IRI("http://p"), IRI("http://o"))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(TypeError):
            Triple(IRI("http://s"), BNode("p"), IRI("http://o"))

    def test_variable_object_rejected(self):
        with pytest.raises(TypeError):
            Triple(IRI("http://s"), IRI("http://p"), Variable("o"))

    def test_bnode_subject_allowed(self):
        t = Triple(BNode("s"), IRI("http://p"), IRI("http://o"))
        assert t.subject == BNode("s")

    def test_equality_and_hash(self):
        a = Triple(IRI("http://s"), IRI("http://p"), IRI("http://o"))
        b = Triple(IRI("http://s"), IRI("http://p"), IRI("http://o"))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unpacking(self):
        s, p, o = Triple(IRI("http://s"), IRI("http://p"), IRI("http://o"))
        assert (s.value, p.value, o.value) == ("http://s", "http://p", "http://o")

    def test_indexing(self):
        t = Triple(IRI("http://s"), IRI("http://p"), IRI("http://o"))
        assert t[0] == t.subject
        assert t[1] == t.predicate
        assert t[2] == t.object

    def test_n3(self):
        t = Triple(IRI("http://s"), IRI("http://p"), Literal("o"))
        assert t.n3() == '<http://s> <http://p> "o" .'

    def test_sorting_is_deterministic(self):
        triples = [
            Triple(IRI("http://b"), IRI("http://p"), IRI("http://o")),
            Triple(IRI("http://a"), IRI("http://p"), Literal("x")),
            Triple(BNode("n"), IRI("http://p"), IRI("http://o")),
        ]
        ordered = sorted(triples)
        assert ordered[0].subject == BNode("n")  # bnodes < IRIs
        assert ordered[1].subject == IRI("http://a")

    def test_immutable(self):
        t = Triple(IRI("http://s"), IRI("http://p"), IRI("http://o"))
        with pytest.raises(AttributeError):
            t.subject = IRI("http://x")


class TestSortKey:
    def test_cross_kind_order(self):
        keys = [
            term_sort_key(Variable("v")),
            term_sort_key(BNode("b")),
            term_sort_key(IRI("http://i")),
            term_sort_key(Literal("l")),
        ]
        assert keys == sorted(keys)

    def test_rejects_non_term(self):
        with pytest.raises(TypeError):
            term_sort_key("plain string")
