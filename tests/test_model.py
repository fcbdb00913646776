import pytest

from liftdom.model import (
    ModelError,
    default_model,
    parse_model,
    render_model,
)
from liftdom.presheaf import is_internal_dcpo


def test_parse_simple_poset():
    spec = parse_model("poset C2 { elems a b ; leq a<=b }")
    P = spec.posets["C2"]
    assert P.elements == ("a", "b") and P.leq("a", "b")


def test_parse_sierpinski_model():
    spec = parse_model(
        """
        base P2 { elems s0 s1 ; leq s0<=s1 }
        presheaf F over P2 { stage s1: x y ; stage s0: u ; restrict s1->s0: x->u y->u }
        iposet A over P2 from F { order s1: x<=y ; order s0: }
        """
    )
    A = spec.iposets["A"]
    assert A.at("s1") == ("x", "y") and A.leq_at("s1", "x", "y")
    ok, _ = is_internal_dcpo(A)
    assert ok


def test_missing_transitivity_is_an_error():
    with pytest.raises(ModelError) as e:
        parse_model("poset P { elems a b c ; leq a<=b b<=c }")
    assert "transitivity" in str(e.value)


def test_antisymmetry_violation_named():
    with pytest.raises(ModelError) as e:
        parse_model("poset P { elems a b ; leq a<=b b<=a }")
    assert "antisymmetry" in str(e.value)


def test_unresolved_reference():
    with pytest.raises(ModelError) as e:
        parse_model("map f : A -> B { }")
    assert "unresolved" in str(e.value)


def test_syntax_error_has_position():
    with pytest.raises(ModelError) as e:
        parse_model("poset P [ elems a ; leq ]")
    assert e.value.line == 1 and e.value.col is not None


def test_duplicate_names_rejected():
    with pytest.raises(ModelError) as e:
        parse_model("poset P { elems a ; leq }\nposet P { elems b ; leq }")
    assert "duplicate" in str(e.value)


def test_comments_and_whitespace():
    spec = parse_model("# hello\nposet  C2{elems a b;leq a<=b}  # trailing\n")
    assert spec.posets["C2"].leq("a", "b")


def test_nonmonotone_map_rejected():
    with pytest.raises(ModelError) as e:
        parse_model(
            "poset C2 { elems a b ; leq a<=b }\n"
            "poset A2 { elems l r ; leq }\n"
            "map f : C2 -> A2 { a->l b->r }"
        )
    assert "monotonicity" in str(e.value)


def test_default_model_round_trips():
    spec = default_model()
    text = render_model(spec)
    again = parse_model(text)
    assert render_model(again) == text
    assert spec.posets == again.posets
    assert spec.bases == again.bases
    assert spec.presheaves == again.presheaves
    assert spec.iposets == again.iposets
    assert spec.maps == again.maps


def test_default_model_contents():
    spec = default_model()
    assert set(spec.posets) == {"C1", "C2", "C3", "A2", "V3", "D4"}
    assert spec.posets["D4"].n == 4
    collapse = spec.maps["collapse"]
    assert set(collapse.values) == set(collapse.cod.elements)  # onto
    assert spec.iposets["IP1"].size() == 3


def test_presheaf_is_a_discrete_internal_poset():
    spec = parse_model(
        """
        base P2 { elems s0 s1 ; leq s0<=s1 }
        presheaf F over P2 { stage s1: x y ; stage s0: u ; restrict s1->s0: x->u y->u }
        iposet A over P2 from F { order s1: x<=y ; order s0: }
        """
    )
    F, A = spec.presheaves["F"], spec.iposets["A"]
    assert all(P.pairs == {(x, x) for x in P.elements} for P in F.stage_posets)
    # the internal poset reuses its presheaf's stage sets and restrictions
    assert A.restrictions == F.restrictions
    assert [P.elements for P in A.stage_posets] == [P.elements for P in F.stage_posets]


def test_partial_restriction_is_a_model_error():
    with pytest.raises(ModelError) as e:
        parse_model(
            "base P2 { elems s0 s1 ; leq s0<=s1 }\n"
            "presheaf F over P2 { stage s1: x y ; stage s0: u ; restrict s1->s0: x->u }"
        )
    assert "not total" in str(e.value) and e.value.line == 2


def _position(text, needle):
    # the (line, column) of the last occurrence of ``needle``
    lines = text.splitlines()
    ln = max(i for i, line in enumerate(lines) if needle in line)
    return ln + 1, lines[ln].rindex(needle) + 1


_BASE = "base P2 { elems s0 s1 ; leq s0<=s1 }\n"
_PSH = "presheaf F over P2 { stage s1: x ; stage s0: u ; restrict s1->s0: x->u"
_C2 = "poset C2 { elems a b ; leq a<=b }\n"


# input that the parser once dropped or overwrote without a word: the text,
# the token the error points at, and a word of its message
@pytest.mark.parametrize(
    "text, token, message",
    [
        (_BASE + _PSH + " ; restrict s0->s1: u->x }", "s0->s1", "not a strict pair"),
        (_BASE + _PSH + " ; restrict s0->s0: u->u }", "s0->s0", "not a strict pair"),
        (_BASE + _PSH + " ; restrict s1->s0: x->u }", "s1->s0", "given twice"),
        (_BASE + "presheaf F over P2 { stage s1: x ; stage s0: v ; stage s0: u ; restrict s1->s0: x->u }",
         "s0: u", "given twice"),
        (_BASE + _PSH + " }\niposet A over P2 from F { order s1: ; order s0: ; order s0: }", "s0:", "given twice"),
        (_BASE + _PSH + " zz->u }", "zz->u", "is not in"),
        (_C2 + "map f : C2 -> C2 { a->a b->b q->a }", "q->a", "is not in"),
        (_C2 + "map f : C2 -> C2 { a->a a->b b->b }", "a->b", "mapped twice"),
    ],
    ids=[
        "restriction-upwards",
        "restriction-to-its-own-stage",
        "restriction-twice",
        "stage-twice",
        "order-twice",
        "restriction-from-outside-its-stage",
        "map-from-outside-its-source",
        "map-entry-twice",
    ],
)
def test_dropped_or_overwritten_input_is_refused(text, token, message):
    with pytest.raises(ModelError) as e:
        parse_model(text)
    assert message in str(e.value)
    assert (e.value.line, e.value.col) == _position(text, token)
