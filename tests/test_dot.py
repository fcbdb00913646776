from liftdom.backend import ClassicalBackend, PresheafBackend, sierpinski_base
from liftdom.dot import export_dot
from liftdom.order import FinPoset, MonotoneMap
from liftdom.presheaf import omega


def _nodes_edges(text):
    nodes = sum(1 for ln in text.splitlines() if "label" in ln and "cluster" not in ln)
    edges = sum(1 for ln in text.splitlines() if "->" in ln and "dashed" not in ln)
    return nodes, edges


def test_two_chain():
    nodes, edges = _nodes_edges(export_dot(FinPoset.chain(2)))
    assert (nodes, edges) == (2, 1)


def test_lift_of_two_chain():
    CL = ClassicalBackend()
    nodes, edges = _nodes_edges(export_dot(CL.lift(FinPoset.chain(2)).obj))
    assert (nodes, edges) == (3, 2)


def test_omega_clusters():
    O = omega(sierpinski_base())
    text = export_dot(O)
    assert "cluster_0" in text and "cluster_1" in text
    # three sieves at the top stage, two at the bottom
    per_cluster = {}
    current = None
    for ln in text.splitlines():
        if "subgraph" in ln:
            current = ln.strip()
            per_cluster[current] = 0
        elif "[label=" in ln and current:
            per_cluster[current] += 1
        elif ln.strip() == "}":
            current = None
    assert sorted(per_cluster.values()) == [2, 3]


def test_map_export_is_deterministic():
    f = MonotoneMap.make(FinPoset.chain(2), FinPoset.chain(2), lambda x: x)
    assert export_dot(f) == export_dot(f)
    assert "dashed" in export_dot(f)


# the exact text of one export of each kind: a poset, an internal poset,
# a monotone map and a natural transformation
POSET_DOT = [
    'digraph G {',
    '  rankdir=BT;',
    '  n0 [label="a"];',
    '  n1 [label="b"];',
    '  n2 [label="c"];',
    '  n0 -> n1;',
    '  n0 -> n2;',
    '}',
]

OMEGA_DOT = [
    'digraph G {',
    '  rankdir=BT;',
    '  subgraph cluster_0 {',
    '    label="s0";',
    '    s0_0 [label="{}"];',
    '    s0_1 [label="{s0}"];',
    '    s0_0 -> s0_1;',
    '  }',
    '  subgraph cluster_1 {',
    '    label="s1";',
    '    s1_0 [label="{}"];',
    '    s1_1 [label="{s0}"];',
    '    s1_2 [label="{s0,s1}"];',
    '    s1_0 -> s1_1;',
    '    s1_1 -> s1_2;',
    '  }',
    '}',
]

MAP_DOT = [
    'digraph G {',
    '  rankdir=BT;',
    '  subgraph cluster_dom {',
    '    label="dom";',
    '    d0 [label="c0"];',
    '    d1 [label="c1"];',
    '    d0 -> d1;',
    '  }',
    '  subgraph cluster_cod {',
    '    label="cod";',
    '    c0 [label="c0"];',
    '    c1 [label="c1"];',
    '    c2 [label="c2"];',
    '    c0 -> c1;',
    '    c1 -> c2;',
    '  }',
    '  d0 -> c1 [style=dashed];',
    '  d1 -> c2 [style=dashed];',
    '}',
]

NAT_TRANS_DOT = [
    'digraph G {',
    '  rankdir=BT;',
    '  subgraph cluster_0 {',
    '    label="s0";',
    '    s0d0 [label="{}"];',
    '    s0d1 [label="{s0}"];',
    '    s0d0 -> s0d1;',
    '    s0c0 [label="{}"];',
    '    s0c1 [label="{s0}"];',
    '    s0c0 -> s0c1;',
    '    s0d0 -> s0c0 [style=dashed];',
    '    s0d1 -> s0c1 [style=dashed];',
    '  }',
    '  subgraph cluster_1 {',
    '    label="s1";',
    '    s1d0 [label="{}"];',
    '    s1d1 [label="{s0}"];',
    '    s1d2 [label="{s0,s1}"];',
    '    s1d0 -> s1d1;',
    '    s1d1 -> s1d2;',
    '    s1c0 [label="{}"];',
    '    s1c1 [label="{s0}"];',
    '    s1c2 [label="{s0,s1}"];',
    '    s1c0 -> s1c1;',
    '    s1c1 -> s1c2;',
    '    s1d0 -> s1c0 [style=dashed];',
    '    s1d1 -> s1c1 [style=dashed];',
    '    s1d2 -> s1c2 [style=dashed];',
    '  }',
    '}',
]


def test_exports_pinned():
    P = FinPoset.from_generators(("a", "b", "c"), [("a", "b"), ("a", "c")])
    O = omega(sierpinski_base())
    f = MonotoneMap.make(FinPoset.chain(2), FinPoset.chain(3), {"c0": "c1", "c1": "c2"})
    cases = [
        (P, POSET_DOT),
        (O, OMEGA_DOT),
        (f, MAP_DOT),
        (PresheafBackend(sierpinski_base()).identity(O), NAT_TRANS_DOT),
    ]
    for obj, lines in cases:
        assert export_dot(obj) == "\n".join(lines) + "\n"
