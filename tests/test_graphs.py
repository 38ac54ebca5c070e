import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qglab import families
from qglab.graphs import (
    DIRICHLET,
    NEUMANN,
    Edge,
    GraphFormatError,
    MetricGraph,
    PoschlTeller,
    Sampled,
    SquareWell,
    ZERO,
    TopologyClass,
    classify_topology,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
    scale_graph,
    split_at_jumps,
    split_with_sources,
    validate,
)

from conftest import gf2_cycle_rank


def test_validate_interval():
    g = families.interval(math.pi)
    rep = validate(g)
    assert rep.valid
    assert rep.total_length == pytest.approx(math.pi)
    assert rep.degrees == {0: 1, 1: 1}


def test_validate_balloon():
    g = families.balloon()
    rep = validate(g)
    assert rep.valid
    assert rep.total_length == pytest.approx(3 * math.pi)
    assert sorted(v for v, d in rep.degrees.items() if d == 1) == [1]
    # self-loop contributes 2 to the junction degree
    assert rep.degrees[0] == 3


def test_validate_zero_length_edge():
    g = MetricGraph(2, (Edge(0, 1, 0.0),), {0: DIRICHLET, 1: DIRICHLET})
    rep = validate(g)
    assert not rep.valid
    assert any("nonpositive length" in e for e in rep.errors)


def test_validate_missing_bc_and_misplaced_bc():
    g = MetricGraph(2, (Edge(0, 1, 1.0),), {0: DIRICHLET})
    assert any("missing boundary condition" in e for e in validate(g).errors)
    g2 = MetricGraph(3, (Edge(0, 1, 1.0), Edge(1, 2, 1.0)), {0: DIRICHLET, 1: NEUMANN, 2: DIRICHLET})
    assert any("non-leaf" in e for e in validate(g2).errors)


def test_validate_disconnected():
    g = MetricGraph(4, (Edge(0, 1, 1.0), Edge(2, 3, 1.0)),
                    {0: DIRICHLET, 1: DIRICHLET, 2: DIRICHLET, 3: DIRICHLET})
    assert any("not connected" in e for e in validate(g).errors)


def test_classify_y_graph():
    topo = classify_topology(families.y_graph())
    assert topo.topology_class is TopologyClass.TREE
    assert topo.betti == 0
    assert topo.cycle_cut_vertices == []


def test_classify_balloon():
    topo = classify_topology(families.balloon())
    assert topo.topology_class is TopologyClass.CUT_VERTEX_CYCLE
    assert topo.betti == 1
    assert topo.cycle_cut_vertices == [0]


def test_classify_circle_with_leads():
    topo = classify_topology(families.circle_with_leads())
    assert topo.topology_class is TopologyClass.ONE_LOOP_WITH_LEADS
    assert topo.betti == 1
    assert topo.cycle_cut_vertices == []


def test_classify_two_gon_with_one_lead():
    # parallel edges form the cycle, reachable from one lead only
    g = MetricGraph(3, (Edge(0, 1, 1.0), Edge(0, 1, 2.0), Edge(0, 2, 1.0)), {2: DIRICHLET})
    topo = classify_topology(g)
    assert topo.topology_class is TopologyClass.CUT_VERTEX_CYCLE
    assert 0 in topo.cycle_cut_vertices


def test_classify_general_two_cycles():
    g = MetricGraph(
        3,
        (Edge(0, 1, 1.0), Edge(0, 1, 1.5), Edge(0, 1, 2.0), Edge(0, 2, 1.0), Edge(1, 2, 1.0)),
        {},
    )
    # no leaves at all: vacuously disconnected from "all leaves"
    topo = classify_topology(g)
    assert topo.betti == 3
    assert topo.topology_class is TopologyClass.CUT_VERTEX_CYCLE


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    parents = [draw(st.integers(min_value=0, max_value=k)) for k in range(n - 1)]
    edges = [Edge(parents[k], k + 1, 1.0) for k in range(n - 1)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges += [Edge(u, v, 0.5) for u, v in extra]
    return MetricGraph(n, tuple(edges), {})


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_betti_matches_cycle_space_rank(g):
    boundary = {v: DIRICHLET for v in g.leaf_vertices()}
    g = MetricGraph(g.num_vertices, g.edges, boundary, 1.0)
    topo = classify_topology(g)
    assert topo.betti == gf2_cycle_rank(g)
    assert (topo.topology_class is TopologyClass.TREE) == (topo.betti == 0)


def test_potentials_evaluate():
    x = np.array([0.0, 0.5, 1.0])
    pt = PoschlTeller(a=2.0, center=0.5)
    assert pt.evaluate(x, 1.0)[1] == pytest.approx(-8.0)
    sw = SquareWell(depth=-3.0, left=0.25, right=0.75)
    assert list(sw.evaluate(x, 1.0)) == [0.0, -3.0, 0.0]
    sm = Sampled((0.0, 1.0, 0.0))
    assert sm.evaluate(np.array([0.25]), 1.0)[0] == pytest.approx(0.5)


def test_scale_graph_maps_eigenvalues():
    from qglab import fem

    g = load_graph(os.path.join(os.path.dirname(__file__), "..", "fixtures", "tree_well.json"))
    spec = fem.solve_graph(g, 0.02, 4)
    spec2 = fem.solve_graph(scale_graph(g, 2.0), 0.04, 4)
    assert np.allclose(spec2.energies, spec.energies / 4.0, rtol=1e-10)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n_edges=st.integers(0, 5),  # 0 stands for the balloon
    seed=st.integers(0, 2**16),
    depth=st.floats(-15.0, -2.0),
    s=st.sampled_from([0.25, 0.5, 2.0, 4.0]),
)
def test_scale_graph_covariance(n_edges, seed, depth, s):
    # lengths times s and V(x/s)/s^2 map every eigenvalue to E/s^2 and leave
    # the moment quotient alone; powers of two keep every node position exact
    from qglab import fem, inequalities

    if n_edges == 0:
        g = families.with_square_well(families.balloon(), 0, depth)  # well on the loop
    else:
        g = families.with_square_well(families.random_tree(np.random.default_rng(seed), n_edges), 0, depth)
    mesh = fem.build_mesh(g, 0.02)
    scaled = fem.build_mesh(scale_graph(g, s), 0.02 * s)
    assert [seg.cells for seg in scaled.segments] == [seg.cells for seg in mesh.segments]
    system, system_s = fem.assemble(mesh), fem.assemble(scaled)
    k = len(system.bound_states([1.0])[0]) + 1
    spec = fem.solve_spectrum(system, k)
    spec_s = fem.solve_spectrum(system_s, k)
    scale = np.abs(spec.energies).max() / s**2
    assert np.allclose(spec_s.energies, spec.energies / s**2, rtol=1e-9, atol=1e-9 * scale)
    assert spec.energies[-1] >= 0.0 and spec_s.energies[-1] >= 0.0  # each holds every bound state
    bound = spec.energies[spec.energies < 0.0]
    bound_s = spec_s.energies[spec_s.energies < 0.0]
    q = inequalities.lt_quotient(system, bound, 2.0).quotient
    assert inequalities.lt_quotient(system_s, bound_s, 2.0).quotient == pytest.approx(q, rel=1e-9)


# --- description file schema ---------------------------------------------


def test_graph_roundtrip(tmp_path):
    g = families.poschl_teller_balloon(10.0)
    path = tmp_path / "g.json"
    save_graph(g, path)
    g2 = load_graph(path)
    assert g2 == g


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["vertices"][0].update(color="red"), "color"),
        (lambda d: d["edges"][0].update(weight=2), "weight"),
        (lambda d: d["edges"][0]["potential"].update(shape="deep"), "shape"),
    ],
)
def test_unknown_keys_rejected(mutate, key):
    d = graph_to_dict(families.poschl_teller_balloon(10.0))
    mutate(d)
    with pytest.raises(GraphFormatError, match=key):
        graph_from_dict(d)


def test_bad_vertex_ids_rejected():
    d = graph_to_dict(families.interval())
    d["vertices"][1]["id"] = 5
    with pytest.raises(GraphFormatError, match="dense"):
        graph_from_dict(d)


def test_bad_bc_rejected():
    d = graph_to_dict(families.interval())
    d["vertices"][0]["bc"] = "robin"
    with pytest.raises(GraphFormatError, match="robin"):
        graph_from_dict(d)


def test_unknown_potential_type_rejected():
    d = graph_to_dict(families.interval())
    d["edges"][0]["potential"] = {"type": "coulomb"}
    with pytest.raises(GraphFormatError, match="coulomb"):
        graph_from_dict(d)


def test_not_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GraphFormatError, match="JSON"):
        load_graph(path)


# --- the graph layer, pinned kind by kind and message by message ----------

POTENTIALS = [
    ZERO,
    PoschlTeller(a=0.55, center=1.25),
    SquareWell(depth=-3.0, left=0.25, right=0.75),
    Sampled((0.0, -1.5, 2.0, 0.5)),
]


@pytest.mark.parametrize("p", POTENTIALS, ids=lambda p: type(p).__name__)
def test_potential_roundtrips_through_file(tmp_path, p):
    g = families.interval(2.0, potential=p)
    save_graph(g, tmp_path / "g.json")
    assert load_graph(tmp_path / "g.json") == g


@pytest.mark.parametrize("p", POTENTIALS, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("s", [0.5, 3.0])
def test_scale_graph_maps_each_potential(p, s):
    # lengths map to s*length and potentials to V(x/s)/s^2
    g = families.interval(2.0, potential=p)
    e = scale_graph(g, s).edges[0]
    assert e.length == pytest.approx(2.0 * s)
    assert type(e.potential) is type(p)
    x = np.linspace(0.0, 2.0, 17)
    assert np.allclose(e.potential.evaluate(s * x, e.length), p.evaluate(x, 2.0) / s**2, rtol=1e-12, atol=0.0)


_D2 = {0: DIRICHLET, 1: DIRICHLET}


@pytest.mark.parametrize(
    "graph, message",
    [
        (MetricGraph(0, (), {}), "graph has no vertices"),
        (MetricGraph(2, (), _D2), "graph has no edges"),
        (MetricGraph(2, (Edge(0, 1, 1.0),), _D2, alpha=0.0), "nonpositive alpha 0.0"),
        (MetricGraph(2, (Edge(0, -1, 1.0),), _D2), "edge 0: endpoint out of range (0, -1)"),
        (MetricGraph(2, (Edge(0, 1, 1.0, cells=0),), _D2), "edge 0: nonpositive cell count 0"),
        (
            MetricGraph(2, (Edge(0, 1, 1.0, PoschlTeller(a=0.0, center=0.5)),), _D2),
            "edge 0: Poschl-Teller parameter must be positive",
        ),
        (
            MetricGraph(2, (Edge(0, 1, 1.0, Sampled((1.0,))),), _D2),
            "edge 0: sampled potential needs at least 2 values",
        ),
        (MetricGraph(2, (Edge(0, 1, 1.0),), {0: DIRICHLET, 1: "robin"}), "vertex 1: unknown boundary condition 'robin'"),
        (MetricGraph(2, (Edge(0, 1, 1.0),), {**_D2, 7: DIRICHLET}), "boundary condition on unknown vertex 7"),
    ],
    ids=[
        "no-vertices", "no-edges", "alpha", "endpoint", "cells", "poschl-teller", "sampled", "unknown-bc",
        "bc-unknown-vertex",
    ],
)
def test_validate_reports_each_problem(graph, message):
    assert message in validate(graph).errors


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
_WELL = SquareWell(depth=-12.0, left=0.5 * (math.pi - 2.0), right=0.5 * (math.pi + 2.0))
_TREE = MetricGraph(
    5, (Edge(0, 1, 1.2), Edge(0, 2, 0.8), Edge(2, 3, 1.5), Edge(2, 4, 1.0)), {1: DIRICHLET, 3: DIRICHLET, 4: DIRICHLET}
)

#: Each fixture file with the builder call ``fixtures/README.md`` gives for it.
FIXTURE_BUILDERS = {
    "interval_unit": lambda: families.interval(1.0),
    "balloon_pi": families.balloon,
    "fancy_balloon_3": lambda: families.fancy_balloon(3),
    "pt_balloon": lambda: families.poschl_teller_balloon(60.0),
    "pt_interval": lambda: families.poschl_teller_interval(40.0),
    "y_graph": families.y_graph,
    "circle_two_leads": families.circle_with_leads,
    "loop_leads_well": lambda: families.circle_with_leads(lead=20.0, well=_WELL),
    "wheatstone_balanced": families.wheatstone,
    "wheatstone_unbalanced": lambda: families.wheatstone(arms=(2.0, 1.0, 1.0, 1.0)),
    "hash_graph": lambda: families.hash_graph()[0],
    "tree_well": lambda: families.with_square_well(_TREE, 2, -14.0, 0.7),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_fixture_file_matches_its_builder(tmp_path, name):
    path = os.path.join(FIXTURES, f"{name}.json")
    with open(path, "rb") as fh:
        expected = fh.read()
    save_graph(load_graph(path), tmp_path / "roundtrip.json")
    assert (tmp_path / "roundtrip.json").read_bytes() == expected
    save_graph(FIXTURE_BUILDERS[name](), tmp_path / "built.json")
    assert (tmp_path / "built.json").read_bytes() == expected


def test_validate_reports_out_of_range_endpoint_without_raising():
    g = MetricGraph(2, (Edge(0, 1, 1.0), Edge(1, 5, 1.0)), {0: DIRICHLET})
    assert validate(g).errors == ["edge 1: endpoint out of range (1, 5)"]


@pytest.mark.parametrize("key, value", [("to", 1.9), ("from", True), ("to", "2")])
def test_non_integer_endpoint_rejected(key, value):
    # int() once turned these into vertices 1, 1 and 2
    d = graph_to_dict(families.star([1.0, 1.0]))
    d["edges"][1][key] = value
    with pytest.raises(GraphFormatError, match=f"edges\\[1\\]: '{key}' must be an integer"):
        graph_from_dict(d)


def test_unhashable_potential_type_rejected():
    d = graph_to_dict(families.interval())
    d["edges"][0]["potential"] = {"type": ["zero"]}
    with pytest.raises(GraphFormatError, match="unknown potential type"):
        graph_from_dict(d)


def _sampled(values):
    return {"type": "sampled", "values": values}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["edges"][0].update(length=True), "edges[0]: 'length' must be a number, got True"),
        (lambda d: d["edges"][0].update(length="1.5"), "edges[0]: 'length' must be a number, got '1.5'"),
        (lambda d: d["edges"][0].pop("length"), "edges[0]: 'length' must be a number, got None"),
        (lambda d: d["edges"][0].update(length=10**400), "edges[0]: 'length' must fit a float"),
        (lambda d: d.update(alpha="2"), "top level: 'alpha' must be a number, got '2'"),
        (lambda d: d.update(alpha=False), "top level: 'alpha' must be a number, got False"),
        (
            lambda d: d["edges"][0].update(potential=_sampled("123")),
            "edges[0]: potential 'values' must be a list of numbers, got '123'",
        ),
        (
            lambda d: d["edges"][0].update(potential=_sampled([0.0, True])),
            "edges[0]: potential 'values' entry must be a number, got True",
        ),
        (
            lambda d: d["edges"][0].update(potential={"type": "poschl_teller", "a": "2", "center": 0.5}),
            "edges[0]: potential 'a' must be a number, got '2'",
        ),
    ],
    ids=["length-bool", "length-str", "length-missing", "length-huge", "alpha-str", "alpha-bool", "sampled-str",
         "sampled-bool", "pt-str"],
)
def test_non_number_field_rejected(mutate, message):
    # float() once turned True into 1.0, "2" into 2.0 and "123" into (1.0, 2.0, 3.0)
    d = graph_to_dict(families.interval())
    mutate(d)
    with pytest.raises(GraphFormatError) as exc:
        graph_from_dict(d)
    assert str(exc.value) == message


def test_integer_fields_load_as_floats():
    d = graph_to_dict(families.interval())
    d["alpha"] = 2
    d["edges"][0].update(length=3, potential=_sampled([0, -1, 2]))
    g = graph_from_dict(d)
    assert (g.alpha, g.edges[0].length, g.edges[0].potential) == (2.0, 3.0, Sampled((0.0, -1.0, 2.0)))
    assert {type(x) for x in (g.alpha, g.edges[0].length, *g.edges[0].potential.values)} == {float}


def test_split_at_jumps_cuts_each_edge_into_its_constant_pieces():
    # a well inside edge 0 (three pieces), one over
    # the start of edge 1 (two pieces; the part outside the edge is dropped)
    # and a zero edge, which is kept as it is
    graph = MetricGraph(
        3,
        (Edge(0, 1, 2.0, SquareWell(-3.0, 0.5, 1.5)), Edge(1, 2, 1.0, SquareWell(4.0, -1.0, 0.25)),
         Edge(0, 2, 1.5)),
        {},
        0.7,
    )
    split = split_at_jumps(graph)
    assert split.num_vertices == 6 and split.alpha == 0.7 and split.boundary == {}
    assert split.edges == (
        Edge(0, 3, 0.5, ZERO), Edge(3, 4, 1.0, SquareWell(-3.0, 0.0, 1.0)), Edge(4, 1, 0.5, ZERO),
        Edge(1, 5, 0.25, SquareWell(4.0, 0.0, 0.25)), Edge(5, 2, 0.75, ZERO), Edge(0, 2, 1.5),
    )
    assert split_at_jumps(split) is split
    assert split_with_sources(graph) == (split, (0, 0, 0, 1, 1, 2))
    assert split_with_sources(split) == (split, (0, 1, 2, 3, 4, 5))
    assert split.potential_is_piecewise_constant()
    with pytest.raises(ValueError, match="edge 0: a poschl_teller potential is not piecewise constant"):
        split_at_jumps(families.poschl_teller_interval(5.0))
