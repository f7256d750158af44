import inspect

import pytest

from loopwalks import (FamilySpec, InvalidLoopPlacement, InvalidSpec,
                       SizeLimitExceeded, enumerate_all_graphs, generate,
                       is_connected, parse_graph, serialize_graph,
                       triangle_census)
from loopwalks.families import FAMILIES


def test_every_family_name_is_a_spec_constructor():
    for name in FAMILIES:
        constructor = getattr(FamilySpec, name)
        assert inspect.ismethod(constructor) and constructor.__self__ is FamilySpec


def test_petersen_shape():
    g = generate(FamilySpec.petersen())
    assert g.order == 10
    assert g.size == 15
    assert set(g.degrees) == {3}
    assert triangle_census(g)[0] == 0


@pytest.mark.parametrize("k", [2, 3])
def test_kneser_regularity(k):
    g = generate(FamilySpec.kneser(k))
    assert set(g.degrees) == {k + 1}


def test_kneser_requires_k_at_least_two():
    with pytest.raises(InvalidSpec):
        FamilySpec.kneser(1)


def test_generated_order_guard_is_every_readers_guard():
    from loopwalks import census, families, spectral
    assert families._MAX_GENERATED_ORDER == census._MAX_CENSUS_ORDER
    assert families._MAX_GENERATED_ORDER == spectral._MAX_DENSE_ORDER


def test_generate_refuses_past_order_640_before_building(monkeypatch):
    from loopwalks import families
    built = []
    monkeypatch.setattr(families, "build",
                        lambda *args: built.append(args[0]) or args[0])
    for spec in (FamilySpec.complete(640), FamilySpec.complete_bipartite(320, 320),
                 FamilySpec.kneser(5)):
        generate(spec)
    assert built == [640, 640, 462]
    for spec in (FamilySpec.complete(641), FamilySpec.complete_bipartite(320, 321),
                 FamilySpec.cycle(641), FamilySpec.kneser(6),
                 FamilySpec.kneser(10 ** 6, loops=(0, 5))):
        with pytest.raises(SizeLimitExceeded):
            generate(spec)
    assert built == [640, 640, 462]


def test_kneser_loop_range_is_checked_without_the_full_order():
    assert FamilySpec.kneser(3, loops=(34,)).loops == (34,)
    with pytest.raises(InvalidSpec):
        FamilySpec.kneser(3, loops=(35,))
    # the Kneser graph at k = 12 has order C(25, 12) = 5,200,300
    assert FamilySpec.kneser(12, loops=(10 ** 6,)).loops == (10 ** 6,)
    with pytest.raises(InvalidSpec):
        FamilySpec.kneser(12, loops=(10 ** 7,))
    assert FamilySpec.kneser(10 ** 6, loops=(10 ** 9,)).k == 10 ** 6


def test_closed_forms_keep_working_on_specs_too_large_to_generate():
    from loopwalks import closed_form_w3, closed_form_w4
    n = 10 ** 6
    assert closed_form_w4(FamilySpec.complete(n)) == (
        n * (n - 1) * (2 * n - 3) + n * (n - 1) * (n - 2) * (n - 3))
    assert closed_form_w3(FamilySpec.kneser(n, loops=(0, 1))) == 2 * (3 * n + 4)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_wheel_shape(n):
    g = generate(FamilySpec.wheel(n))
    assert g.size == 2 * (n - 1)
    if n >= 5:
        assert triangle_census(g)[0] == n - 1
    assert g.degrees[0] == n - 1


def test_bipartite_is_triangle_free():
    for a, b in ((1, 4), (2, 3), (3, 3)):
        g = generate(FamilySpec.complete_bipartite(a, b))
        assert triangle_census(g) == (0, 0, 0, 0)


def test_bipartite_structured_placement():
    spec = FamilySpec.complete_bipartite(2, 3, sigma_a=1, sigma_b=2)
    assert spec.loops == (0, 2, 3)
    assert spec.part_loop_counts() == (1, 2)


def test_bipartite_rejects_oversized_parts():
    with pytest.raises(InvalidLoopPlacement):
        FamilySpec.complete_bipartite(2, 3, sigma_a=3)


def test_wheel_structured_placement():
    spec = FamilySpec.wheel(5, center_looped=True, rim_loops=2)
    assert spec.loops == (0, 1, 2)
    assert spec.center_looped
    assert not FamilySpec.wheel(5, rim_loops=2).center_looped


def test_cycle_and_path_shapes():
    c = generate(FamilySpec.cycle(6))
    assert c.size == 6 and set(c.degrees) == {2}
    p = generate(FamilySpec.path(6))
    assert p.size == 5 and sorted(p.degrees) == [1, 1, 2, 2, 2, 2]


def test_single_vertex_path():
    g = generate(FamilySpec.path(1, loops=(0,)))
    assert g.order == 1 and g.size == 0 and g.sigma == 1


@pytest.mark.parametrize("bad", [
    lambda: FamilySpec.cycle(2),
    lambda: FamilySpec.wheel(3),
    lambda: FamilySpec.star(1),
    lambda: FamilySpec.complete(0),
    lambda: FamilySpec.complete_bipartite(0, 2),
    lambda: FamilySpec.complete(3, loops=(3,)),
    lambda: FamilySpec.complete(3, loops=(1, 1)),
    lambda: FamilySpec.path(0),
    lambda: FamilySpec.wheel(5, rim_loops=5),
    lambda: FamilySpec.star(4, leaf_loops=4),
    lambda: FamilySpec.cycle(4).part_loop_counts(),
    lambda: FamilySpec.path(3).center_looped,
])
def test_invalid_specs_rejected(bad):
    with pytest.raises((InvalidSpec, InvalidLoopPlacement)):
        bad()


def test_generated_graphs_round_trip_through_file_format():
    specs = [
        FamilySpec.complete(4, loops=(0, 1, 3)),
        FamilySpec.complete_bipartite(2, 3, sigma_a=1, sigma_b=2),
        FamilySpec.cycle(5, loops=(0, 2)),
        FamilySpec.path(8, loops=(1, 2, 4, 6)),
        FamilySpec.wheel(6, center_looped=True, rim_loops=2),
        FamilySpec.star(5, leaf_loops=3),
        FamilySpec.petersen(loops=(1,)),
        FamilySpec.kneser(3),
    ]
    for spec in specs:
        g = generate(spec)
        assert parse_graph(serialize_graph(g)) == g


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 64), (4, 1024)])
def test_enumeration_counts(n, expected):
    assert sum(1 for _ in enumerate_all_graphs(n)) == expected


def test_enumeration_count_n5():
    assert sum(1 for _ in enumerate_all_graphs(5)) == 32768


def test_enumeration_connected_filter():
    # 4 connected skeletons on 3 vertices, each with its 8 loop subsets
    assert sum(1 for _ in filter(is_connected, enumerate_all_graphs(3))) == 4 * 8


def test_enumeration_guard():
    with pytest.raises(SizeLimitExceeded):
        next(enumerate_all_graphs(6))
    with pytest.raises(InvalidSpec):
        next(enumerate_all_graphs(0))


def test_enumeration_is_deterministic():
    first = [(g.edges, g.loops) for g in enumerate_all_graphs(3)]
    second = [(g.edges, g.loops) for g in enumerate_all_graphs(3)]
    assert first == second
    assert len(set(first)) == len(first)
