"""The image holds its layout as arrays; plan objects are copies built from them.

Every lookup the run path makes (``address_of``, ``node_at``,
``secondary_addrs``) and the ``node_plans`` / ``page_plans`` copies
built from the arrays must agree with the per-node reference builder, and with the page
bytes themselves, on every node and section. The images cover 512 B and
4 KB pages, a 300-neighbor hub, growth slots, the locality layout, and
images that were relocated or grown in place afterwards.
"""

import gc
import types

import numpy as np
import pytest

from repro.directgraph import (
    FormatSpec,
    NodePlan,
    PagePlan,
    SectionAddress,
    build_directgraph,
    decode_page,
    layout_order,
)
from repro.directgraph._reference import build_directgraph_reference
from repro.directgraph.reader import PrimarySectionView
from repro.directgraph.updates import DirectGraphUpdater
from repro.gnn import DenseFeatureTable, Graph, power_law_graph
from repro.platforms import PreparedWorkload
from repro.ssd.reliability import relocate_image
from repro.workloads import workload_by_name

DIM = 8


def hub_graph():
    """Node 0 has 300 neighbors; its leaves point back at it."""
    lists = [[(j % 40) + 1 for j in range(300)]]
    lists += [[0, (i % 7) + 1] for i in range(40)]
    return Graph.from_neighbor_lists(lists)


GRAPHS = {
    "hub": hub_graph,
    "power-law": lambda: power_law_graph(300, 12.0, seed=3),
}

CASES = [
    (graph, page_size, growth_slots, layout)
    for graph in GRAPHS
    for page_size in (512, 4096)
    for growth_slots in (0, 2)
    for layout in ("node-order", "locality")
]


def build_both(graph_name, page_size, growth_slots, layout):
    graph = GRAPHS[graph_name]()
    features = DenseFeatureTable.random(graph.num_nodes, DIM, seed=0)
    spec = FormatSpec(page_size=page_size, feature_dim=DIM, growth_slots=growth_slots)
    order = layout_order(graph, layout)
    image = build_directgraph(graph, features, spec, order=order)
    ref = build_directgraph_reference(graph, features, spec, order=order)
    return graph, image, ref


def expected_from_bytes(image):
    """Node and page plans as the page bytes alone describe them."""
    nodes = {}
    pages = []
    for row, page_index in enumerate(image.page_index.tolist()):
        decoded = decode_page(image.spec, image.page_bytes(page_index))
        entries, sizes = [], []
        for section, view in enumerate(decoded.sections):
            owner = view.node_id
            if isinstance(view, PrimarySectionView):
                entries.append((owner, 1, 0))
                nodes[owner] = (view, SectionAddress(page_index, section))
            else:
                entries.append((owner, 2, None))  # ordinal filled below
            sizes.append(view.section_len)
        pages.append([page_index, decoded.page_type, entries, sizes])
    node_plans = []
    ordinal_of = {}
    for node in range(image.num_nodes):
        view, primary = nodes[node]
        secondaries = list(view.secondary_addrs)
        counts = []
        for ordinal, addr in enumerate(secondaries):
            ordinal_of[(addr.page, addr.section)] = ordinal
            sec = decode_page(image.spec, image.page_bytes(addr.page)).sections[
                addr.section
            ]
            counts.append(sec.neighbor_count)
        node_plans.append(
            NodePlan(
                node,
                view.neighbor_count,
                n_inline=view.n_inline,
                secondary_counts=counts,
                primary_addr=primary,
                secondary_addrs=secondaries,
            )
        )
    for page_index, _type, entries, _sizes in pages:
        for section, (owner, kind, _) in enumerate(entries):
            if kind == 2:
                entries[section] = (owner, kind, ordinal_of[(page_index, section)])
    return node_plans, pages


def assert_lookups_match(image, node_plans):
    """Run-path lookups agree with the given plans on every node and section."""
    assert len(image.node_plans) == len(node_plans)
    for plan in node_plans:
        node = plan.node_id
        assert image.address_of(node) == plan.primary_addr
        assert image.node_at(plan.primary_addr) == node
        assert image.secondary_addrs(node) == plan.secondary_addrs
        for addr in plan.secondary_addrs:
            assert image.node_at(addr) == node


def assert_matches_bytes(image):
    node_plans, pages = expected_from_bytes(image)
    assert list(image.node_plans) == node_plans
    assert [
        [p.page_index, p.page_type, p.entries, p.sizes] for p in image.page_plans
    ] == pages
    assert_lookups_match(image, node_plans)


@pytest.mark.parametrize("graph_name,page_size,growth_slots,layout", CASES)
class TestBuiltImages:
    def test_views_and_lookups_match_reference(
        self, graph_name, page_size, growth_slots, layout
    ):
        _graph, image, ref = build_both(graph_name, page_size, growth_slots, layout)
        assert image.node_plans == ref.node_plans
        assert image.page_plans == ref.page_plans
        assert image.stats == ref.stats
        assert image.pages == ref.pages
        assert_lookups_match(image, list(ref.node_plans))
        for name, array in ref.arrays().items():
            np.testing.assert_array_equal(getattr(image, name), array, err_msg=name)

    def test_views_match_page_bytes(self, graph_name, page_size, growth_slots, layout):
        _graph, image, _ref = build_both(graph_name, page_size, growth_slots, layout)
        assert_matches_bytes(image)

    def test_relocated_image(self, graph_name, page_size, growth_slots, layout):
        _graph, image, ref = build_both(graph_name, page_size, growth_slots, layout)
        mapping = {page: 1000 + 3 * page for page in range(image.num_pages)}
        moved = relocate_image(image, mapping)
        expected = []
        for plan in ref.node_plans:
            plan.primary_addr = SectionAddress(
                mapping[plan.primary_addr.page], plan.primary_addr.section
            )
            plan.secondary_addrs = [
                SectionAddress(mapping[a.page], a.section)
                for a in plan.secondary_addrs
            ]
            expected.append(plan)
        assert list(moved.node_plans) == expected
        assert [p.page_index for p in moved.page_plans] == [
            mapping[p.page_index] for p in ref.page_plans
        ]
        assert_lookups_match(moved, expected)
        assert_matches_bytes(moved)
        # the source image is left as it was
        assert image.node_plans == ref.node_plans
        with pytest.raises(KeyError):
            moved.node_at(SectionAddress(0, 0))


def updated_image(graph_name, page_size):
    graph, image, _ref = build_both(graph_name, page_size, 2, "node-order")
    base = image.num_pages
    # the spare pages are not contiguous with the built ones
    updater = DirectGraphUpdater(image, spare_ppas=range(base + 5, base + 40))
    cap = image.spec.max_secondary_neighbors
    updater.add_neighbors(0, [(i % 30) + 1 for i in range(cap + 5)])
    updater.add_neighbors(3, [1, 2, 3])
    updater.add_neighbors(5, [(i % 30) + 1 for i in range(cap)])
    return graph, image, updater


@pytest.mark.parametrize("page_size", (512, 4096))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestUpdatedImages:
    def test_views_follow_the_updated_bytes(self, graph_name, page_size):
        _graph, image, updater = updated_image(graph_name, page_size)
        assert updater.stats.sections_created >= 1
        assert image.num_pages > image.stats.total_pages
        assert_matches_bytes(image)

    def test_node_plans_record_the_additions(self, graph_name, page_size):
        graph, image, updater = updated_image(graph_name, page_size)
        for node, added in updater.added.items():
            plan = image.node_plans[node]
            assert plan.degree == graph.degree(node) + len(added)
            assert plan.n_inline + sum(plan.secondary_counts) == plan.degree

    def test_relocating_an_updated_image(self, graph_name, page_size):
        _graph, image, _updater = updated_image(graph_name, page_size)
        moved = relocate_image(image, {page: 5000 + page for page in image.pages})
        assert_matches_bytes(moved)


def reachable_from(root):
    """Every object reachable from ``root``, classes and modules aside."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        found.append(obj)
        for ref in gc.get_referents(obj):
            if isinstance(ref, (type, types.ModuleType)) or id(ref) in seen:
                continue
            seen.add(id(ref))
            stack.append(ref)
    return found


@pytest.mark.parametrize("source", ("built", "loaded"))
def test_prepared_image_holds_no_plan_objects(tmp_path, source):
    """A prepared image keeps arrays and page bytes, no per-node objects."""
    spec = workload_by_name("amazon").scaled(512)
    cache = tmp_path / "images"
    prepared = PreparedWorkload.prepare(spec, page_size=4096, image_cache=cache)
    if source == "loaded":
        prepared = PreparedWorkload.prepare(spec, page_size=4096, image_cache=cache)
    image = prepared.image
    objects = reachable_from(image)
    plan_objects = [
        obj for obj in objects if isinstance(obj, (NodePlan, PagePlan, SectionAddress))
    ]
    assert plan_objects == []
    # What the collector walks does not grow with the graph: the image,
    # its spec and the page dict, not one container per node or section.
    tracked = [obj for obj in objects if gc.is_tracked(obj)]
    assert len(tracked) < 16, sorted({type(obj).__name__ for obj in tracked})
    assert image.num_nodes == 512


def test_node_at_rejects_unknown_sections():
    _graph, image, _ref = build_both("power-law", 512, 0, "node-order")
    with pytest.raises(KeyError):
        image.node_at(SectionAddress(image.num_pages, 0))
    page = image.page_plans[0]
    with pytest.raises(KeyError):
        image.node_at(SectionAddress(page.page_index, page.n_sections))


def test_plan_copies_do_not_edit_the_image():
    _graph, image, ref = build_both("hub", 512, 0, "node-order")
    plan = image.node_plans[0]
    plan.secondary_counts.append(1)
    plan.primary_addr = SectionAddress(0, 15)
    image.page_plans[0].entries.clear()
    assert image.node_plans == ref.node_plans
    assert image.page_plans == ref.page_plans
