"""Lazy section decode: packed neighbor entries, unpacked on access.

``decode_section`` keeps each run of neighbor entries packed and unpacks
an entry only when a reader indexes or iterates it. These tests pin that
against an eager reference decoder (every entry unpacked up front, one
4-byte word at a time) and check that the die sampler's unpack work
follows its draws, not the node's degree.
"""

import pytest

from repro.directgraph import (
    ADDRESS_BYTES,
    AddressCodec,
    FormatSpec,
    PRIMARY_HEADER_BYTES,
    PrimarySectionView,
    SECONDARY_HEADER_BYTES,
    SECTION_TYPE_PRIMARY,
    SecondarySectionView,
    build_directgraph,
    decode_section,
)
from repro.gnn import DenseFeatureTable, Graph, power_law_graph
from repro.isc import CommandKind, DieSampler, GnnTaskConfig, SamplingCommand

DIM = 4


def eager_decode(spec, raw, index):
    """Reference decoder: unpacks every entry of the section up front."""
    at = int.from_bytes(raw[2 + 2 * index : 4 + 2 * index], "little")
    size = int.from_bytes(raw[at + 2 : at + 4], "little")
    node_id = int.from_bytes(raw[at + 4 : at + 8], "little")

    def entries(cursor, count):
        return [
            spec.codec.unpack_bytes(bytes(raw[c : c + ADDRESS_BYTES]))
            for c in range(cursor, cursor + ADDRESS_BYTES * count, ADDRESS_BYTES)
        ]

    if raw[at] == SECTION_TYPE_PRIMARY:
        growth_free = raw[at + 1]
        n_secondary = int.from_bytes(raw[at + 12 : at + 14], "little")
        n_inline = int.from_bytes(raw[at + 14 : at + 16], "little")
        cursor = at + PRIMARY_HEADER_BYTES
        secondary = entries(cursor, n_secondary)
        cursor += ADDRESS_BYTES * (n_secondary + growth_free)
        feature = bytes(raw[cursor : cursor + spec.feature_bytes])
        cursor += spec.feature_bytes
        return PrimarySectionView(
            node_id=node_id,
            neighbor_count=int.from_bytes(raw[at + 8 : at + 12], "little"),
            n_inline=n_inline,
            secondary_addrs=secondary,
            feature_bytes=feature,
            inline_neighbor_addrs=entries(cursor, n_inline),
            section_len=size,
            growth_slots_free=growth_free,
        )
    count = int.from_bytes(raw[at + 8 : at + 10], "little")
    return SecondarySectionView(
        node_id=node_id,
        neighbor_count=count,
        neighbor_addrs=entries(at + SECONDARY_HEADER_BYTES, count),
        section_len=size,
    )


def build(graph, page_size=512, growth_slots=0):
    spec = FormatSpec(page_size=page_size, feature_dim=DIM, growth_slots=growth_slots)
    features = DenseFeatureTable.random(graph.num_nodes, DIM, seed=0)
    return build_directgraph(graph, features, spec)


def hub_graph(degree, tail=20):
    """Node 0 has ``degree`` neighbors; the rest are small."""
    lists = [[j % tail for j in range(degree)]] + [[0, 1]] * (tail - 1)
    return Graph.from_neighbor_lists(lists)


def all_sections(image):
    for page in image.page_plans:
        raw = image.page_bytes(page.page_index)
        for index in range(raw[1]):
            yield raw, index


IMAGES = {
    "power-law-512": lambda: build(power_law_graph(80, 10.0, seed=11), 512),
    "power-law-1024": lambda: build(power_law_graph(80, 10.0, seed=11), 1024),
    "power-law-4096": lambda: build(power_law_graph(80, 10.0, seed=11), 4096),
    "hub-300-512": lambda: build(hub_graph(300), 512),
    "hub-1500-4096": lambda: build(hub_graph(1500), 4096),
    "hub-300-growth": lambda: build(hub_graph(300), 512, growth_slots=3),
}


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_every_section_matches_eager_decode(name):
    image = IMAGES[name]()
    spec = image.spec
    views = []
    for raw, index in all_sections(image):
        lazy = decode_section(spec, raw, index)
        eager = eager_decode(spec, raw, index)
        assert lazy == eager
        if isinstance(eager, PrimarySectionView):
            assert list(lazy.secondary_addrs) == eager.secondary_addrs
            assert list(lazy.inline_neighbor_addrs) == eager.inline_neighbor_addrs
        else:
            assert list(lazy.neighbor_addrs) == eager.neighbor_addrs
        views.append(eager)
    assert len(views) == sum(p.n_sections for p in image.page_plans)
    if name.startswith("hub"):
        assert any(isinstance(v, SecondarySectionView) for v in views)
    if "growth" in name:
        assert any(getattr(v, "growth_slots_free", 0) for v in views)


def _primary_of(image, node):
    addr = image.address_of(node)
    return image.page_bytes(addr.page), addr.section


class TestBehavesLikeList:
    def setup_method(self):
        self.image = build(hub_graph(300), 512)
        raw, section = _primary_of(self.image, 0)
        self.view = decode_section(self.image.spec, raw, section)
        self.eager = eager_decode(self.image.spec, raw, section)

    def test_len_index_and_negative_index(self):
        seq, ref = self.view.inline_neighbor_addrs, self.eager.inline_neighbor_addrs
        assert len(seq) == len(ref) > 10
        assert all(seq[i] == ref[i] for i in range(len(ref)))
        assert seq[-1] == ref[-1]
        assert seq[-len(ref)] == ref[0]

    def test_slices_return_lists(self):
        seq, ref = self.view.inline_neighbor_addrs, self.eager.inline_neighbor_addrs
        cuts = (slice(None), slice(2, 5), slice(None, None, -2), slice(10, 3), slice(-4, None))
        for cut in cuts:
            assert seq[cut] == ref[cut]
            assert isinstance(seq[cut], list)

    def test_iteration_truthiness_and_equality(self):
        seq, ref = self.view.secondary_addrs, self.eager.secondary_addrs
        assert list(seq) == ref
        assert bool(seq) and seq == ref and ref == seq
        assert seq != ref[:-1]
        assert seq != tuple(ref)
        assert ref[0] in seq
        small = decode_section(self.image.spec, *_primary_of(self.image, 1))
        assert not small.secondary_addrs
        assert small.secondary_addrs == []

    def test_index_past_the_end_raises(self):
        seq = self.view.inline_neighbor_addrs
        with pytest.raises(IndexError):
            seq[len(seq)]
        with pytest.raises(IndexError):
            seq[-len(seq) - 1]


def test_sampler_unpacks_only_the_entries_its_draws_read(monkeypatch):
    """Decode work follows the sampler's draws, not the node's degree."""
    image = build(hub_graph(300), 512)
    config = GnnTaskConfig(num_hops=2, fanout=4, feature_dim=DIM, seed=0)
    sampler = DieSampler(image.spec, config)
    addr = image.address_of(0)
    command = SamplingCommand(
        kind=CommandKind.SAMPLE_PRIMARY, address=addr, target=0, hop=0, position=0
    )
    calls = []
    unpack = AddressCodec.unpack

    def counting_unpack(codec, value):
        calls.append(value)
        return unpack(codec, value)

    monkeypatch.setattr(AddressCodec, "unpack", counting_unpack)
    result = sampler.execute(image.page_bytes(addr.page), command)
    assert result.children
    assert len(calls) <= len(result.children)
