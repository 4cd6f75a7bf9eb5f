"""Fuzz tests: malformed pages never crash decoders or the die sampler.

Corrupted flash content must surface as DirectGraphFormatError (host
path) or SamplerFault (on-die path, Section VI-E's runtime check) —
never as a bare IndexError/ValueError/struct garbage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directgraph import (
    PAGE_TYPE_PRIMARY,
    SECTION_TYPE_PRIMARY,
    SECTION_TYPE_SECONDARY,
    DirectGraphFormatError,
    FormatSpec,
    SectionAddress,
    build_directgraph,
    decode_page,
    decode_section,
)
from repro.gnn import DenseFeatureTable, power_law_graph
from repro.isc import CommandKind, DieSampler, GnnTaskConfig, SamplerFault, SamplingCommand

SPEC = FormatSpec(page_size=512, feature_dim=4)


def built_image():
    graph = power_law_graph(40, 8.0, seed=3)
    feats = DenseFeatureTable.random(40, 4, seed=0)
    return graph, build_directgraph(graph, feats, SPEC)


class TestDecoderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(min_size=512, max_size=512))
    def test_random_page_never_crashes(self, data):
        try:
            decode_page(SPEC, data)
        except DirectGraphFormatError:
            pass  # rejection is the expected failure mode

    @settings(max_examples=40, deadline=None)
    @given(
        byte_offset=st.integers(min_value=0, max_value=511),
        new_value=st.integers(min_value=0, max_value=255),
        section=st.integers(min_value=0, max_value=15),
    )
    def test_single_byte_corruption_contained(self, byte_offset, new_value, section):
        _graph, image = built_image()
        raw = bytearray(image.page_bytes(0))
        raw[byte_offset] = new_value
        try:
            decode_section(SPEC, bytes(raw), section)
        except DirectGraphFormatError:
            pass

    def test_wrong_size_page_rejected(self):
        with pytest.raises(DirectGraphFormatError):
            decode_page(SPEC, b"\x00" * 100)

    @settings(max_examples=30, deadline=None)
    @given(
        byte_offset=st.integers(min_value=0, max_value=511),
        new_value=st.integers(min_value=0, max_value=255),
    )
    def test_sampler_faults_cleanly_on_corruption(self, byte_offset, new_value):
        """The on-die path: corruption -> SamplerFault (or a valid read if
        the flipped byte was immaterial), never anything else."""
        _graph, image = built_image()
        config = GnnTaskConfig(num_hops=2, fanout=2, feature_dim=4, seed=0)
        sampler = DieSampler(image.spec, config)
        addr = image.address_of(0)
        raw = bytearray(image.page_bytes(addr.page))
        raw[byte_offset] = new_value
        command = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY,
            address=addr,
            target=0,
            hop=0,
            position=0,
        )
        try:
            sampler.execute(bytes(raw), command)
        except SamplerFault:
            pass


class TestSectionBounds:
    def page_with_overhanging_section(self):
        """One primary section at offset 492 declaring 24 B (header plus an
        8 B feature, no entries): it ends 4 B past the 512 B page."""
        raw = bytearray(SPEC.page_size)
        raw[0] = PAGE_TYPE_PRIMARY
        raw[1] = 1
        raw[2:4] = (492).to_bytes(2, "little")
        raw[492] = SECTION_TYPE_PRIMARY
        raw[494:496] = (24).to_bytes(2, "little")
        raw[496:500] = (7).to_bytes(4, "little")
        return bytes(raw)

    def test_section_past_page_end_rejected(self):
        raw = self.page_with_overhanging_section()
        with pytest.raises(DirectGraphFormatError, match="page end"):
            decode_section(SPEC, raw, 0)
        with pytest.raises(DirectGraphFormatError):
            decode_page(SPEC, raw)

    def test_sampler_faults_on_section_past_page_end(self):
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=4, seed=0)
        command = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY,
            address=SectionAddress(page=0, section=0),
            target=7,
            hop=0,
            position=0,
        )
        with pytest.raises(SamplerFault):
            DieSampler(SPEC, config).execute(
                self.page_with_overhanging_section(), command
            )

    # Headers that start inside the 512 B page and end past it: the
    # primary header is 16 B, the secondary 12 B.
    CUT_HEADERS = [
        (SECTION_TYPE_PRIMARY, 500),
        (SECTION_TYPE_PRIMARY, 510),
        (SECTION_TYPE_SECONDARY, 506),
        (SECTION_TYPE_SECONDARY, 510),
    ]

    def page_with_cut_header(self, stype, offset):
        raw = bytearray(SPEC.page_size)
        raw[0] = PAGE_TYPE_PRIMARY
        raw[1] = 1
        raw[2:4] = offset.to_bytes(2, "little")
        raw[offset] = stype
        return bytes(raw)

    @pytest.mark.parametrize("stype, offset", CUT_HEADERS)
    def test_header_cut_by_page_end_rejected(self, stype, offset):
        raw = self.page_with_cut_header(stype, offset)
        with pytest.raises(DirectGraphFormatError):
            decode_section(SPEC, raw, 0)
        with pytest.raises(DirectGraphFormatError):
            decode_page(SPEC, raw)

    @pytest.mark.parametrize("stype, offset", CUT_HEADERS)
    def test_sampler_faults_on_header_cut_by_page_end(self, stype, offset):
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=4, seed=0)
        secondary = stype == SECTION_TYPE_SECONDARY
        command = SamplingCommand(
            kind=CommandKind.SAMPLE_SECONDARY if secondary else CommandKind.SAMPLE_PRIMARY,
            address=SectionAddress(page=0, section=0),
            target=7,
            hop=0,
            position=0,
            draws=((0, 0),) if secondary else (),
        )
        with pytest.raises(SamplerFault):
            DieSampler(SPEC, config).execute(
                self.page_with_cut_header(stype, offset), command
            )
