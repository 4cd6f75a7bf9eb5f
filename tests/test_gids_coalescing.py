"""Property tests for GIDS warp-level request coalescing.

:func:`repro.platforms.coalesce_warps` is a pure function over an
ordered request stream, so hypothesis can hammer it directly; the
simulator-level tests at the bottom pin the contract that coalescing is
a *timing* optimization only — the sampled subgraph is identical with it
on, off, or at any warp size, and runs stay deterministic under a fixed
counter-stream seed.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.orchestrate import CELL_DOC
from repro.orchestrate.cache import json_default
from repro.platforms import (
    PreparedWorkload,
    coalesce_warps,
    coalesced_pages,
    run_platform,
)
from repro.ssd import ull_ssd
from repro.workloads import workload_by_name

page_streams = st.lists(
    st.integers(min_value=0, max_value=40), min_size=0, max_size=200
)
warp_sizes = st.integers(min_value=1, max_value=64)


class TestPureProperties:
    @given(page_streams, warp_sizes)
    def test_coalesced_count_never_exceeds_raw(self, pages, warp_size):
        groups = coalesce_warps(pages, warp_size)
        assert len(groups) <= len(pages)
        # no request is dropped or duplicated
        assert sum(len(g) for g in groups) == len(pages)

    @given(page_streams, warp_sizes)
    def test_windows_partition_the_stream(self, pages, warp_size):
        """Each warp window's requests land in that window's groups, as a
        permutation; requests never merge across windows."""
        groups = coalesce_warps(pages, warp_size)
        flat = [page for group in groups for page in group]
        for start in range(0, len(pages), warp_size):
            window = pages[start : start + warp_size]
            assert sorted(flat[start : start + len(window)]) == sorted(window)

    @given(page_streams, warp_sizes)
    def test_groups_are_same_page_only(self, pages, warp_size):
        for group in coalesce_warps(pages, warp_size):
            assert len(set(group)) == 1

    @given(page_streams, warp_sizes)
    def test_leaders_unique_per_window(self, pages, warp_size):
        """One doorbell per distinct page per warp — never two."""
        # group leaders by the window their group started in
        by_window = {}
        consumed = 0
        for group in coalesce_warps(pages, warp_size):
            window = consumed // warp_size
            by_window.setdefault(window, []).append(group[0])
            consumed += len(group)
        for window, leaders in by_window.items():
            assert len(leaders) == len(set(leaders)), (window, leaders)

    @given(page_streams, warp_sizes)
    def test_deterministic(self, pages, warp_size):
        assert coalesce_warps(pages, warp_size) == coalesce_warps(
            pages, warp_size
        )

    @given(page_streams)
    def test_warp_size_one_reproduces_raw_sequence(self, pages):
        """Disabling coalescing degenerates to the identity stream."""
        assert coalesced_pages(pages, 1) == list(pages)
        assert coalesce_warps(pages, 1) == [[p] for p in pages]

    @given(page_streams, warp_sizes)
    def test_first_occurrence_order_preserved(self, pages, warp_size):
        """Leaders within a window keep the order their pages first
        appeared in — the doorbell sequence is a subsequence filter, not
        a sort."""
        for start in range(0, len(pages), warp_size):
            window = pages[start : start + warp_size]
            expected = list(dict.fromkeys(window))
            got = [g[0] for g in coalesce_warps(window, warp_size)]
            assert got == expected

    def test_rejects_bad_warp_size(self):
        with pytest.raises(ValueError):
            coalesce_warps([1, 2, 3], 0)


PARAMS = dict(batch_size=8, num_batches=2, num_hops=2, fanout=2, seed=0)


@pytest.fixture(scope="module")
def prepared():
    return PreparedWorkload.prepare(workload_by_name("ogbn").scaled(256))


def blob(result) -> bytes:
    return json.dumps(
        CELL_DOC.to_payload(result),
        sort_keys=True,
        separators=(",", ":"),
        default=json_default,
    ).encode()


class TestSimulatedCoalescing:
    def test_fixed_seed_runs_are_bit_identical(self, prepared):
        """Coalescing introduces no nondeterminism: the counter-stream
        seed fully determines the run."""
        first = run_platform("gids", prepared, **PARAMS)
        second = run_platform("gids", prepared, **PARAMS)
        assert blob(first) == blob(second)

    def test_disabling_coalescing_keeps_the_sampled_trees(self, prepared):
        """Coalescing only merges duplicate page reads; every thread
        still samples its own section, so the trace is invariant."""
        on = run_platform("gids", prepared, **PARAMS, sample_trace=True)
        off = run_platform(
            "gids",
            prepared,
            **PARAMS,
            sample_trace=True,
            ssd_config=ull_ssd().with_gpu(coalesce=False),
        )
        assert len(on.sample_trace) == len(off.sample_trace)
        for a, b in zip(on.sample_trace, off.sample_trace):
            assert np.array_equal(a, b)

    def test_disabling_coalescing_issues_the_raw_request_stream(
        self, prepared
    ):
        """coalesce=False rings one doorbell per command — the raw page
        sequence — while the default merges some and reads fewer pages."""
        on = run_platform("gids", prepared, **PARAMS)
        off = run_platform(
            "gids",
            prepared,
            **PARAMS,
            ssd_config=ull_ssd().with_gpu(coalesce=False),
        )
        assert off.meters.get("gpu_coalesced_requests") == 0
        merged = on.meters.get("gpu_coalesced_requests")
        assert merged > 0
        assert (
            on.meters.get("gpu_requests") + merged
            == off.meters.get("gpu_requests")
        )
        assert on.meters.get("flash_reads") < off.meters.get("flash_reads")

    def test_warp_size_one_matches_disabled(self, prepared):
        """warp_size=1 and coalesce=False are the same machine."""
        by_flag = run_platform(
            "gids",
            prepared,
            **PARAMS,
            ssd_config=ull_ssd().with_gpu(coalesce=False),
        )
        by_size = run_platform(
            "gids",
            prepared,
            **PARAMS,
            ssd_config=ull_ssd().with_gpu(warp_size=1),
        )
        assert by_flag.total_seconds == by_size.total_seconds
        assert (
            by_flag.meters.get("gpu_requests")
            == by_size.meters.get("gpu_requests")
        )
