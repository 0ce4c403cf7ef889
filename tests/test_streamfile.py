import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenarios
from ersim import streamfile
from ersim.engine import _CHUNK, ClickStream, PulseSequence, run_lifetime, validate_click_stream
from ersim.errors import InvalidParameterError, StreamFormatError
from ersim.streamfile import read_clickstream, write_clickstream


def sample_stream(n_shots=200, seed=3, mean=0.7):
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean, size=n_shots)
    shots = np.repeat(np.arange(n_shots), counts)
    times = 1000 + rng.integers(0, 20_000, size=len(shots))
    order = np.lexsort((times, shots))
    seq = PulseSequence(1e-6, 20e-6, 60e-6, n_shots)
    return ClickStream(np.column_stack((shots[order], times[order])), seq)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRoundTrip:
    def test_empty_stream(self, tmp_path):
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 1)
        path = tmp_path / "empty.ertt"
        write_clickstream(ClickStream(np.column_stack(([], [])), seq), path)
        back = read_clickstream(path)
        assert len(back) == 0
        assert back.sequence.t_rep_ns == 60_000
        second = tmp_path / "empty2.ertt"
        write_clickstream(back, second)
        assert digest(path) == digest(second)

    def test_fields_survive(self, tmp_path):
        stream = sample_stream()
        path = tmp_path / "s.ertt"
        write_clickstream(stream, path)
        back = read_clickstream(path)
        assert np.array_equal(back.shot_indices, stream.shot_indices)
        assert np.array_equal(back.times_ns, stream.times_ns)
        assert back.sequence.t_pulse_ns == stream.sequence.t_pulse_ns
        assert back.sequence.t_coll_ns == stream.sequence.t_coll_ns
        assert back.sequence.t_rep_ns == stream.sequence.t_rep_ns

    def test_read_write_is_byte_identity(self, tmp_path):
        stream = sample_stream(1000, seed=9)
        first = tmp_path / "a.ertt"
        second = tmp_path / "b.ertt"
        write_clickstream(stream, first)
        write_clickstream(read_clickstream(first), second)
        assert digest(first) == digest(second)

    def test_million_record_digest_roundtrip(self, tmp_path):
        stream = sample_stream(800_000, seed=12, mean=1.25)
        assert len(stream) > 1_000_000
        first = tmp_path / "big.ertt"
        write_clickstream(stream, first)
        second = tmp_path / "big2.ertt"
        write_clickstream(read_clickstream(first), second)
        assert digest(first) == digest(second)

    def test_engine_stream_roundtrip(self, tmp_path):
        cfg = scenarios.lifetime_config(seed=5, n_shots=5000)
        stream = run_lifetime(cfg)
        path = tmp_path / "engine.ertt"
        write_clickstream(stream, path)
        back = read_clickstream(path)
        assert np.array_equal(back.times_ns, stream.times_ns)
        validate_click_stream(back)

    def test_hour_scale_period_reads_back(self, tmp_path):
        # 9554173266933 * 1e-9 * 1e9 is more than 1e-3 from a whole number; / 1e9 is not
        seq = PulseSequence(1e-6, 20e-6, 9554.173266933, 3)
        path = tmp_path / "long.ertt"
        write_clickstream(ClickStream(np.column_stack(([2], [2000])), seq), path)
        assert read_clickstream(path).sequence.t_rep_ns == 9_554_173_266_933

    def test_long_period_headers_read_back_and_rewrite(self, tmp_path):
        # whole-ns times with periods log-uniform in [1e13, 2**48) ns, where a
        # 1e-3 ns tolerance would be finer than float64 resolution
        rng = np.random.default_rng(48)
        rep = np.exp(rng.uniform(np.log(1e13), np.log(2**48), 20_000)).astype(np.int64)
        rep = np.minimum(rep, 2**48 - 1)
        rep[:3] = 10**13, 2**47, 2**48 - 1
        coll = rng.integers(1, rep)
        pulse = rng.integers(1, rep - coll + 1)
        first, second = tmp_path / "a.ertt", tmp_path / "b.ertt"
        for k, (p, c, r) in enumerate(zip(pulse.tolist(), coll.tolist(), rep.tolist())):
            seq = PulseSequence(p / 1e9, c / 1e9, r / 1e9, 1)   # as the reader builds it
            assert (seq.t_pulse_ns, seq.t_coll_ns, seq.t_rep_ns) == (p, c, r)
            if k < 200:
                write_clickstream(ClickStream(np.array([[0, p]]), seq), first)
                back = read_clickstream(first)
                write_clickstream(back, second)
                assert back.sequence == seq
                assert first.read_bytes() == second.read_bytes()

    def test_shot_count_inferred_from_last_record(self, tmp_path):
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 50)
        stream = ClickStream(np.column_stack(([0, 7], [2000, 2500])), seq)
        path = tmp_path / "trail.ertt"
        write_clickstream(stream, path)
        assert read_clickstream(path).sequence.n_shots == 8

    def test_last_shot_below_two_to_the_62_reads_back(self, tmp_path):
        # PulseSequence allows at most 2**62 shots, so the last index is 2**62 - 1
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 2**62)
        path = tmp_path / "far.ertt"
        write_clickstream(ClickStream(np.array([[0, 2000], [2**62 - 1, 2500]]), seq), path)
        assert read_clickstream(path).sequence.n_shots == 2**62
        data = bytearray(path.read_bytes())
        data[54:62] = (2**62).to_bytes(8, "little")  # shot field of record 1
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="n_shots"):
            read_clickstream(path)


class TestRejection:
    def make_file(self, tmp_path, name="v.ertt"):
        path = tmp_path / name
        write_clickstream(sample_stream(20, seed=1), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="magic"):
            read_clickstream(path)

    def test_unsupported_version(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[4] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="version"):
            read_clickstream(path)

    def test_truncated_records(self, tmp_path):
        path = self.make_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(StreamFormatError, match="truncated"):
            read_clickstream(path)

    def test_truncated_header(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(StreamFormatError, match="header"):
            read_clickstream(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"xy")
        with pytest.raises(StreamFormatError, match="trailing"):
            read_clickstream(path)

    def test_unsorted_records(self, tmp_path):
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 50)
        good = ClickStream(np.column_stack(([3, 7], [2000, 2500])), seq)
        path = tmp_path / "u.ertt"
        write_clickstream(good, path)
        data = bytearray(path.read_bytes())
        # swap the two 16-byte records
        data[38:54], data[54:70] = data[54:70], data[38:54]
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="sorted"):
            read_clickstream(path)

    def test_time_beyond_repetition_period(self, tmp_path):
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 50)
        stream = ClickStream(np.column_stack(([3], [2000])), seq)
        path = tmp_path / "t.ertt"
        write_clickstream(stream, path)
        data = bytearray(path.read_bytes())
        data[46:54] = (70_000).to_bytes(8, "little")  # time field of record 0
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="after the collection window"):
            read_clickstream(path)

    def test_time_after_collection_window(self, tmp_path):
        # 30 us lies inside t_rep = 60 us but after the 1 us + 20 us window
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 50)
        path = tmp_path / "late.ertt"
        write_clickstream(ClickStream(np.column_stack(([3], [2000])), seq), path)
        data = bytearray(path.read_bytes())
        data[46:54] = (30_000).to_bytes(8, "little")  # time field of record 0
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="after the collection window"):
            read_clickstream(path)

    def test_short_read_of_the_records_rejected(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was checked: fstat reports one record more
        path = self.make_file(tmp_path)
        real_fstat = os.fstat

        def grown(fd):
            st = real_fstat(fd)
            return os.stat_result((*st[:6], st.st_size + 16, *st[7:]))

        monkeypatch.setattr(os, "fstat", grown)
        data = bytearray(path.read_bytes())
        data[30:38] = (int.from_bytes(data[30:38], "little") + 1).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(StreamFormatError, match="shrank while read"):
            read_clickstream(path)

    def test_unwritable_sequence_rejected(self):
        # the header holds whole nanoseconds, so no sequence it cannot hold is made
        with pytest.raises(InvalidParameterError, match="whole number of nanoseconds"):
            PulseSequence(1e-6, 20e-6, 60e-6 + 0.4e-9, 5)


class TestFuzzing:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutations_never_crash_or_misparse(self, data, tmp_path_factory):
        base_dir = tmp_path_factory.mktemp("fuzz")
        path = base_dir / "f.ertt"
        write_clickstream(sample_stream(12, seed=2), path)
        raw = bytearray(path.read_bytes())
        n_mutations = data.draw(st.integers(1, 4))
        for _ in range(n_mutations):
            pos = data.draw(st.integers(0, len(raw) - 1))
            raw[pos] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(raw))
        try:
            stream = read_clickstream(path)
        except StreamFormatError:
            return
        # accepted: the parsed stream must satisfy the stream invariants
        validate_click_stream(stream)

    @settings(max_examples=100)
    @given(blob=st.binary(min_size=0, max_size=200))
    def test_arbitrary_bytes_never_crash(self, blob, tmp_path_factory):
        path = tmp_path_factory.mktemp("junk") / "j.ertt"
        path.write_bytes(blob)
        try:
            read_clickstream(path)
        except StreamFormatError:
            pass


BOUNDARY_RECORDS = _CHUNK + 3
MiB = 2**20


def record_offset(k):
    return 38 + 16 * k


class TestChunkBoundaries:
    """A stream of ``_CHUNK`` + 3 records: one full validator window and a partial one."""

    @pytest.fixture(scope="class")
    def boundary_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chunks") / "boundary.ertt"
        write_clickstream(scenarios.paired_stream(BOUNDARY_RECORDS), path)
        return path

    def patched(self, boundary_file, tmp_path, edit):
        data = bytearray(boundary_file.read_bytes())
        edit(data)
        path = tmp_path / "patched.ertt"
        path.write_bytes(bytes(data))
        return path

    def test_roundtrip_is_byte_exact(self, boundary_file, tmp_path):
        stream = read_clickstream(boundary_file)
        assert len(stream) == BOUNDARY_RECORDS
        expected = scenarios.paired_stream(BOUNDARY_RECORDS)
        assert np.array_equal(stream.shot_indices, expected.shot_indices)
        assert np.array_equal(stream.times_ns, expected.times_ns)
        second = tmp_path / "again.ertt"
        write_clickstream(stream, second)
        assert digest(second) == digest(boundary_file)

    def test_sort_break_across_the_chunk_boundary_rejected(self, boundary_file, tmp_path):
        def swap(data):
            a, b = record_offset(_CHUNK - 1), record_offset(_CHUNK)
            data[a : a + 16], data[b : b + 16] = data[b : b + 16], data[a : a + 16]

        with pytest.raises(StreamFormatError, match="sorted"):
            read_clickstream(self.patched(boundary_file, tmp_path, swap))

    def test_out_of_range_field_in_the_last_partial_chunk_rejected(self, boundary_file, tmp_path):
        def huge_last_shot(data):
            a = record_offset(BOUNDARY_RECORDS - 1)
            data[a : a + 8] = (2**62).to_bytes(8, "little")

        with pytest.raises(StreamFormatError, match="n_shots"):
            read_clickstream(self.patched(boundary_file, tmp_path, huge_last_shot))

    def test_tag_past_the_window_in_the_final_record_rejected(self, boundary_file, tmp_path):
        def late_last_time(data):
            a = record_offset(BOUNDARY_RECORDS - 1) + 8
            data[a : a + 8] = (21_000).to_bytes(8, "little")

        with pytest.raises(StreamFormatError, match="after the collection window"):
            read_clickstream(self.patched(boundary_file, tmp_path, late_last_time))


class TestShotCount:
    """``n_shots`` is the last record's shot plus 1; the column max is taken only on rejection."""

    def written(self, tmp_path, order):
        """A file of the records with shots 0, 3 and 7, in the given order."""
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 50)
        path = tmp_path / "s.ertt"
        write_clickstream(ClickStream(np.column_stack(([0, 3, 7], [2000, 2500, 3000])), seq), path)
        data = path.read_bytes()
        records = [data[record_offset(k) : record_offset(k + 1)] for k in order]
        path.write_bytes(data[: record_offset(0)] + b"".join(records))
        return path

    def shot_counts_tried(self, monkeypatch):
        tried, real = [], streamfile.PulseSequence

        def recording(**fields):
            tried.append(fields["n_shots"])
            return real(**fields)

        monkeypatch.setattr(streamfile, "PulseSequence", recording)
        return tried

    def test_sorted_file_takes_the_last_shot_alone(self, tmp_path, monkeypatch):
        tried = self.shot_counts_tried(monkeypatch)
        stream = read_clickstream(self.written(tmp_path, [0, 1, 2]))
        assert tried == [8] and stream.sequence.n_shots == 8

    def test_last_record_below_the_largest_shot_is_unsorted(self, tmp_path, monkeypatch):
        tried = self.shot_counts_tried(monkeypatch)
        with pytest.raises(StreamFormatError, match="sorted"):
            read_clickstream(self.written(tmp_path, [0, 2, 1]))   # shots 0, 7, 3
        assert tried == [4, 8]   # the last shot, then the column max


class TestMemoryBounds:
    """tracemalloc peaks on 2e6 records: the records, read in place, and no copy of them."""

    N_RECORDS = 2_000_000

    def test_read_holds_the_records_and_the_validator_buffers(self, tmp_path):
        path = tmp_path / "m.ertt"
        write_clickstream(scenarios.paired_stream(self.N_RECORDS), path)
        stream, peak = scenarios.traced_peak(read_clickstream, path)
        assert len(stream) == self.N_RECORDS
        # the validator's int64 window copies (a window's shot copy is made while the last
        # window's two are held: about 0.8 MiB), its bool comparisons, and room to spare
        assert peak <= 16 * self.N_RECORDS + 3 * MiB

    def test_write_allocates_no_copy_of_the_records(self, tmp_path):
        stream = scenarios.paired_stream(self.N_RECORDS)
        _, peak = scenarios.traced_peak(write_clickstream, stream, tmp_path / "m.ertt")
        assert peak <= MiB
