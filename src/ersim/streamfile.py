"""Binary click-stream persistence (".ertt" files).

Little-endian layout:

    offset  size  field
    0       4     magic bytes "ERTT"
    4       2     format version (uint16), currently 1
    6       8     t_rep in integer nanoseconds (uint64)
    14      8     t_pulse in ns (uint64)
    22      8     t_coll in ns (uint64)
    30      8     record count (uint64)
    38      16*N  records: (shot_index uint64, t_within_shot_ns uint64)

Records are sorted by (shot_index, time).  Reading a file and writing it back
reproduces the bytes exactly; sub-nanosecond in-memory times do not occur
because the engine quantizes click tags at creation.  The shot count is not
part of the format, so it is inferred on read as max(shot_index) + 1.  The
reader checks only the format; the records are checked, as every
``ClickStream`` is, when the stream is made.

Records are read and written in chunks of 2**20 (16 MiB) through one reused
buffer, so a stream costs about the 16 bytes per record of its two int64
columns, whichever way it goes.  The file is not memory-mapped: mapped pages
count in the resident set just as a copy would.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .engine import _CHUNK, ClickStream, PulseSequence
from .errors import InvalidParameterError, StreamFormatError, StreamInvariantError

MAGIC = b"ERTT"
VERSION = 1
_HEADER = struct.Struct("<4sHQQQQ")


def write_clickstream(stream: ClickStream, path) -> None:
    """Write a stream; raises StreamFormatError on unrepresentable field values."""
    seq = stream.sequence
    for name, value in (("t_rep", seq.t_rep), ("t_pulse", seq.t_pulse), ("t_coll", seq.t_coll)):
        if abs(value * 1e9 - round(value * 1e9)) > 1e-3:
            raise StreamFormatError(f"{name} is not an integer number of nanoseconds")
    shots, times = stream.shot_indices, stream.times_ns
    count = len(stream)
    header = _HEADER.pack(MAGIC, VERSION, seq.t_rep_ns, seq.t_pulse_ns, seq.t_coll_ns, count)
    buf = np.empty((min(count, _CHUNK), 2), dtype="<u8")
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, count, _CHUNK):
            block = buf[: min(_CHUNK, count - lo)]
            block[:, 0] = shots[lo : lo + len(block)]
            block[:, 1] = times[lo : lo + len(block)]
            fh.write(block)


def _read_records(fh, count: int):
    """Read ``count`` records into two int64 columns, one chunk at a time."""
    shots = np.empty(count, dtype=np.int64)
    times = np.empty(count, dtype=np.int64)
    buf = np.empty((min(count, _CHUNK), 2), dtype="<u8")
    for lo in range(0, count, _CHUNK):
        block = buf[: min(_CHUNK, count - lo)]
        if fh.readinto(block) != block.nbytes:
            raise StreamFormatError("truncated record section: the file shrank while read")
        if block.max() >= 2**62:
            raise StreamFormatError("record field exceeds the supported range")
        shots[lo : lo + len(block)] = block[:, 0]
        times[lo : lo + len(block)] = block[:, 1]
    return shots, times


def read_clickstream(path) -> ClickStream:
    """Read a click-stream file.

    Raises StreamFormatError for bad magic, unsupported version, truncated or
    oversized record sections, field values beyond 2**62, an invalid pulse
    sequence, and records that break the ``ClickStream`` invariants (unsorted,
    or time tags outside ``[t_pulse, t_pulse + t_coll)``).
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise StreamFormatError("file shorter than the fixed header")
        magic, version, t_rep_ns, t_pulse_ns, t_coll_ns, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise StreamFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise StreamFormatError(f"unsupported format version {version}")
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body < 16 * count:
            raise StreamFormatError(f"truncated record section: {body} bytes for {count} records")
        if body > 16 * count:
            raise StreamFormatError("trailing bytes after the record section")
        shots, times = _read_records(fh, count)
    try:
        sequence = PulseSequence(
            t_pulse=t_pulse_ns * 1e-9,
            t_coll=t_coll_ns * 1e-9,
            t_rep=t_rep_ns * 1e-9,
            n_shots=int(shots.max()) + 1 if count else 1,
        )
        return ClickStream(shots, times, sequence)
    except InvalidParameterError as exc:
        raise StreamFormatError(f"invalid pulse sequence in header: {exc}") from exc
    except StreamInvariantError as exc:
        raise StreamFormatError(str(exc)) from exc
