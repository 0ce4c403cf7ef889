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

Records are sorted by (shot_index, time).  The record section is a
``ClickStream``'s ``records`` array byte for byte, so the writer writes the
header and then that array, and the reader reads the section into the array
it hands to the stream, with no buffer between.  Reading a file and writing
it back reproduces the bytes exactly; every time is a whole nanosecond, as the
engine quantizes click tags at creation and ``PulseSequence`` holds whole
nanoseconds.  The shot count is not part of the format, so it is inferred on
read as max(shot_index) + 1, taken as the last record's shot plus 1: sorted
shots end at their maximum, and the column maximum is taken only for a file
that is rejected, so that an unsorted one is reported as unsorted.  The
reader checks only the format; the records are checked, as every
``ClickStream`` is, when the stream is made, and the shot count is bounded,
as in every ``PulseSequence``, by 2**62.  The file is not memory-mapped:
mapped pages count in the resident set just as a copy would.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .engine import ClickStream, PulseSequence
from .errors import InvalidParameterError, StreamFormatError, StreamInvariantError

MAGIC = b"ERTT"
VERSION = 1
_HEADER = struct.Struct("<4sHQQQQ")


def write_clickstream(stream: ClickStream, path) -> None:
    """Write a stream: the header, then its records as little-endian int64."""
    seq = stream.sequence
    header = _HEADER.pack(MAGIC, VERSION, seq.t_rep_ns, seq.t_pulse_ns, seq.t_coll_ns, len(stream))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(stream.records.astype("<i8", copy=False))


def read_clickstream(path) -> ClickStream:
    """Read a click-stream file.

    Raises StreamFormatError for bad magic, unsupported version, truncated or
    oversized record sections, an invalid pulse sequence (a last shot at or
    beyond 2**62 gives more shots than ``PulseSequence`` allows), and records
    that break the ``ClickStream`` invariants (unsorted, negative shots, or
    time tags outside ``[t_pulse, t_pulse + t_coll)``).
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
        records = np.empty((count, 2), dtype="<i8")
        if fh.readinto(records) != records.nbytes:
            raise StreamFormatError("truncated record section: the file shrank while read")
    def stream(n_shots):
        sequence = PulseSequence(
            t_pulse=t_pulse_ns / 1e9,   # a division gives back whole ns where * 1e-9 may not
            t_coll=t_coll_ns / 1e9,
            t_rep=t_rep_ns / 1e9,
            n_shots=n_shots,
        )
        return ClickStream(records, sequence)

    try:
        try:
            return stream(int(records[-1, 0]) + 1 if count else 1)   # sorted shots end at their max
        except (InvalidParameterError, StreamInvariantError):
            if not count:
                raise
            # rejected: judged again on the column max, so that an unsorted
            # stream is reported as unsorted rather than as out of range
            return stream(int(records[:, 0].max()) + 1)
    except (InvalidParameterError, StreamInvariantError) as exc:
        raise StreamFormatError(f"invalid stream: {exc}") from exc
