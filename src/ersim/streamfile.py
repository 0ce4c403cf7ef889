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
reader checks the records with ``engine.validate_click_stream``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .engine import ClickStream, PulseSequence, validate_click_stream
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
    times = np.asarray(stream.times_ns, dtype=np.uint64)
    shots = np.asarray(stream.shot_indices, dtype=np.uint64)
    if np.any(stream.times_ns < 0) or np.any(stream.shot_indices < 0):
        raise StreamFormatError("negative shot index or time tag")
    header = _HEADER.pack(
        MAGIC, VERSION, seq.t_rep_ns, seq.t_pulse_ns, seq.t_coll_ns, len(stream)
    )
    records = np.column_stack([shots, times]).astype("<u8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_clickstream(path) -> ClickStream:
    """Read a click-stream file and check it with ``validate_click_stream``.

    Raises StreamFormatError for bad magic, unsupported version, truncated or
    oversized record sections, field values beyond 2**62, an invalid pulse
    sequence, and records that break the stream invariants (unsorted, or time
    tags outside ``[t_pulse, t_pulse + t_coll)``).
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise StreamFormatError("file shorter than the fixed header")
    magic, version, t_rep_ns, t_pulse_ns, t_coll_ns, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise StreamFormatError(f"unsupported format version {version}")
    body = data[_HEADER.size :]
    expected = 16 * count
    if len(body) < expected:
        raise StreamFormatError(
            f"truncated record section: {len(body)} bytes for {count} records"
        )
    if len(body) > expected:
        raise StreamFormatError("trailing bytes after the record section")
    records = np.frombuffer(body, dtype="<u8").reshape(-1, 2)
    shots = records[:, 0].astype(np.int64, copy=True)
    times = records[:, 1].astype(np.int64, copy=True)
    if np.any(records >= np.int64(2) ** 62):
        raise StreamFormatError("record field exceeds the supported range")
    try:
        sequence = PulseSequence(
            t_pulse=t_pulse_ns * 1e-9,
            t_coll=t_coll_ns * 1e-9,
            t_rep=t_rep_ns * 1e-9,
            n_shots=int(shots.max()) + 1 if count else 1,
        )
    except InvalidParameterError as exc:
        raise StreamFormatError(f"invalid pulse sequence in header: {exc}") from exc
    stream = ClickStream(shots, times, sequence, metadata={})
    try:
        validate_click_stream(stream)
    except StreamInvariantError as exc:
        raise StreamFormatError(str(exc)) from exc
    return stream
