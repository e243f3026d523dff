"""Binary serialization of compiled Palmtrie planes (``PLMF``).

A deployment compiles ACLs on a control plane and ships the compiled
policy to data-plane processes; that requires a stable wire format.
``PLMF`` (:func:`serialize_frozen` / :func:`deserialize_frozen`) is the
only one: it writes a :class:`~repro.core.frozen.FrozenMatcher`'s
parallel arrays verbatim, so loading is a handful of zero-copy buffer
views rather than a per-node parse, and a loaded plane serves at once
without any trie rebuild.  Its Palmtrie_k (the paper's §3.6 update
source) is rebuilt from the plane's entries only when an update needs
it.  Checkpoints (``PLMC``) and shard planes (``PLMS``) wrap the same
image.

The section layout is documented on :func:`serialize_frozen` and in
``docs/formats.md``.  Entry values must be ints/bools/strings/None (the
portable subset); richer values are rejected at serialization time.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import Any, BinaryIO

from .table import TernaryEntry, TernaryMatcher
from .ternary import TernaryKey

__all__ = [
    "serialize_frozen",
    "deserialize_frozen",
    "save_frozen",
    "load_frozen",
    "FormatError",
]

FROZEN_MAGIC = b"PLMF"
FROZEN_VERSION = 2

#: magic, version u16, stride u8, flags u8 (bit 0 = subtree skipping),
#: key_length u32, internal count u32, leaf count u32, push length u32,
#: entry count u32, entry-blob length u32.
_FROZEN_HEADER = struct.Struct("<4sHBBIIIIII")

#: v2 extension, immediately after the header: layout u8, plan u8,
#: reserved u16 (must be 0), plan-blob length u32.  The layout byte is
#: written as 0 (build order); 1 marked the retired hot-first node
#: order, and such an image loads as a plane in another node order.
#: Plan code 0 (no plan, empty blob) is the only one written or
#: accepted; codes 1 and 2 marked the retired per-subtrie stride plans
#: and fail closed on load.
_FROZEN_EXT = struct.Struct("<BBHI")

_RETIRED_PLAN_CODES = (1, 2)


class FormatError(ValueError):
    """Raised when bytes do not decode as their wire format."""


#: resilience-plane hook: a ``bytes -> bytes`` callable applied to wire
#: data before decoding (the fault injector's corruption point, see
#: :func:`repro.resilience.faults.install`); None in production
_deserialize_hook = None


def _encode_value(value: Any) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, bool):  # bool is an int; keep it distinct
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
        return b"I" + raw
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    raise FormatError(f"unsupported entry value type {type(value).__name__}")


def _decode_value(blob: bytes) -> Any:
    if blob == b"N":
        return None
    tag, payload = blob[:1], blob[1:]
    if tag == b"B":
        return payload == b"1"
    if tag == b"I":
        return int.from_bytes(payload, "little", signed=True)
    if tag == b"S":
        return payload.decode("utf-8")
    raise FormatError(f"unknown value tag {tag!r}")


def _array_bytes(arr: array) -> bytes:
    """The array's buffer, little-endian regardless of host order."""
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _array_from(typecode: str, data: bytes) -> array:
    arr = array(typecode)
    arr.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover
        arr.byteswap()
    return arr


def _typed_view(typecode: str, section: memoryview) -> Any:
    """Reinterpret one wire section as a typed sequence of ints.

    Little-endian hosts get a zero-copy ``memoryview.cast`` over the
    caller's buffer — this is what lets shard workers serve straight
    out of a shared-memory PLMF mapping without duplicating the arrays
    per process.  Big-endian hosts fall back to a byte-swapped
    :mod:`array` copy.  Both results index, slice, iterate and
    ``tobytes()`` the same way.
    """
    if sys.byteorder == "little":
        return section.cast(typecode)
    return _array_from(typecode, bytes(section))  # pragma: no cover


def serialize_frozen(matcher: "TernaryMatcher") -> bytes:
    """Pack a frozen plane's arrays into the ``PLMF`` v2 wire form.

    After the header comes the v2 extension (layout byte 0, plan byte 0,
    reserved, plan-blob length 0).  Section order after that: bit
    i32[I], max_priority i64[I+L], dispatch u32 (``I << stride``
    words), push u64[P], leaf keys (data ‖ care, each
    ``ceil(key_length / 8)`` bytes, L times), entry base u64[L], entry
    count u64[L], entry blob (priority i32, value length u16, value
    bytes per entry; value tags ``N`` None, ``B0``/``B1`` bool, ``I``
    little-endian signed int, ``S`` UTF-8 string).  v1 images (no extension,
    build-order layout) still load.
    """
    from .frozen import FrozenMatcher

    if not isinstance(matcher, FrozenMatcher):
        raise FormatError(f"expected FrozenMatcher, got {type(matcher).__name__}")
    key_bytes = (matcher.key_length + 7) // 8
    leaf_count = len(matcher._leaf_best)

    key_blob = bytearray()
    for j in range(leaf_count):
        key_blob += matcher._leaf_data[j].to_bytes(key_bytes, "little")
        key_blob += matcher._leaf_care[j].to_bytes(key_bytes, "little")

    entry_blob = bytearray()
    for entry in matcher._entry_table:
        value = _encode_value(entry.value)
        entry_blob += struct.pack("<iH", entry.priority, len(value))
        entry_blob += value

    header = _FROZEN_HEADER.pack(
        FROZEN_MAGIC,
        FROZEN_VERSION,
        matcher.stride,
        1 if matcher.subtree_skipping else 0,
        matcher.key_length,
        matcher._first_leaf,
        leaf_count,
        len(matcher._push),
        len(matcher._entry_table),
        len(entry_blob),
    )
    ext = _FROZEN_EXT.pack(0, 0, 0, 0)
    return b"".join(
        (
            header,
            ext,
            _array_bytes(matcher._bit),
            _array_bytes(matcher._maxp),
            _array_bytes(matcher._dispatch),
            _array_bytes(matcher._push),
            bytes(key_blob),
            _array_bytes(matcher._leaf_entry_base),
            _array_bytes(matcher._leaf_entry_count),
            bytes(entry_blob),
        )
    )


def deserialize_frozen(data: "bytes | bytearray | memoryview") -> "TernaryMatcher":
    """Rebuild a :class:`~repro.core.frozen.FrozenMatcher` from a buffer.

    ``data`` may be ``bytes`` or any read-only buffer — in particular a
    ``memoryview`` over a ``multiprocessing.shared_memory`` mapping.
    The plane's flat arrays become zero-copy typed views over the
    caller's buffer (no wholesale copy is taken; the buffer must stay
    alive and unchanged for the plane's lifetime), so N processes
    mapping one PLMF image share one copy of the arrays.  No trie is
    built: a serving engine rebuilds the plane's Palmtrie_k
    (:meth:`~repro.core.frozen.FrozenMatcher.rebuild_source`) only when
    an update needs it, so pure-lookup data planes never pay for it.

    Any corruption raises :class:`FormatError`: whatever a corrupt byte
    stream provokes inside the decoder — ``struct.error`` on a torn
    field, ``IndexError``/``OverflowError`` on a lying length,
    ``UnicodeDecodeError`` on a mangled string value — surfaces as
    :class:`FormatError`, so callers need exactly one except clause and
    fuzzed inputs can never escape as internal exception types.
    """
    hook = _deserialize_hook
    if hook is not None:
        data = hook(bytes(data))
    try:
        return _deserialize_frozen(data)
    except FormatError:
        raise
    except (struct.error, IndexError, OverflowError, UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"corrupt table data ({type(exc).__name__}: {exc})") from exc


def _deserialize_frozen(data: "bytes | bytearray | memoryview") -> "TernaryMatcher":
    from .frozen import _COUNT_BITS, _COUNT_MASK, FrozenMatcher

    data = memoryview(data)
    if data.format != "B":  # normalize exotic buffers to a byte view
        data = data.cast("B")
    if len(data) < _FROZEN_HEADER.size:
        raise FormatError("truncated header")
    (
        magic,
        version,
        stride,
        flags,
        key_length,
        first_leaf,
        leaf_count,
        push_len,
        entry_count,
        blob_len,
    ) = _FROZEN_HEADER.unpack_from(data)
    if magic != FROZEN_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version not in (1, FROZEN_VERSION):
        raise FormatError(f"unsupported version {version}")
    if not 1 <= stride <= 30 or key_length <= 0:
        raise FormatError("corrupt geometry fields")
    key_bytes = (key_length + 7) // 8
    node_count = first_leaf + leaf_count

    cursor = _FROZEN_HEADER.size
    if version >= 2:
        if len(data) < cursor + _FROZEN_EXT.size:
            raise FormatError("truncated extension")
        layout_code, plan_code, reserved, plan_len = _FROZEN_EXT.unpack_from(data, cursor)
        cursor += _FROZEN_EXT.size
        if layout_code not in (0, 1) or reserved:
            raise FormatError("corrupt extension fields")
        if plan_code in _RETIRED_PLAN_CODES:
            raise FormatError(
                f"per-subtrie stride plans (plan code {plan_code}) are no longer "
                "supported; recompile the ACL with --stride"
            )
        if plan_code:
            raise FormatError(f"unknown plan code {plan_code}")
        if plan_len:
            raise FormatError("plan bytes without a plan code")

    sizes = (
        4 * first_leaf,               # bit
        8 * node_count,               # max_priority
        4 * (first_leaf << stride),   # dispatch
        8 * push_len,                 # push
        2 * key_bytes * leaf_count,   # leaf keys
        8 * leaf_count,               # entry base
        8 * leaf_count,               # entry count
        blob_len,                     # entry blob
    )
    if len(data) != cursor + sum(sizes):
        raise FormatError(
            f"size mismatch: expected {cursor + sum(sizes)} bytes,"
            f" got {len(data)}"
        )
    sections = []
    for size in sizes:
        sections.append(data[cursor : cursor + size])
        cursor += size
    bit_arr = _typed_view("i", sections[0])
    maxp_arr = _typed_view("q", sections[1])
    dispatch = _typed_view("I", sections[2])
    push = _typed_view("Q", sections[3])
    entry_base = _typed_view("Q", sections[5])
    entry_count_arr = _typed_view("Q", sections[6])

    # A corrupted chunk shift turns ``query << -b`` in the walk into a
    # gigabyte-sized big-int allocation; reject shifts outside what the
    # freezer can emit (length - stride down to -(stride - 1)).
    for b in bit_arr:
        if not -stride < b <= key_length:
            raise FormatError(f"chunk shift {b} out of range")
    for target in push:
        if target >= node_count:
            raise FormatError("push target out of range")
    # One pass over the dispatch rows range-checks every distinct word
    # (a row repeats a word across the whole range it dispatches) and
    # collects each internal node's internal successors.  Range checks
    # alone cannot catch a word that points back *up* the trie: the
    # walk in FrozenMatcher.lookup would then spin forever instead of
    # failing closed, so a walk from the root over those successor
    # lists rejects any cycle.
    width = 1 << stride
    successors: list[list[int]] = []
    for row_base in range(0, first_leaf << stride, width):
        internal: list[int] = []
        for packed in set(dispatch[row_base : row_base + width]):
            c = packed & _COUNT_MASK
            if c == 0:
                if packed:
                    raise FormatError("dispatch word with zero count but nonzero base")
            elif c == 1:
                succ = packed >> _COUNT_BITS
                if succ >= node_count:
                    raise FormatError("dispatch target out of range")
                if succ < first_leaf:
                    internal.append(succ)
            else:
                run_base = packed >> _COUNT_BITS
                if c > stride + 1 or run_base + c > push_len:
                    raise FormatError("dispatch run out of range")
                internal.extend(
                    succ for succ in push[run_base : run_base + c] if succ < first_leaf
                )
        successors.append(internal)
    if first_leaf:
        colors = bytearray(first_leaf)  # 0 new, 1 on the walk, 2 done
        colors[0] = 1
        dfs = [(0, iter(successors[0]))]
        while dfs:
            node, pending = dfs[-1]
            for succ in pending:
                if colors[succ] == 1:
                    raise FormatError("dispatch graph contains a cycle")
                if colors[succ] == 0:
                    colors[succ] = 1
                    dfs.append((succ, iter(successors[succ])))
                    break
            else:
                colors[node] = 2
                dfs.pop()

    key_view = sections[4]
    leaf_data: list[int] = []
    leaf_care: list[int] = []
    for j in range(leaf_count):
        base = 2 * key_bytes * j
        leaf_data.append(int.from_bytes(key_view[base : base + key_bytes], "little"))
        leaf_care.append(
            int.from_bytes(key_view[base + key_bytes : base + 2 * key_bytes], "little")
        )

    blob = sections[7]
    running_base = 0
    for j in range(leaf_count):
        count = entry_count_arr[j]
        if count == 0:
            raise FormatError("leaf without entries")
        # The writer emits entry slices leaf-major and contiguous; the
        # single-pass decode below depends on it.
        if entry_base[j] != running_base:
            raise FormatError("leaf entry slices must be contiguous")
        running_base += count
    if running_base != entry_count:
        raise FormatError("leaf entry slice out of range")

    # Single forward pass over the blob (entries are stored in table
    # order, which is leaf-major).
    entry_table: list[TernaryEntry] = []
    cursor = 0
    per_leaf_remaining = list(entry_count_arr)
    leaf_index = 0
    leaf_best: list[TernaryEntry] = []
    key_cache: TernaryKey | None = None
    for _ in range(entry_count):
        if cursor + 6 > len(blob):
            raise FormatError("entry blob overrun")
        priority, value_len = struct.unpack_from("<iH", blob, cursor)
        cursor += 6
        if cursor + value_len > len(blob):
            raise FormatError("entry blob overrun")
        value = _decode_value(bytes(blob[cursor : cursor + value_len]))
        cursor += value_len
        if key_cache is None:
            care = leaf_care[leaf_index]
            key_cache = TernaryKey(
                leaf_data[leaf_index], ~care & ((1 << key_length) - 1), key_length
            )
        entry = TernaryEntry(key_cache, value, priority)
        if len(entry_table) == entry_base[leaf_index]:
            leaf_best.append(entry)
        entry_table.append(entry)
        per_leaf_remaining[leaf_index] -= 1
        if per_leaf_remaining[leaf_index] == 0:
            leaf_index += 1
            key_cache = None
    if cursor != len(blob):
        raise FormatError("trailing bytes in entry blob")
    for j in range(leaf_count):
        if maxp_arr[first_leaf + j] != leaf_best[j].priority:
            raise FormatError("leaf max_priority inconsistent with entries")

    frozen = FrozenMatcher.__new__(FrozenMatcher)
    TernaryMatcher.__init__(frozen, key_length)
    frozen.stride = stride
    frozen.subtree_skipping = bool(flags & 1)
    frozen._bit = bit_arr
    frozen._maxp = maxp_arr
    frozen._dispatch = dispatch
    frozen._push = push
    frozen._leaf_data = leaf_data
    frozen._leaf_care = leaf_care
    frozen._leaf_best = leaf_best
    frozen._leaf_entry_base = entry_base
    frozen._leaf_entry_count = entry_count_arr
    frozen._entry_table = entry_table
    frozen._first_leaf = first_leaf
    frozen._build_hot()
    return frozen


def save_frozen(matcher: "TernaryMatcher", path: str) -> int:
    """Serialize a frozen plane to a file; returns the bytes written."""
    data = serialize_frozen(matcher)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def load_frozen(path_or_file: str | os.PathLike | BinaryIO) -> "TernaryMatcher":
    """Load a plane previously written by :func:`save_frozen`."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "rb") as handle:
            return deserialize_frozen(handle.read())
    return deserialize_frozen(path_or_file.read())

