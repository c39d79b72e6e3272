"""Scatter-Gather Lists and frame chaining.

Paper §4: *"Making use of I2O's Scatter-Gather Lists (SGL) or chaining
blocks helps to transmit arbitrary length information."*

Two cooperating mechanisms:

* :class:`ScatterGatherList` — an ordered list of buffer segments that
  presents them as one logical byte string without copying.  A device
  builds its outbound payload by *loaning* pieces of pool blocks into
  an SGL; a transport walks the segments directly onto the wire.
* :class:`Fragmenter` / :class:`Reassembler` — when a logical payload
  exceeds one 256 KB pool block, it is carried by a *chain* of frames
  sharing a transaction context, all but the last flagged
  ``FLAG_MORE`` and the last flagged ``FLAG_LAST``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from repro.i2o.errors import SGLError
from repro.i2o.frame import FLAG_LAST, FLAG_MORE, MAX_PAYLOAD_SIZE, Frame


class ScatterGatherList:
    """An immutable-order sequence of buffer segments, gathered lazily."""

    __slots__ = ("_segments", "_length")

    def __init__(self, segments: Iterable[bytes | bytearray | memoryview] = ()) -> None:
        self._segments: list[memoryview] = []
        self._length = 0
        for seg in segments:
            self.append(seg)

    def append(self, segment: bytes | bytearray | memoryview) -> None:
        view = memoryview(segment)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if len(view):
            self._segments.append(view)
            self._length += len(view)

    def __len__(self) -> int:
        return self._length

    def segments(self) -> Iterator[memoryview]:
        return iter(self._segments)

    def tobytes(self) -> bytes:
        """Gather into one contiguous byte string (the single copy)."""
        return b"".join(bytes(seg) for seg in self._segments)

    def chunks(self, chunk_size: int) -> Iterator[memoryview]:
        """Re-slice the logical byte string into ``chunk_size`` pieces
        without copying (segments are sub-sliced, never joined)."""
        if chunk_size <= 0:
            raise SGLError(f"chunk_size must be positive, got {chunk_size}")
        pending = chunk_size
        for seg in self._segments:
            start = 0
            while start < len(seg):
                take = min(pending, len(seg) - start)
                yield seg[start : start + take]
                start += take
                pending -= take
                if pending == 0:
                    pending = chunk_size


class Fragmenter:
    """Splits a logical payload into a chain of frames.

    ``frame_factory(size)`` must return a writable :class:`Frame`
    whose buffer can hold ``size`` payload bytes — in production that
    is ``executive.frame_alloc``; tests pass a plain builder.
    """

    def __init__(self, max_fragment: int = MAX_PAYLOAD_SIZE) -> None:
        if not 1 <= max_fragment <= MAX_PAYLOAD_SIZE:
            raise SGLError(f"max_fragment {max_fragment} out of range")
        self.max_fragment = max_fragment
        self._transactions = itertools.count(1)

    def fragment(
        self,
        payload: bytes | bytearray | memoryview | ScatterGatherList,
        *,
        target: int,
        initiator: int,
        xfunction: int = 0,
        priority: int = 3,
        organization: int = 0,
        build: Callable[..., Frame] = Frame.build,
    ) -> list[Frame]:
        """Produce the ordered frame chain carrying ``payload``.

        A payload that fits one fragment yields a single frame with
        ``FLAG_LAST`` only (so reassembly treats chained and unchained
        messages uniformly).
        """
        if isinstance(payload, ScatterGatherList):
            sgl = payload
        else:
            sgl = ScatterGatherList([payload])
        transaction = next(self._transactions)
        pieces = list(sgl.chunks(self.max_fragment)) if len(sgl) else [memoryview(b"")]
        frames: list[Frame] = []
        for index, piece in enumerate(pieces):
            last = index == len(pieces) - 1
            frames.append(
                build(
                    target=target,
                    initiator=initiator,
                    payload=piece,
                    priority=priority,
                    organization=organization,
                    xfunction=xfunction,
                    flags=FLAG_LAST if last else FLAG_MORE,
                    transaction_context=transaction,
                    initiator_context=index,
                )
            )
        return frames


class Reassembler:
    """Rebuilds logical payloads from frame chains.

    Fragments are keyed by ``(initiator, transaction_context)`` so
    chains from different senders (or interleaved transactions from the
    same sender) never mix.  Delivery order *within* one chain is
    guaranteed by every transport in this code base (FIFO links), and
    the fragment index carried in ``initiator_context`` is checked to
    fail loudly if a transport ever violates that.
    """

    def __init__(self, max_pending: int = 1024) -> None:
        self.max_pending = max_pending
        self._pending: dict[tuple[int, int], list[bytes]] = {}

    @property
    def pending_chains(self) -> int:
        return len(self._pending)

    def add(self, frame: Frame) -> bytes | None:
        """Feed one frame; returns the full payload when a chain completes."""
        key = (frame.initiator, frame.transaction_context)
        chain = self._pending.get(key)
        index = frame.initiator_context
        if chain is None:
            if index != 0:
                raise SGLError(
                    f"chain {key} began at fragment {index}, expected 0"
                )
            if len(self._pending) >= self.max_pending:
                raise SGLError(f"too many pending chains (> {self.max_pending})")
            chain = []
            self._pending[key] = chain
        elif index != len(chain):
            raise SGLError(
                f"chain {key} fragment {index} arrived out of order "
                f"(expected {len(chain)})"
            )
        chain.append(bytes(frame.payload))
        if frame.flags & FLAG_LAST:
            del self._pending[key]
            return b"".join(chain)
        if not frame.flags & FLAG_MORE:
            del self._pending[key]
            raise SGLError(f"fragment in chain {key} carries neither MORE nor LAST")
        return None
