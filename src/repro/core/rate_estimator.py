"""Sliding-window transfer-rate estimation.

The choke algorithm ranks peers by "short term download estimations"
(paper §IV-B.1): mainline measures the bytes moved over a recent window
(20 seconds by default) rather than a lifetime average, so a peer that
stops sending drops out of the regular-unchoke set within two choke
rounds.  The estimator below keeps (timestamp, bytes) samples and expires
them lazily.

Most links never carry a byte (four unchoke slots in a peer set of up
to 80, §II-B and §II-C.2), so the sample window is allocated at the
first sample: until then, and again after :meth:`RateEstimator.reset`,
it is the empty tuple, which every read answers without touching.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Tuple, Union


class RateEstimator:
    """Bytes-per-second estimate over a trailing window.

    >>> estimator = RateEstimator(window=20.0)
    >>> estimator.add(now=0.0, num_bytes=16384)
    >>> estimator.add(now=10.0, num_bytes=16384)
    >>> round(estimator.rate(now=10.0), 1)
    1638.4
    """

    __slots__ = ("_window", "_samples", "_total")

    def __init__(self, window: float = 20.0):
        if not (math.isfinite(window) and window > 0):
            raise ValueError("window must be finite and positive")
        self._window = window
        # ``()`` until the first sample: an idle link holds no deque.
        self._samples: Union[Deque[Tuple[float, float]], Tuple[()]] = ()
        self._total = 0.0

    @property
    def window(self) -> float:
        return self._window

    def add(self, now: float, num_bytes: float) -> None:
        """Record *num_bytes* transferred at time *now*."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        samples = self._samples
        if not samples:
            samples = self._samples = deque()
        elif now < samples[-1][0]:
            raise ValueError("samples must be added in non-decreasing time order")
        samples.append((now, num_bytes))
        self._total += num_bytes
        self._expire(now)

    def rate(self, now: float) -> float:
        """Estimated transfer rate in bytes/second at time *now*.

        The divisor is the full window length, matching mainline's
        behaviour: a peer that transferred one burst long ago decays
        toward zero as the samples age out.
        """
        if not self._samples:
            # Whatever empties the window (an expiry, a reset) leaves the
            # running total at exactly 0.0, so an idle link's rate needs
            # no expiry and no divide.
            return 0.0
        self._expire(now)
        return max(0.0, self._total) / self._window

    def reset(self) -> None:
        self._samples = ()
        self._total = 0.0

    def _expire(self, now: float) -> None:
        horizon = now - self._window
        samples = self._samples
        while samples and samples[0][0] <= horizon:
            __, num_bytes = samples.popleft()
            self._total -= num_bytes
        if not samples:
            self._total = 0.0  # clamp float drift


class ByteCounter(RateEstimator):
    """A :class:`RateEstimator` that also keeps the lifetime byte total.

    Connections keep one counter per direction; the choke algorithm reads
    ``rate``, the fairness analysis reads ``total``.
    """

    __slots__ = ("total",)

    def __init__(self, window: float = 20.0):
        super().__init__(window)
        self.total = 0.0

    def add(self, now: float, num_bytes: float) -> None:
        # RateEstimator.add with its expiry unrolled into this frame: the
        # fluid tick adds twice per active flow.  Same float operations on
        # the running total, in the same order.
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        samples = self._samples
        if not samples:
            samples = self._samples = deque()
        elif now < samples[-1][0]:
            raise ValueError("samples must be added in non-decreasing time order")
        self.total += num_bytes
        samples.append((now, num_bytes))
        total = self._total + num_bytes
        horizon = now - self._window
        while samples and samples[0][0] <= horizon:
            total -= samples.popleft()[1]
        self._total = total if samples else 0.0  # clamp float drift
