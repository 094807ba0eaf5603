"""Deterministic random streams shared by solvers and instance generators.

Every stochastic component in this package draws from xorshift64* streams
seeded through splitmix64.  The generator is pinned bit-exactly (see
SOLVERS.md) so that a (seed, config) pair reproduces identical runs across
processes and platforms: no global RNG state, no dependence on numpy's
Generator method implementations.

Stream derivation: stream ``i`` of master seed ``s`` starts from
``splitmix64((s ^ (i * STREAM_STEP)) mod 2^64)``, ``STREAM_STEP`` odd, so
per-member solver streams are independent and addressable.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Odd constant spacing the per-member streams (golden-ratio increment).
STREAM_STEP = 0x9E3779B97F4A7C15

_XS_MULT = 0x2545F4914F6CDD1D  # xorshift64* output multiplier
_SM_MULT1 = 0xBF58476D1CE4E5B9
_SM_MULT2 = 0x94D049BB133111EB

_U64_11 = np.uint64(11)
_U64_12 = np.uint64(12)
_U64_25 = np.uint64(25)
_U64_27 = np.uint64(27)
_NP_XS_MULT = np.uint64(_XS_MULT)
_INV_2_53 = 2.0 ** -53


def splitmix64(value: int) -> int:
    """One splitmix64 step; maps any 64-bit value to a well-mixed one."""
    z = (value + STREAM_STEP) & MASK64
    z = ((z ^ (z >> 30)) * _SM_MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _SM_MULT2) & MASK64
    return z ^ (z >> 31)


def stream_state(seed: int, stream: int) -> int:
    """Initial xorshift64* state for the given stream of a master seed."""
    state = splitmix64((seed ^ ((stream * STREAM_STEP) & MASK64)) & MASK64)
    # xorshift64* has an absorbing all-zero state; remap it.
    return state if state != 0 else STREAM_STEP


class LaneRng:
    """Parallel xorshift64* lanes advanced in lockstep via numpy.

    Lane ``i`` is stream ``stream_offset + i`` of the master seed, so a
    ``LaneRng(seed, n)`` and a ``LaneRng(seed, 1, stream_offset=i)`` produce
    identical values in lane ``i``: per-member solver streams can be
    replayed in isolation.
    """

    def __init__(self, seed: int, lanes: int, stream_offset: int = 0):
        self._set_states([seed], lanes, stream_offset)

    @classmethod
    def runs(cls, seeds, lanes: int, stream_offset: int = 0) -> "LaneRng":
        """One generator for several runs: lane block r, lanes
        ``r * lanes`` to ``(r + 1) * lanes - 1``, draws what
        ``LaneRng(seeds[r], lanes, stream_offset)`` draws."""
        rng = cls.__new__(cls)
        rng._set_states(seeds, lanes, stream_offset)
        return rng

    def _set_states(self, seeds, lanes: int, stream_offset: int) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        states = [stream_state(seed, stream_offset + i)
                  for seed in seeds for i in range(lanes)]
        self._state = np.array(states, dtype=np.uint64)
        self._scratch = np.empty(len(states), dtype=np.uint64)
        self.lanes = len(states)

    def next_u64(self) -> np.ndarray:
        """Advance all lanes one step; returns (lanes,) uint64 outputs."""
        _xorshift_step(self._state, self._state, self._scratch)
        return self._state * _NP_XS_MULT

    def uniforms(self) -> np.ndarray:
        """One double in [0, 1) per lane (top 53 bits of the output)."""
        return (self.next_u64() >> _U64_11) * _INV_2_53

    def uniform_block(self, rows: int, lanes=None, keep=None) -> np.ndarray:
        """(rows, lanes) doubles in [0, 1); row r is draw r of every lane.

        The values and the lane state left behind are those of ``rows``
        calls of :meth:`uniforms`.  Given ``lanes``, an index array, only
        those lanes draw (column j is lane ``lanes[j]``), and only they
        advance.  Given ``keep=(period, spans)``, ``rows`` is a whole
        number of periods, and only rows ``a`` to ``b - 1`` of each
        period, for each ``(a, b)`` of the sorted, disjoint ``spans``,
        are computed: the block holds them period by period, spans in
        order, while every lane still advances by all ``rows``.  A plain
        block is one span over all its rows.

        Segment starts come by jump-ahead: the periods' starts by
        doubling, each span's start from its period's, and the span's
        near-equal segments of at most ``SEGMENT_ROWS`` rows by
        doubling.  Then each step advances every segment of every
        period and lane, one contiguous ``(segments, periods, lanes)``
        slab.
        """
        at = slice(None) if lanes is None else lanes
        start = self._state[at]
        period, spans = keep if keep else (rows, ((0, rows),))
        if spans == ((0, period),):  # whole periods are one span
            period, spans = rows, ((0, rows),)
        if rows % max(period, 1):
            raise ValueError("rows must be a whole number of periods")
        periods = rows // period if rows else 0
        spans_states = []
        if periods:
            firsts = _jumped(start, period, periods)  # state before each period
            spans_states = [_span(_jump(a, firsts) if a else firsts, b - a)
                            for a, b in spans]
            # the state after the last row of the last period
            self._state[at] = (spans_states[-1][1][-1] if spans[-1][1] == period
                               else _jump(period, firsts[-1]))
        # the block is allocated after the states, so that freeing them
        # leaves a hole the next call reuses; freed from the top of the
        # heap they are trimmed, and the next call faults in every page
        kept = sum(b - a for a, b in spans)
        out = np.empty((periods, kept, len(start)))
        col = 0
        for (a, b), (states, _) in zip(spans, spans_states):
            _write(states, out[:, col:col + b - a])
            col += b - a
        return out.reshape(periods * kept, len(start))


def _jumped(first: np.ndarray, steps: int, count: int) -> np.ndarray:
    """(count,) + first.shape states: entry k is ``first`` advanced
    k * steps, by doubling (entries [2^m, 2^(m+1)) are entries
    [0, 2^m) jumped 2^m * steps)."""
    states = np.empty((count,) + first.shape, dtype=np.uint64)
    states[0] = first
    for m in range((count - 1).bit_length()):
        half = 1 << m
        states[half:2 * half] = _jump(steps * half,
                                      states[:min(half, count - half)])
    return states


def _span(starts: np.ndarray, rows: int) -> tuple:
    """Rows 0 to rows - 1 of the streams whose (periods, lanes) states
    are ``starts``, as (seg, segments, periods, lanes) output words
    ``(s * MULT) >> 11`` (row k is step k % seg of segment k // seg),
    and the (periods, lanes) states after the last row."""
    n_seg = -(-rows // SEGMENT_ROWS)
    seg = -(-rows // n_seg)  # near-equal segments; the last may be short
    # a step runs on flat slabs: ufuncs loop fastest over one axis
    prev = _jumped(starts, seg, n_seg).reshape(-1)  # segment start states
    flat = np.empty((seg, len(prev)), dtype=np.uint64)
    tmp = np.empty_like(prev)
    for step in flat:
        _xorshift_step(prev, step, tmp)
        prev = step
    states = flat.reshape((seg, n_seg) + starts.shape)
    end = states[(rows - 1) % seg, -1].copy()
    flat *= _NP_XS_MULT
    flat >>= _U64_11
    return states, end


def _write(states: np.ndarray, out: np.ndarray) -> None:
    """Write the output words of ``_span`` as doubles into ``out``, its
    (periods, rows, lanes) part of the block."""
    periods, rows, lanes = out.shape
    seg = len(states)
    whole, tail = divmod(rows, seg)  # segments the span fills, rows left
    np.multiply(states[:, :whole].transpose(2, 1, 0, 3), _INV_2_53,
                out=out[:, :whole * seg].reshape(periods, whole, seg, lanes))
    if tail:
        np.multiply(states[:tail, -1].transpose(1, 0, 2), _INV_2_53,
                    out=out[:, whole * seg:])


# ---------------------------------------------------------------------------
# jump-ahead
#
# The xorshift64* state step is linear over GF(2), so n steps are one
# 64x64 bit matrix M^n (Haramoto et al., "Efficient Jump Ahead for
# F2-Linear Random Number Generators", INFORMS J. Computing 2008).  A
# matrix is held as its 64 columns: column j is the image of bit j.
# ---------------------------------------------------------------------------

SEGMENT_ROWS = 32  # the most rows one segment advances step by step

_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
_U64_1 = np.uint64(1)


def _xorshift_step(s: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = one xorshift64* state step of s (elementwise, any shape)."""
    np.right_shift(s, _U64_12, tmp)
    np.bitwise_xor(s, tmp, out)
    np.left_shift(out, _U64_25, tmp)
    np.bitwise_xor(out, tmp, out)
    np.right_shift(out, _U64_27, tmp)
    np.bitwise_xor(out, tmp, out)


def _apply(columns: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Bit matrix times state vectors: XOR of the columns whose bit is set."""
    bits = (states[..., None] >> _BIT_SHIFTS) & _U64_1
    return np.bitwise_xor.reduce(bits * columns, axis=-1)


def _power_of_two_steps() -> tuple:
    """M^(2^i) for i = 0..63, by repeated squaring of the one-step matrix."""
    unit = _U64_1 << _BIT_SHIFTS
    step = np.empty_like(unit)
    _xorshift_step(unit, step, np.empty_like(unit))
    powers = [step]
    for _ in range(63):
        powers.append(_apply(powers[-1], powers[-1]))
    return tuple(powers)


_POW2 = _power_of_two_steps()
_JUMP_TABLES: dict = {}  # steps -> byte table of M^steps, built on first use


def _jump_table(steps: int) -> np.ndarray:
    """(8, 256) table of M^steps: row b maps each value of byte b to the
    XOR of the columns its set bits pick.  The columns are the product
    of the powers of two that sum to ``steps``; a row is filled by
    doubling, values [2^k, 2^(k+1)) being values [0, 2^k) XOR column k."""
    columns = _U64_1 << _BIT_SHIFTS  # the identity
    for i in range(steps.bit_length()):
        if steps >> i & 1:
            columns = _apply(_POW2[i], columns)
    columns = columns.reshape(8, 8, 1)  # [byte, bit]
    table = np.zeros((8, 256), dtype=np.uint64)
    for k in range(8):
        np.bitwise_xor(table[:, :1 << k], columns[:, k],
                       out=table[:, 1 << k:2 << k])
    return table


def _jump(steps: int, states: np.ndarray) -> np.ndarray:
    """``states`` advanced ``steps`` steps: M^steps by its byte table, so
    a jump is 8 lookups and 7 XORs."""
    table = _JUMP_TABLES.get(steps)
    if table is None:
        table = _JUMP_TABLES[steps] = _jump_table(steps)
    # little-endian bytes of the flat states: lookups run fastest on one axis
    octets = states.astype("<u8", copy=False).reshape(-1).view(np.uint8)
    octets = octets.reshape(-1, 8)
    out = table[0][octets[:, 0]]
    for b in range(1, 8):
        out ^= table[b][octets[:, b]]
    return out.reshape(states.shape)


class SeededRng:
    """Scalar convenience stream for instance generation.

    Pure-python ints on the same xorshift64* recurrence as :class:`LaneRng`
    (lane equivalence is tested), so generated instances are reproducible
    independent of numpy.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._s = stream_state(seed, stream)

    def _next(self) -> int:
        s = self._s
        s ^= s >> 12
        s = (s ^ (s << 25)) & MASK64
        s ^= s >> 27
        self._s = s
        return (s * _XS_MULT) & MASK64

    def u01(self) -> float:
        """Double in [0, 1)."""
        return (self._next() >> 11) * _INV_2_53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u01()

    def integer(self, lo: int, hi: int) -> int:
        """Integer in the half-open range [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty range")
        return lo + int(self.u01() * (hi - lo))

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), seeded, without replacement."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        picked = []
        for i in range(k):
            j = self.integer(i, n)
            pool[i], pool[j] = pool[j], pool[i]
            picked.append(pool[i])
        return picked

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integer(0, i + 1)
            items[i], items[j] = items[j], items[i]
