"""Pinned-PRNG behavior: stream derivation, lane/scalar agreement, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphopt.rng import (_POW2, MASK64, SEGMENT_ROWS, STREAM_STEP,
                          LaneRng, SeededRng, _apply, _jump, splitmix64,
                          stream_state)
from graphopt.solvers import MEMBER_CHUNK_DOUBLES
from tests.reference import xorshift64star_sequence


def test_splitmix64_known_values():
    # splitmix64(0) chain is a published test vector set
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0) + 0) != 0  # chaining stays in range
    assert 0 <= splitmix64(123456789) <= MASK64


def test_stream_state_never_zero():
    for seed in (0, 1, 2**63, MASK64):
        for stream in range(8):
            assert stream_state(seed, stream) != 0


def test_scalar_matches_independent_xorshift():
    seed, stream = 42, 3
    rng = SeededRng(seed, stream=stream)
    mine = [rng._next() for _ in range(64)]
    theirs = xorshift64star_sequence(stream_state(seed, stream), 64)
    assert mine == theirs


def test_lane_equals_scalar_per_stream():
    """Lane i of LaneRng(seed, n) replays SeededRng(seed, stream=i) exactly."""
    seed, lanes, draws = 7, 5, 40
    lane_rng = LaneRng(seed, lanes)
    block = np.stack([lane_rng.next_u64() for _ in range(draws)])
    for i in range(lanes):
        scalar = SeededRng(seed, stream=i)
        expected = [scalar._next() for _ in range(draws)]
        assert [int(v) for v in block[:, i]] == expected


def test_lane_offset_isolates_streams():
    seed = 99
    wide = LaneRng(seed, 4)
    wide_vals = wide.next_u64()
    solo = LaneRng(seed, 1, stream_offset=2)
    assert int(solo.next_u64()[0]) == int(wide_vals[2])


def test_u01_range_and_determinism():
    a = SeededRng(5)
    b = SeededRng(5)
    xs = [a.u01() for _ in range(1000)]
    assert xs == [b.u01() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)


def test_uniform_block_shape_and_range():
    rng = LaneRng(0, 6)
    block = rng.uniform_block(9)
    assert block.shape == (9, 6)
    assert block.min() >= 0.0 and block.max() < 1.0


def test_uniform_block_matches_scalar_u01():
    # block rows are consecutive draws of each lane
    seed, lanes = 11, 3
    block = LaneRng(seed, lanes).uniform_block(5)
    for i in range(lanes):
        scalar = SeededRng(seed, stream=i)
        expected = [scalar.u01() for _ in range(5)]
        assert block[:, i].tolist() == expected


def test_bulk_block_matches_row_by_row():
    """A block filled by jump-ahead equals row-by-row draws bit for bit and
    leaves every lane where the row-by-row draws would."""
    seed, lanes, offset = 23, 5, 7
    rows = 20 * SEGMENT_ROWS + 37  # several doubling rounds, ragged tail
    assert rows % SEGMENT_ROWS
    bulk_rng = LaneRng(seed, lanes, stream_offset=offset)
    bulk = bulk_rng.uniform_block(rows)
    bulk_next = bulk_rng.uniform_block(7)  # small block: one segment

    ref = LaneRng(seed, lanes, stream_offset=offset)
    rowwise = np.stack([ref.uniforms() for _ in range(rows)])
    rowwise_next = np.stack([ref.uniforms() for _ in range(7)])
    assert bulk.tobytes() == rowwise.tobytes()
    assert bulk_next.tobytes() == rowwise_next.tobytes()

    # and against the pure-python scalar stream of the last lane
    scalar = SeededRng(seed, stream=offset + lanes - 1)
    expected = [scalar.u01() for _ in range(rows + 7)]
    assert np.concatenate([bulk, bulk_next])[:, -1].tolist() == expected


@settings(max_examples=60, deadline=None)
@given(first=st.integers(0, 4 * SEGMENT_ROWS + 3),
       second=st.integers(0, 4 * SEGMENT_ROWS + 3),
       lanes=st.sampled_from([1, 2, 30]),
       offset=st.integers(0, 2**32), seed=st.integers(0, MASK64))
def test_uniform_block_matches_uniforms(first, second, lanes, offset, seed):
    """Two consecutive blocks of any size equal row-by-row ``uniforms()``
    bit for bit, and leave every lane in the same state."""
    block_rng = LaneRng(seed, lanes, stream_offset=offset)
    ref = LaneRng(seed, lanes, stream_offset=offset)
    for rows in (first, second):
        block = block_rng.uniform_block(rows)
        assert block.shape == (rows, lanes)
        expected = np.array([ref.uniforms() for _ in range(rows)])
        assert block.tobytes() == expected.tobytes()
        assert block_rng._state.tobytes() == ref._state.tobytes()


@st.composite
def _period_spans(draw):
    """A period and sorted, disjoint spans of it: cut points split the
    period into pieces, and each piece is kept or not, so kept pieces
    may touch (adjacent spans) or be one row long."""
    period = draw(st.integers(1, 3 * SEGMENT_ROWS + 5))
    cuts = draw(st.sets(st.integers(1, period - 1), max_size=6)) if period > 1 else set()
    bounds = [0, *sorted(cuts), period]
    pieces = list(zip(bounds, bounds[1:]))
    kept = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces))
                .filter(any))
    return period, tuple(piece for piece, keep in zip(pieces, kept) if keep)


@settings(max_examples=80, deadline=None)
@given(keep=_period_spans(), counts=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       lanes=st.sampled_from([1, 2, 30]), subset=st.booleans(),
       seed=st.integers(0, MASK64))
def test_span_block_equals_rows_of_full_block(keep, counts, lanes, subset, seed):
    """A block of only some rows of each period equals those rows of the
    full block bit for bit, and leaves every lane's state where the full
    block does, over two consecutive calls, with or without a lanes
    subset."""
    period, spans = keep
    picked = np.arange(0, lanes, 2) if subset else None
    span_rng, ref = LaneRng(seed, lanes), LaneRng(seed, lanes)
    for count in counts:
        block = span_rng.uniform_block(period * count, picked, keep=keep)
        full = ref.uniform_block(period * count, picked)
        expected = np.concatenate([full[p * period + a:p * period + b]
                                   for p in range(count) for a, b in spans])
        assert block.tobytes() == expected.tobytes()
        assert span_rng._state.tobytes() == ref._state.tobytes()


def _matrix_power(steps: int) -> np.ndarray:
    """Columns of M^steps by square-and-multiply of the one-step matrix."""
    power, base = np.uint64(1) << np.arange(64, dtype=np.uint64), _POW2[0]
    while steps:
        if steps & 1:
            power = _apply(base, power)
        base, steps = _apply(base, base), steps >> 1
    return power


def test_jump_matches_bit_matrix():
    """The byte-table jump equals the bit-matrix product for every step
    count a member chunk uses, on edge states too: the powers of two of
    plain segments, and, for each d of a continuous problem, its period
    3d+3 times 2^m, its span offsets and its near-equal segment lengths
    times 2^m."""
    top = (MEMBER_CHUNK_DOUBLES // SEGMENT_ROWS).bit_length()
    steps = {SEGMENT_ROWS << m for m in range(top + 1)}
    for d in (24, 40, 96, 100, 288, 800):
        period = 3 * d + 3
        steps |= {period << m for m in range(8)} | {d, 2 * d, 3 * d + 1}
        for span in (d, 2 * d, 2):
            n_seg = -(-span // SEGMENT_ROWS)
            steps |= {-(-span // n_seg) << m for m in range(n_seg.bit_length())}
    assert {20, 25, 27, 289, 291, 291 << 7} <= steps  # not powers of two
    rng = np.random.default_rng(5)
    states = np.concatenate([
        np.array([0, 1, MASK64, 1 << 63], dtype=np.uint64),
        rng.integers(0, MASK64, size=60, dtype=np.uint64, endpoint=True),
    ]).reshape(8, 8)
    for n in sorted(steps):
        assert _jump(n, states).tobytes() == _apply(_matrix_power(n), states).tobytes(), n


def test_empirical_mean_uniform():
    """bounds [0,1]^d, 1e4 samples -> per-dim empirical mean in 0.5 +/- 0.02"""
    rng = LaneRng(123, 10)
    block = rng.uniform_block(1000)  # 1000 draws x 10 lanes
    means = block.mean(axis=0)
    assert np.all(np.abs(means - 0.5) < 0.02)


def test_integer_bounds():
    rng = SeededRng(3)
    vals = [rng.integer(2, 7) for _ in range(500)]
    assert set(vals) == {2, 3, 4, 5, 6}


def test_sample_distinct_sorted_range():
    rng = SeededRng(8)
    for _ in range(50):
        got = rng.sample(10, 4)
        assert len(got) == len(set(got)) == 4
        assert all(0 <= v < 10 for v in got)


def test_sample_full_population():
    assert sorted(SeededRng(1).sample(5, 5)) == [0, 1, 2, 3, 4]


def test_shuffle_is_permutation():
    rng = SeededRng(21)
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))  # astronomically unlikely to be identity


def test_different_streams_differ():
    a = [SeededRng(0, stream=0).u01() for _ in range(4)]
    b = [SeededRng(0, stream=1).u01() for _ in range(4)]
    assert a != b


def test_stream_step_is_odd():
    assert STREAM_STEP % 2 == 1


@pytest.mark.parametrize("lanes", [1, 2, 30])
def test_lane_count_does_not_change_lane_zero(lanes):
    ref = [int(v[0]) for v in (LaneRng(17, 1).next_u64() for _ in range(6))]
    got = [int(LaneRng(17, lanes).next_u64()[0]) for _ in [0]]
    # same first draw regardless of how many sibling lanes exist
    assert got[0] == ref[0]


def test_runs_stack_each_seeds_lanes():
    """Lane block r of ``LaneRng.runs`` draws what the seed's own
    generator draws, block after block."""
    seeds, lanes, offset = [7, 3, 7], 4, 5
    stacked = LaneRng.runs(seeds, lanes, stream_offset=offset)
    alone = [LaneRng(s, lanes, stream_offset=offset) for s in seeds]
    assert stacked.lanes == len(seeds) * lanes
    for rows in (3, 40):
        block = stacked.uniform_block(rows)
        expected = np.hstack([rng.uniform_block(rows) for rng in alone])
        assert block.tobytes() == expected.tobytes()


def test_block_of_some_lanes_advances_only_them():
    rng, ref = LaneRng(11, 6), LaneRng(11, 6)
    picked = np.array([1, 4, 5])
    block = rng.uniform_block(37, picked)
    assert block.shape == (37, 3)
    assert block.tobytes() == ref.uniform_block(37)[:, picked].tobytes()
    # the lanes left out still draw their first values next
    untouched = LaneRng(11, 6).uniform_block(5)
    after = rng.uniform_block(5)
    assert after[:, [0, 2, 3]].tobytes() == untouched[:, [0, 2, 3]].tobytes()
    assert after[:, picked].tobytes() == ref.uniform_block(5)[:, picked].tobytes()
