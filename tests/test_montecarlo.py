import math
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oneshotrd.montecarlo as montecarlo_mod
from conftest import make_random_problem, problems
from oneshotrd import (
    InvariantViolation,
    Problem,
    exact_expected_distortion,
    simulate_random_code,
    simulate_random_codes,
)
from oneshotrd.montecarlo import _BINS, READ, _inverse_cdf, _pack, _ranks, _word_block
from oracles import (
    first_held_rank,
    inverse_cdf,
    sample_min_uniform,
    sample_pc_uniformity,
    simulate_gather_min,
    words_to_doubles,
)


def test_uniform_block_counter_semantics():
    full = _word_block(123, 0, 0, 64)
    assert full.dtype == np.uint64
    np.testing.assert_array_equal(full[16:40], _word_block(123, 0, 16, 24))
    with pytest.raises(ValueError):
        _word_block(123, 0, 2, 4)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2),
       blocks=st.integers(0, 2**40), count=st.integers(1, 40))
def test_words_are_the_generators_doubles(seed, stream, blocks, count):
    # every numpy Generator makes its double from a word w as (w >> 11) * 2^-53
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bg.advance(blocks)
    want = np.random.Generator(bg).random(count)
    got = words_to_doubles(_word_block(seed, stream, 4 * blocks, count))
    assert got.tobytes() == want.tobytes()


def test_streams_differ_by_seed_and_stream():
    a = _word_block(1, 0, 0, 16)
    b = _word_block(2, 0, 0, 16)
    c = _word_block(1, 1, 0, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_takes_numpy_integers_and_names_a_float(binary_hamming):
    want = simulate_random_code(binary_hamming, 3, 10, 7)
    for got in (simulate_random_code(binary_hamming, np.int64(3), 10, 7, chunk=np.int8(1)),
                simulate_random_code(binary_hamming, 3, np.int32(10), np.int64(7)),
                simulate_random_code(binary_hamming, 3, 10, np.uint64(7))):
        assert _same_bits(got, want)
        assert type(got.seed) is int and got.seed == 7
    for args, name in (((3.0, 10, 7), "M"), ((3, 10.0, 7), "trials"),
                       ((3, 10, np.float64(7)), "seed"), ((3, 10, 7, 4.0), "chunk")):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            simulate_random_code(binary_hamming, *args)


def test_simulate_deterministic_and_chunk_invariant(binary_hamming):
    a = simulate_random_code(binary_hamming, 3, 5000, seed=7)
    b = simulate_random_code(binary_hamming, 3, 5000, seed=7)
    c = simulate_random_code(binary_hamming, 3, 5000, seed=7, chunk=613)
    assert a.mean == b.mean == c.mean
    assert a.stderr == b.stderr == c.stderr
    d = simulate_random_code(binary_hamming, 3, 5000, seed=8)
    assert d.mean != a.mean


def test_simulate_memory_does_not_grow_with_trials(monkeypatch):
    # a small element budget keeps the test light; at M = 2 * READ * 8 a
    # trial reads READ * 8 codewords, so the blocks hold 2^16 / (4 * READ * 8)
    # trials, and the trials still open take one multinomial draw a block.
    # Both runs fill whole blocks, 2 and 64. The values, 8 bytes a trial, are
    # kept whole by design, and their mean and stderr are taken in place;
    # what the call holds besides them must not grow by 2%, about 5 KB of
    # temporaries here (a copy of the values at 64 blocks is 256 KB)
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    p = Problem(np.full(4, 0.25), np.full(8, 0.125), np.arange(32.0).reshape(4, 8))
    m, block = 2 * READ * 8, (1 << 16) // (4 * READ * 8)
    peaks, rest, means = [], [], []
    for trials in (2 * block, 64 * block):
        tracemalloc.start()
        means.append(simulate_random_code(p, m, trials, seed=3).mean)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        rest.append(peaks[-1] - 8 * trials)
    assert rest[1] < 1.02 * rest[0]
    assert peaks[1] < 3 * 8 * montecarlo_mod.BUDGET
    monkeypatch.undo()
    assert simulate_random_code(p, m, 64 * block, seed=3).mean == means[1]


def test_simulate_frees_a_blocks_words_before_drawing_the_next(monkeypatch):
    # the instance above at one and two blocks, after a call that builds the
    # problem's cached tables: a block's words are its largest temporary, so
    # a second block that drew its words while the first one's were alive
    # would peak about one block's words higher
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    p = Problem(np.full(4, 0.25), np.full(8, 0.125), np.arange(32.0).reshape(4, 8))
    m, block = 2 * READ * 8, (1 << 16) // (4 * READ * 8)
    simulate_random_code(p, m, 1, seed=3)
    peaks = []
    for trials in (block, 2 * block):
        tracemalloc.start()
        simulate_random_code(p, m, trials, seed=3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0]


def test_simulate_codes_memory_is_one_call_at_the_largest_m_and_its_values(monkeypatch):
    # the instance above at M = 5 (a prefix of the words), 40 and 64 (two
    # tails): one sample holds one block's temporaries, as the call at M = 64
    # alone does, and one more value array of 8 bytes a trial for each other M
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    p = Problem(np.full(4, 0.25), np.full(8, 0.125), np.arange(32.0).reshape(4, 8))
    m, trials = 2 * READ * 8, 16 * (1 << 16) // (4 * READ * 8)
    simulate_random_code(p, m, 1, seed=3)
    peaks = []
    for call in (partial(simulate_random_codes, p, [m]), partial(simulate_random_codes, p, [5, 40, m])):
        tracemalloc.start()
        call(trials, seed=3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.05 * (peaks[0] + 2 * 8 * trials)


def test_simulate_memory_at_least_as_many_codewords_as_letters(monkeypatch):
    # M >= ny takes the presence-mask path, a (block, ny) mask of bytes; a
    # trial reads all its M = 256 < 2 * READ * 64 codewords, so the blocks
    # hold 2^16 / (4 * 256) = 64 trials
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    rng = np.random.default_rng(6)
    p = Problem(np.full(4, 0.25), rng.dirichlet(np.ones(64)),
                rng.integers(0, 5, (4, 64)).astype(float))
    peaks = []
    for trials in (256, 4096):
        tracemalloc.start()
        simulate_random_code(p, 256, trials, seed=3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 3 * 8 * montecarlo_mod.BUDGET


def test_simulate_memory_does_not_grow_with_m(monkeypatch):
    # a trial reads READ * 8 codewords at any M from 2 * READ * 8 on, where
    # a trial of 2^18 codewords drawn whole would peak at about 8 MB. Letter
    # 7 has mass 1e-12 and is the best letter of row 3, so no trial holds it
    # within its READ * 8 codewords, and every one takes the multinomial draw
    q = np.concatenate([np.full(7, (1 - 1e-12) / 7), [1e-12]])
    d = np.arange(32.0).reshape(4, 8)
    d[3, 7] = 0.0
    p = Problem(np.full(4, 0.25), q, d)
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    peaks, got = [], []
    for m in (1 << 18, 1 << 62):
        tracemalloc.start()
        got.append(simulate_random_code(p, m, 64, seed=3))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 3 * 8 * montecarlo_mod.BUDGET
    monkeypatch.undo()
    assert _same_bits(simulate_random_code(p, 1 << 62, 64, seed=3), got[1])


def test_simulate_stops_a_trial_once_it_holds_every_rows_best_letter(monkeypatch):
    # letter 2's mass rounds away in the CDF, so it can never be drawn, and
    # letter 0, of mass 15/16, is every row's best drawable letter: a trial
    # is final once it holds letter 0, which all 2000 trials do within their
    # c = READ * 3 codewords. At any M from 2c on, the trials lie c words
    # apart and take no multinomial draw, so their values are those of c
    # codewords
    q = np.array([0.9375, 0.0625, 1e-300])
    p = Problem(np.full(3, 1 / 3), q,
                np.array([[0.5, 1.0, 0.0], [0.25, 0.5, 0.0], [0.875, 1.0, 0.75]]))
    c = READ * 3
    codes = inverse_cdf(q, words_to_doubles(montecarlo_mod._trial_words(5, 0, c, 0, 2000)))
    assert (codes == 0).any(axis=1).all()
    words = []
    block = montecarlo_mod._word_block

    def counted(*args):
        words.append(args[-1])
        return block(*args)

    monkeypatch.setattr(montecarlo_mod, "_word_block", counted)
    one = simulate_random_code(p, montecarlo_mod.MAX_M, 1, seed=5)
    assert words == [c]
    many, draws = _tail_draws(monkeypatch, p, 10**9, 2000, seed=5)
    assert draws == []
    monkeypatch.undo()
    assert _same_bits(one, simulate_gather_min(p, c, 1, seed=5))
    assert _same_bits(many, simulate_gather_min(p, c, 2000, seed=5))


def _drawn_words(monkeypatch, *args, **kwargs):
    """A simulate_random_codes call's estimates and every array of words that
    goes through its inverse CDF, in call order."""
    drawn, inverse = [], montecarlo_mod._inverse_cdf

    def counted(q):
        draw, mass = inverse(q)

        def counting_draw(w):
            drawn.append(w.copy())
            return draw(w)
        return counting_draw, mass

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo_mod, "_inverse_cdf", counted)
        got = simulate_random_codes(*args, **kwargs)
    return got, drawn


def test_simulate_stops_reading_a_trial_inside_a_block_once_it_is_final(monkeypatch):
    # letters 0 and 1, of mass 1/2 each, are the best letters of rows 0 and
    # 1, so a trial is final once it holds both. The 500 trials form one
    # block, whose words come from one Philox call; only the slices a trial
    # reads go through the inverse CDF: 4 words each, and the other 4 of
    # its c = READ * 2 = 8 for the eighth of trials that the first 4 leave
    # open. A trial that misses a letter in all 8 takes the tail, whose
    # 4088 draws hold it but with probability 2^-4088, so every value is 0,
    # as that of 32 codewords but with probability 2^-31
    p = Problem(np.full(2, 0.5), np.full(2, 0.5), np.array([[0.0, 1.0], [1.0, 0.0]]))
    (got,), drawn = _drawn_words(monkeypatch, p, [4096], 500, seed=9)
    assert 0 < sum(w.size for w in drawn) <= 500 * 6
    assert _same_bits(got, simulate_gather_min(p, 32, 500, seed=9))


@pytest.mark.parametrize("ms", [[5, 40], [5, 2 * READ * 12]], ids=["prefix", "tail"])
def test_simulate_draws_each_word_once_where_no_trial_is_due_to_stop_early(monkeypatch, ms):
    # 12 letters, each row's best its own, and letter 0 of mass 0.01: a trial
    # is final only once it holds letter 0, due 0.4 or 0.48 times in the 40
    # or READ * 12 = 48 words it reads, so its codes are drawn in one pass,
    # and the mask of M = 5 < 12 reads their first 5. Every word goes through
    # the inverse CDF once; the tail's multinomial draws none
    q = np.concatenate([[0.01], np.full(11, 0.09)])
    p = Problem(np.full(12, 1 / 12), q, 1.0 - np.eye(12))
    _, drawn = _drawn_words(monkeypatch, p, ms, 300, seed=2, chunk=64)
    assert len(drawn) == 5 and sum(w.size for w in drawn) == 300 * min(max(ms), READ * 12)


def test_simulate_in_slices_draws_each_word_once_with_m_on_both_sides_of_ny(monkeypatch):
    # the instance above with a uniform prior: letter 0 is due 40 / 12 times
    # in the 40 words a trial reads, so the mask reads them in slices, which
    # also stop at M = 5 < 12. No word goes through the inverse CDF twice
    p = Problem(np.full(12, 1 / 12), np.full(12, 1 / 12), 1.0 - np.eye(12))
    got, drawn = _drawn_words(monkeypatch, p, [5, 40], 300, seed=2, chunk=64)
    words = np.concatenate([w.ravel() for w in drawn])
    assert 300 * 5 < words.size <= 300 * 40
    assert np.unique(words).size == words.size
    for m, mc in zip((5, 40), got):
        assert _shares_bits(mc, simulate_gather_min(p, m, 300, seed=2, stride=40))


@pytest.mark.parametrize("m", [4 * 4 + 3, 2 * READ * 4 - 1])
def test_simulate_blocks_where_some_trials_stop_early_and_others_never(m):
    # letter 2, of mass 2^-7, is the best letter of row 2: at these M, below
    # 2 * READ * ny, some trials hold it and stop early while the rest read
    # every codeword.
    # Letter 3, of mass 1e-12, is never drawn: it comes second in row 2's
    # order, so a trial without letter 2 reads that row's mask past it, and
    # with a fourth row it is that row's best letter, so no trial stops
    q = np.array([0.5 - 2**-8 - 5e-13, 0.5 - 2**-8 - 5e-13, 2**-7, 1e-12])
    d = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                  [0.75, 0.5, 0.0, 0.25], [1.0, 1.0, 0.5, 0.0]])
    codes = inverse_cdf(q, words_to_doubles(montecarlo_mod._trial_words(4, 0, m, 0, 300)))
    assert 0 < (codes == 2).any(axis=1).sum() < 300
    assert not (codes == 3).any()
    for nx in (3, 4):
        p = Problem(np.full(nx, 1 / nx), q, d[:nx])
        want = simulate_gather_min(p, m, 300, seed=4)
        for chunk in (7, 64, montecarlo_mod.CHUNK):
            assert _same_bits(simulate_random_code(p, m, 300, 4, chunk=chunk), want)


def _tail_problem(last=1e-12):
    """The 4x4 instance above: letter 2, of mass 2^-7, is row 2's best letter
    and letter 3, of mass 1e-12 by default, row 3's, so a trial stops within
    its c = READ * 4 codewords only if it holds letter 2 and, unless last is
    0, letter 3; the rest take the multinomial draw."""
    q = np.array([0.5 - 2**-8 - last / 2, 0.5 - 2**-8 - last / 2, 2**-7, last])
    d = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                  [0.75, 0.5, 0.0, 0.25], [1.0, 1.0, 0.5, 0.0]])
    return Problem(np.full(4, 0.25), q, d)


def _trial_values(monkeypatch, *args, **kwargs):
    """Every trial's value, as simulate_random_code hands them to np.mean."""
    seen, mean = [], np.mean

    def spy(values, *rest, **kw):
        seen.append(values.copy())
        return mean(values, *rest, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(np, "mean", spy)
        simulate_random_code(*args, **kwargs)
    return seen[0]


@pytest.mark.parametrize("m", [2 * READ * 4, 128, 257, 10**6, 2**62])
def test_simulate_past_the_read_limit_is_chunk_and_prefix_invariant(monkeypatch, m):
    # the multinomial draws come from one stream, taken in trial order
    # across blocks, so neither the block size nor the number of trials
    # changes any trial's value
    p = _tail_problem()
    want = _trial_values(monkeypatch, p, m, 300, 4)
    assert 0 < np.unique(want).size < 300
    for chunk in (1, 7, 64, montecarlo_mod.CHUNK):
        assert _trial_values(monkeypatch, p, m, 300, 4, chunk=chunk).tobytes() == want.tobytes()
    for trials in (2, 65, 299):
        assert _trial_values(monkeypatch, p, m, trials, 4, chunk=64).tobytes() == \
            want[:trials].tobytes()
    assert simulate_random_code(p, m, 1, 4).mean == want[0]


@pytest.mark.parametrize("last", [1e-12, 0.0])
@pytest.mark.parametrize("m", [2 * READ * 4, 128, 10**6, 2**62])
def test_simulate_past_the_read_limit_matches_the_exact_average(m, last):
    # a z-test at 5 sigma. The sample does not see a rare event: holding
    # letter 3 lowers row 2 by at most 0.25 and row 3 by at most 1, so the
    # mean may also miss the exact average by 0.25 * (0.25 + 1) times the
    # probability of the rarer side, holding letter 3 or not. Of mass 0, the
    # last letter, it must never be held: the multinomial gives it the rest
    p = _tail_problem(last)
    mc = simulate_random_code(p, m, 2000, seed=1)
    exact = exact_expected_distortion(p, m)
    held = -np.expm1(m * np.log1p(-last))
    allowance = min(held, 1.0 - held) * 0.3125
    assert abs(mc.mean - exact) <= 5 * mc.stderr + allowance + 1e-12


def _bench_problem(seed=3, n=8):
    """The random-coding benchmark's n x n instance, n of 8, 20 and 50, at rng
    seed `seed`: at seed 3 most trials of the 8x8 one are still open, partly
    held, after their READ * 8 codewords."""
    rng = np.random.default_rng(seed)
    for size in (8, 20, 50):
        p = Problem(rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size)),
                    rng.integers(0, 5, (size, size)).astype(float))
        if size == n:
            return p


def _tail_draws(monkeypatch, *args, **kwargs):
    """A simulate_random_code call's estimate and every multinomial draw it
    makes, as (count, rows) in call order."""
    draws, generator = [], np.random.Generator

    class Spy:
        def __init__(self, bit_generator):
            self._generator = generator(bit_generator)

        def multinomial(self, n, pvals, size=None):
            draws.append((n, np.array(pvals)))
            return self._generator.multinomial(n, pvals, size)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Generator", Spy)
        got = simulate_random_code(*args, **kwargs)
    return got, draws


def _twelve_letters(q, p_x=np.full(12, 1 / 12)):
    """12 letters at prior q, each row's best letter its own."""
    return Problem(p_x, np.array(q), 1.0 - np.eye(12))


# the CI's 12x12 instance: letter 0, of mass 0.03, is the rarest a final trial must hold
_CI_12 = partial(_twelve_letters, [0.03, 0.07] + [0.09] * 10, np.array([0.08] * 10 + [0.1, 0.1]))


# (mean, stderr) as float.hex past 8 letters, so that a change to the kernel
# that moves a bit fails here, not only against the gather-and-min oracle
PINNED = {
    "ci-one-pass": (
        _CI_12, [5, 12, 20], 2000, 3,
        [("0x1.4be0ded288ce6p-1", "0x1.60d2ca6a228cdp-10"),
         ("0x1.70941c8216c61p-2", "0x1.0a74a842df9e7p-9"),
         ("0x1.8678c0053e2d6p-3", "0x1.fcea41abaa285p-10")]),
    "ci-sliced-tail": (
        _CI_12, [5, 12, 100], 2000, 3,
        [("0x1.4c408d8ec95bfp-1", "0x1.5f1be9a7ade0ep-10"),
         ("0x1.70e5604189375p-2", "0x1.0d91838ebfcd3p-9"),
         ("0x1.0e0221426fe73p-8", "0x1.9eac4b6536db1p-12")]),
    "one-pass-tail": (
        partial(_twelve_letters, [0.01] + [0.09] * 11), [5, 12, 100], 2000, 3,
        [("0x1.4d4fdf3b645a2p-1", "0x1.56f1db8fc8488p-10"),
         ("0x1.79c54a6921735p-2", "0x1.088d34fded429p-9"),
         ("0x1.01b4e81b4e81bp-5", "0x1.d9b52ad7ff261p-11")]),
    "sliced": (
        partial(_twelve_letters, [1 / 12] * 12), [5, 12, 40], 300, 2,
        [("0x1.48641fdb97531p-1", "0x1.a85ca94eac11dp-9"),
         ("0x1.6b851eb851eb8p-2", "0x1.3ed57583aa68cp-8"),
         ("0x1.1a2b3c4d5e6f7p-5", "0x1.6e0e65092842fp-9")]),
    "bench-50": (
        partial(_bench_problem, 0, 50), [2, 8, 64], 5000, 0,
        [("0x1.58d747d15411bp+0", "0x1.f44699e6881b5p-9"),
         ("0x1.77ca6f551af35p-2", "0x1.ec90fd7f700cdp-10"),
         ("0x1.1a8d48d5b67bap-6", "0x1.6da12f679e159p-11")]),
}


@pytest.mark.parametrize("case", PINNED)
def test_simulate_past_8_letters_keeps_its_pinned_bits(case):
    # M below, at and above ny, from codes drawn in one pass and in slices,
    # with and without a tail: the CI's 12x12 calls with M = 12 added, which
    # reads a prefix and moves no other M, and the random-coding benchmark's
    # 50x50 exact call at seed 0
    problem, ms, trials, seed, want = PINNED[case]
    got = simulate_random_codes(problem(), ms, trials, seed)
    assert [(mc.mean.hex(), mc.stderr.hex()) for mc in got] == want


@pytest.mark.parametrize("problem", [_tail_problem, _bench_problem], ids=["tail", "bench-seed3"])
def test_simulate_tail_draws_only_the_letters_a_trial_lacks(monkeypatch, problem):
    # a trial still open after its c = READ * ny codewords draws the rest
    # from the prior's mass with its held letters set to 0, and one last
    # column of 0, which numpy fills with the held letters' share; the
    # oracle reads each trial's held letters off its c codewords, and it is
    # open while some row's first held rank is not its first drawable one
    p = problem()
    ny, c = p.y_size, READ * p.y_size
    _, mass = _inverse_cdf(p.q_y)
    codes = inverse_cdf(p.q_y, words_to_doubles(montecarlo_mod._trial_words(2, 0, c, 0, 300)))
    held = np.zeros((300, ny), dtype=bool)
    held[np.arange(300)[:, None], codes] = True
    drawable = first_held_rank((mass > 0)[None], p.row_order)
    held = held[(first_held_rank(held, p.row_order) != drawable).any(axis=1)]
    assert held.shape[0] > 150
    want = np.column_stack([np.where(held, 0.0, mass), np.zeros(held.shape[0])])
    for m in (2 * c, 10**6):
        _, draws = _tail_draws(monkeypatch, p, m, 300, 2, chunk=64)
        assert {n for n, _ in draws} == {m - c}
        got = np.concatenate([rows for _, rows in draws])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("problem", [_tail_problem, _bench_problem, partial(_bench_problem, 1)],
                         ids=["tail", "bench-seed3", "bench-seed1"])
def test_simulate_tail_of_a_partly_held_trial_matches_the_exact_average(problem):
    # a z-test at 5 sigma with the benchmark's allowance for an unseen
    # outcome: one of probability 14 / trials is missed with chance e^-14,
    # and moves the mean by at most spread / trials for each of those 14.
    # A tail that gave the held letters' share to the last letter would
    # hold that letter in every open trial: it fails here on the 4x4 tail
    # instance and at seed 1, where the last letter is rare and some row's
    # best; at seed 3 the last letter, of mass 0.23, is held anyway
    p = problem()
    ny, trials = p.y_size, 10**4
    spread = np.ptp(p.d[np.ix_(p.p_x > 0, p.q_y > 0)])
    for m in (2 * READ * ny, 2 * READ * ny + 1, 8 * READ * ny, 10**6):
        mc = simulate_random_code(p, m, trials, seed=1)
        exact = exact_expected_distortion(p, m)
        assert abs(mc.mean - exact) <= max(5 * mc.stderr, 14 * spread / trials) + 1e-12


def test_simulate_generates_at_most_the_read_limit_of_words_a_trial(monkeypatch):
    # at 8x8 with M = 512 a block asked Philox for every trial's 512 words;
    # it now asks for READ * 8 of them
    p = _bench_problem(0)
    words = []
    block = montecarlo_mod._word_block

    def counted(*args):
        words.append(args[-1])
        return block(*args)

    monkeypatch.setattr(montecarlo_mod, "_word_block", counted)
    simulate_random_code(p, 512, 10**4, seed=0)
    assert 0 < sum(words) <= 10**4 * READ * 8


@pytest.mark.parametrize("m", [0, montecarlo_mod.MAX_M + 1, 10**20])
def test_simulate_rejects_m_out_of_range(binary_hamming, m):
    with pytest.raises(ValueError, match="M must be between 1 and 9223372036854775807"):
        simulate_random_code(binary_hamming, m, 1, seed=0)


def test_simulate_in_slices_matches_the_gather_and_min_kernel_bit_for_bit(monkeypatch):
    # a budget of 8 elements runs every trial in a block of its own, and the
    # trials of at least as many codewords as letters read slices that
    # double from 4; the oracle draws each trial whole
    rng = np.random.default_rng(12)
    for nx, ny in ((3, 5), (6, 40)):
        p = make_random_problem(rng, nx=nx, ny=ny)
        for m in (9, 21, min(64, 2 * READ * ny - 1)):
            want = simulate_gather_min(p, m, 200, seed=m)
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo_mod, "BUDGET", 8)
                assert _same_bits(simulate_random_code(p, m, 200, seed=m), want)


def test_min_uniform_memory_does_not_grow_with_m(monkeypatch):
    # at a budget of 2^16 elements the blocks hold 256 trials at M = 256
    # and 32 at M = 2048; unbounded, the second would hold 16 MiB
    monkeypatch.setattr(montecarlo_mod, "BUDGET", 1 << 16)
    peaks, stats = [], []
    for m in (256, 2048):
        tracemalloc.start()
        stats.append(sample_min_uniform(m, 1024, seed=4).statistic)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 3 * 8 * montecarlo_mod.BUDGET
    monkeypatch.undo()
    assert sample_min_uniform(2048, 1024, seed=4).statistic == stats[1]


def test_simulate_binary_hamming_matches_exact(binary_hamming):
    mc = simulate_random_code(binary_hamming, 2, 100000, seed=5)
    assert abs(mc.mean - 0.25) <= 3 * mc.stderr
    assert mc.trials == 100000 and mc.seed == 5


def test_simulate_m1_matches_full_average(rng):
    p = make_random_problem(rng)
    expect = float(np.sum(p.p_x[:, None] * p.q_y[None, :] * p.d))
    mc = simulate_random_code(p, 1, 50000, seed=3)
    assert abs(mc.mean - expect) <= 3 * mc.stderr


def test_simulate_point_mass_prior_has_no_noise():
    p = Problem([0.25, 0.75], [0.0, 1.0], [[0.2, 0.9], [0.4, 0.1]])
    mc = simulate_random_code(p, 4, 1000, seed=0)
    assert mc.stderr <= 1e-12
    assert mc.mean == pytest.approx(0.25 * 0.9 + 0.75 * 0.1, abs=1e-12)


def test_simulate_validates_inputs(binary_hamming):
    with pytest.raises(ValueError):
        simulate_random_code(binary_hamming, 0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_random_code(binary_hamming, 2, 0, seed=0)
    # a chunk below 1 made no blocks and returned uninitialised memory
    for chunk in (0, -5):
        with pytest.raises(ValueError, match="chunk must be at least 1"):
            simulate_random_code(binary_hamming, 2, 10, seed=0, chunk=chunk)


def test_simulate_rejects_a_prior_without_support():
    # the inverse CDF looked for the last letter of positive mass and raised IndexError
    with pytest.raises(InvariantViolation, match="q_y has empty support"):
        simulate_random_code(Problem([1], [0, 0], [[0, 1]]), 3, 10, seed=0)


def test_min_uniform_ks_passes():
    for m in (1, 3):
        summary = sample_min_uniform(m, 100000, seed=11)
        assert summary.passed
        assert summary.statistic < summary.critical_value


def test_min_uniform_mean_of_two():
    summary = sample_min_uniform(2, 100000, seed=12)
    assert abs(summary.sample_mean - 1.0 / 3.0) <= 3 * summary.sample_stderr


def test_pc_uniformity_ks_passes(binary_hamming, rng):
    summary = sample_pc_uniformity(binary_hamming, 0, 100000, seed=13)
    assert summary.passed
    assert abs(summary.sample_mean - 0.5) <= 3 * summary.sample_stderr
    p = make_random_problem(rng)
    summary = sample_pc_uniformity(p, 0, 50000, seed=14)
    assert summary.passed


def test_pc_uniformity_point_mass_prior():
    p = Problem([1.0], [0.0, 1.0], [[0.3, 0.8]])
    summary = sample_pc_uniformity(p, 0, 50000, seed=15)
    assert summary.passed  # p_c reduces to the raw uniform draw


def test_oracle_agreement_panel():
    rng = np.random.default_rng(2)
    hits = 0
    for i in range(20):
        p = make_random_problem(rng, nx=int(rng.integers(2, 9)),
                                ny=int(rng.integers(2, 9)))
        m = (2, 3, 5, 10)[i % 4]
        exact = exact_expected_distortion(p, m)
        mc = simulate_random_code(p, m, 20000, seed=1000 + i)
        if abs(mc.mean - exact) <= 3 * mc.stderr:
            hits += 1
    assert hits >= 19


def test_inverse_cdf_never_draws_a_zero_mass_letter():
    # cum_q[-1] rounds to 1 - 2^-53, the largest double below 1, so a draw
    # there is not below any cumulative sum; it must land on letter 2, the
    # last one with mass, not on letter 3
    q = np.array([0.7, 0.2, 0.1, 0.0])
    w = (np.array([2**53 - 1, int(0.95 * 2**53)], dtype=np.uint64) << 11) | 2047
    u = words_to_doubles(w)
    assert np.cumsum(q)[-1] == u[0] == np.nextafter(1.0, 0.0) and u[1] == 0.95
    np.testing.assert_array_equal(_inverse_cdf(q)[0](w), [2, 2])
    np.testing.assert_array_equal(inverse_cdf(q, u), [2, 2])


@st.composite
def absorbing_priors(draw):
    """Priors of 1 to 8 letters with zero masses, masses that rounding
    absorbs into the cumulative sum, and masses too small to hold a draw."""
    masses = st.sampled_from([0.0, 1e-300, 1e-17, 2.0**-54]) | st.floats(0.0, 1.0)
    v = np.array(draw(st.lists(masses, min_size=1, max_size=8)))
    assume(v.sum() > 1e-3)
    return v / v.sum()


@settings(max_examples=200, deadline=None)
@given(q=absorbing_priors())
@example(q=np.array([0.75, 1e-17, 0.25]))
@example(q=np.array([1e-17, 1e-17, 1.0 - 2e-17]))
@example(q=np.array([0.7, 0.2, 0.1, 0.0]))
def test_inverse_cdf_mass_is_each_letters_share_of_the_draws(q):
    # the oracle's least draw k * 2^-53 that lands on letter y or later, by
    # a bisection of k in [0, 2^53] for every letter at once; letter y's
    # share of the 2^53 draws is the next letter's least k less its own
    letters = np.arange(q.size + 1)
    lo, hi = np.zeros(letters.size, np.int64), np.full(letters.size, 2**53)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        late = inverse_cdf(q, np.minimum(mid, 2**53 - 1) * 2.0**-53) >= letters
        late |= mid == 2**53
        lo, hi = np.where(late, lo, mid + 1), np.where(late, mid, hi)
    draw, mass = _inverse_cdf(q)
    shares = [Fraction(int(k), 2**53) for k in np.diff(lo)]
    assert [Fraction(v) for v in mass] == shares
    assert sum(map(Fraction, mass)) == 1 and mass.sum() == 1.0
    # the library's draws agree with the oracle's on both sides of each share's ends
    k = np.concatenate([lo, lo - 1])
    w = k[(k >= 0) & (k < 2**53)].astype(np.uint64) << np.uint64(11)
    np.testing.assert_array_equal(draw(w), inverse_cdf(q, words_to_doubles(w)))


@st.composite
def dyadic_priors(draw, n):
    """Priors in multiples of 1/2^j, j <= 7, so that every cumulative sum
    is exact and falls on an edge of the inverse-CDF table's bins."""
    w = np.array(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n)))
    total = 1 << max(int(w.sum()) - 1, 0).bit_length()
    w[draw(st.integers(0, n - 1))] += total - w.sum()
    return w / total


def _edge_words(q, rng):
    """Words on the draw lattice at and on either side of each bin edge,
    cumulative sum and 1, with random low 11 bits, which no draw reads."""
    points = np.concatenate([np.arange(_BINS) / _BINS, np.cumsum(q), [1.0]])
    lattice = np.floor(points * 2.0**53).astype(np.int64)
    lattice = np.concatenate([lattice - 1, lattice, lattice + 1])
    lattice = lattice[(lattice >= 0) & (lattice < 2**53)].astype(np.uint64)
    return (lattice << 11) | rng.integers(0, 2**11, lattice.size, dtype=np.uint64)


def _same_bits(a, b):
    return (a.mean.hex(), a.stderr.hex()) == (b.mean.hex(), b.stderr.hex())


@settings(max_examples=100, deadline=None)
@given(problem=problems(), data=st.data())
def test_simulate_matches_the_gather_and_min_kernel_bit_for_bit(problem, data):
    ny = problem.y_size
    dyadic = Problem(problem.p_x, data.draw(dyadic_priors(ny)), problem.d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    seed = data.draw(st.integers(0, 2**63 - 1))
    chunk = data.draw(st.integers(1, 64))
    for p in (problem, dyadic):
        w = np.concatenate([_edge_words(p.q_y, rng), rng.integers(0, 2**64, 1000, np.uint64)])
        draw, _ = _inverse_cdf(p.q_y)
        np.testing.assert_array_equal(draw(w), inverse_cdf(p.q_y, words_to_doubles(w)))
        np.testing.assert_array_equal(draw(w), draw(w >> 11 << 11))
        for m in {1, 2, max(ny - 1, 1), ny, ny + 1, 4 * ny + 3, min(257, 2 * READ * ny - 1)}:
            got = simulate_random_code(p, m, 150, seed)
            assert _same_bits(got, simulate_gather_min(p, m, 150, seed))
            assert _same_bits(got, simulate_random_code(p, m, 150, seed, chunk=chunk))


def test_simulate_matches_the_gather_and_min_kernel_on_wide_sources():
    # numpy sums a row of more than 8 letters pairwise, so the order of the
    # sum over the source depends on the layout; with one trial per call
    # the mean is that trial's value itself
    rng = np.random.default_rng(9)
    wide = [make_random_problem(rng, nx=nx, ny=ny)
            for nx, ny in ((9, 4), (40, 30), (70, 12), (4, 256))]
    # at 256 letters the draw table is int16 and the least-rank table uint16;
    # with 1 - 1e-6 on one letter, few rows' first drawable letters are held
    heavy = np.full(30, 1e-6 / 29)
    heavy[rng.integers(30)] = 1 - 1e-6
    wide.append(Problem(wide[1].p_x, heavy, wide[1].d))
    for p in wide:
        ny = p.y_size
        for m in (ny - 1, ny, ny + 1):
            for seed in range(10):
                assert _same_bits(simulate_random_code(p, m, 1, seed),
                                  simulate_gather_min(p, m, 1, seed))
            assert _same_bits(simulate_random_code(p, m, 500, 0),
                              simulate_gather_min(p, m, 500, 0))


def test_simulate_matches_the_gather_and_min_kernel_on_wide_sources_of_few_letters():
    # up to 8 letters a trial's value is looked up by its mask byte in a table
    # summed over rows of nx > 8, pairwise, as the oracle sums its trials; at
    # every M below the tail, with zero and tiny masses
    rng = np.random.default_rng(14)
    q = rng.dirichlet(np.ones(7))
    q[[1, 4]] = 0.0, 1e-12
    for nx, ny, prior in ((9, 1, None), (12, 5, None), (40, 8, None), (17, 7, q / q.sum())):
        p = make_random_problem(rng, nx=nx, ny=ny)
        if prior is not None:
            p = Problem(p.p_x, prior, p.d)
        for m in range(1, 2 * READ * ny):
            assert _same_bits(simulate_random_code(p, m, 60, seed=m),
                              simulate_gather_min(p, m, 60, seed=m))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 40).map(lambda n: 8 * n), data=st.data())
def test_pack_is_packbits_in_little_bit_order(width, data):
    # one multiply per 8 letters against numpy's own packing, from one-letter
    # masks padded to a byte up to 320 letters, with all-zero and all-one rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ny = data.draw(st.integers(max(width - 7, 1), width))
    held = np.zeros((data.draw(st.integers(1, 40)), width), dtype=bool)
    held[:, :ny] = rng.random((held.shape[0], ny)) < data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    held[0], held[-1] = True, False
    got = _pack(held)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.packbits(held, axis=1, bitorder="little"))


@pytest.mark.parametrize("ny", [1, 7, 8, 9, 255, 256, 300, None])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_least_rank_table_finds_each_rows_first_held_letter(ny, data):
    # the packed-byte lookup against the gather in every row's order and an
    # argmax, on random row orders and masks, down to single-letter ones; the
    # table turns uint16 at 256 letters. The kernel packs masks padded to
    # whole bytes
    ny = ny or data.draw(st.integers(1, 300))
    nx = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    order = rng.random((nx, ny)).argsort(axis=1)
    trials = data.draw(st.integers(1, 30))
    held = rng.random((trials, ny)) < data.draw(st.sampled_from([0.0, 1 / ny, 0.5, 1.0]))
    held[np.arange(trials), rng.integers(0, ny, trials)] = True
    rank, least = _ranks(order)
    np.testing.assert_array_equal(rank[order, np.arange(nx)[:, None]],
                                  np.tile(np.arange(ny), (nx, 1)))
    assert (rank[ny:] == ny).all() and rank.dtype == np.min_scalar_type(ny)
    want = first_held_rank(held, order)
    packed = _pack(np.pad(held, ((0, 0), (0, rank.shape[0] - ny))))
    for _ in range(2):  # the second call reads the table the first one built
        np.testing.assert_array_equal(least(packed), want)


@st.composite
def shared_samples(draw):
    """A problem, up to 5 letters or 9 to 40 on the reproduction side, and
    the Ms of one shared call: M at most the words a trial reads, and with a
    largest M from 2 * READ * ny on, a second one past those words, so that
    two multinomial streams run."""
    if draw(st.booleans()):
        p = draw(problems())
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = make_random_problem(rng, nx=draw(st.integers(1, 12)), ny=draw(st.integers(9, 40)))
    c = READ * p.y_size
    top = draw(st.integers(1, 2 * c - 1) | st.integers(2 * c, 3 * c) | st.just(10**9))
    read = top if top < 2 * c else c
    ms = draw(st.lists(st.integers(1, read), max_size=4))
    if top >= 2 * c:
        ms.append(draw(st.integers(c + 1, top - 1)))
    return p, draw(st.permutations([*ms, top, *ms[:1]])), read


def _shares_bits(a, b):
    return (a.mean.hex(), a.stderr.hex(), a.trials, a.seed) == \
        (b.mean.hex(), b.stderr.hex(), b.trials, b.seed)


@settings(max_examples=60, deadline=None)
@given(sample=shared_samples(), seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 120),
       chunk=st.integers(1, 64))
def test_simulate_codes_read_every_m_from_one_sample_bit_for_bit(sample, seed, trials, chunk):
    # each M at most the words a trial reads is the gather-and-min of the
    # first M words of the largest M's rows; the largest M is its own call's;
    # and no chunk changes any M, the two tail streams included
    p, ms, read = sample
    got = simulate_random_codes(p, ms, trials, seed)
    assert len(got) == len(ms)
    stride = (read + 3) // 4 * 4
    for m, mc in zip(ms, got):
        if m <= read:
            assert _shares_bits(mc, simulate_gather_min(p, m, trials, seed, stride=stride))
    assert _shares_bits(got[ms.index(max(ms))], simulate_random_code(p, max(ms), trials, seed))
    for a, b in zip(got, simulate_random_codes(p, ms, trials, seed, chunk=chunk)):
        assert _shares_bits(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 64))
def test_simulate_where_one_letter_is_every_rows_best_matches_the_gather_and_min(data, seed,
                                                                                  chunk):
    # past 8 letters, letter b has a zero column of d and mass m >= 0.3, so a
    # trial is final once it holds b, due m * read times in the words it
    # reads: Ms below 1 / m read them in one pass (m * read < 1), Ms with
    # one at least ny in slices. An M past those words takes the tail, which
    # no trial needs once every trial holds b within them (assumed)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nx, ny = data.draw(st.integers(1, 12)), data.draw(st.integers(9, 40))
    b, m = data.draw(st.integers(0, ny - 1)), data.draw(st.integers(30, 90)) / 100
    q = np.insert(rng.dirichlet(np.ones(ny - 1)) * (1 - m), b, m)
    d = rng.integers(1, 5, (nx, ny)).astype(float)
    d[:, b] = 0.0
    p, c, trials = Problem(rng.dirichlet(np.ones(nx)), q, d), READ * ny, 150
    few = data.draw(st.lists(st.integers(1, math.ceil(1 / m) - 1), min_size=1, max_size=3))
    many = data.draw(st.lists(st.integers(1, 3 * c) | st.just(10**9), max_size=3))
    many.append(data.draw(st.integers(ny, 3 * c) | st.just(10**9)))
    for ms, one_pass in ((few, True), (many, False)):
        read = max(ms) if max(ms) < 2 * c else c
        assert (_inverse_cdf(q)[1][b] * read < 1) == one_pass
        if max(ms) > read:
            codes = inverse_cdf(q, words_to_doubles(montecarlo_mod._trial_words(seed, 0, read, 0,
                                                                                  trials)))
            assume((codes == b).any(axis=1).all())
        stride = (read + 3) // 4 * 4
        for size, got in zip(ms, simulate_random_codes(p, ms, trials, seed, chunk=chunk)):
            want = simulate_gather_min(p, min(size, read), trials, seed, stride=stride)
            assert _shares_bits(got, want)


def test_simulate_codes_streams_each_tail_m_apart(monkeypatch):
    # past the words a trial reads, the largest M draws its multinomials from
    # stream (seed, 1) and the next from (seed, 2): the smaller tail M's trials
    # equal a call at that M with stream 1 relabelled as 2
    p = _tail_problem()
    c = READ * p.y_size
    seen, mean = [], np.mean

    def spy(values, *rest, **kw):
        seen.append(values.copy())
        return mean(values, *rest, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(np, "mean", spy)
        simulate_random_codes(p, [3 * c, 2 * c], 300, 4, chunk=64)
    philox = np.random.Philox

    def relabelled(key):  # stream 0 holds the codewords
        return philox(key=np.array([key[0], 2 if key[1] == 1 else key[1]], np.uint64))

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Philox", relabelled)
        alone = _trial_values(monkeypatch, p, 2 * c, 300, 4)
    assert alone.tobytes() == seen[0].tobytes()
    assert seen[1].tobytes() == _trial_values(monkeypatch, p, 3 * c, 300, 4).tobytes()
    assert not np.array_equal(seen[0], _trial_values(monkeypatch, p, 2 * c, 300, 4))


def test_simulate_codes_validates_every_m(binary_hamming):
    for ms in ([], [3, 0], [2, montecarlo_mod.MAX_M + 1]):
        with pytest.raises(ValueError, match="M must be between 1 and 9223372036854775807"):
            simulate_random_codes(binary_hamming, ms, 10, seed=0)
    with pytest.raises(TypeError, match="^M must be an integer, got 3.0"):
        simulate_random_codes(binary_hamming, [2, 3.0], 10, seed=0)
