import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedwatch import core
from fedwatch.core import (
    STREAM_BLOCK_IDS,
    STREAM_FIELD_LIMIT,
    ClientUpdate,
    ModelParams,
    PresetWords,
    Rng,
    StreamGrid,
    _seed_sequence_words,
    mix64,
    substream,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def mp(values, shape):
    return ModelParams(np.asarray(values, dtype=float), shape)


class TestModelParams:
    def test_length_must_match_shape(self):
        with pytest.raises(ValueError):
            mp([1, 2, 3], (2, 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mp([np.nan, 0, 0, 0, 0, 0], (2, 2))
        with pytest.raises(ValueError):
            mp([np.inf, 0, 0, 0, 0, 0], (2, 2))

    def test_weights_biases_views(self):
        p = mp([1, 2, 3, 4, 5, 6], (2, 2))
        assert p.weights().tolist() == [[1, 2], [3, 4]]
        assert p.biases().tolist() == [5, 6]

    def test_bias_slot_location(self):
        p = ModelParams.zeros((3, 4))
        v = p.values.copy()
        v[3 * 4 + 2] = 7.0
        p2 = mp(v, (3, 4))
        assert p2.biases()[2] == 7.0

    def test_add_sub(self):
        a = mp([1, 2, 3, 4, 5, 6], (2, 2))
        b = mp([1, 1, 1, 1, 1, 1], (2, 2))
        assert (a + b).values.tolist() == [2, 3, 4, 5, 6, 7]
        with pytest.raises(ValueError):
            a + ModelParams.zeros((3, 1))


class TestClientUpdate:
    def test_validates_fields(self):
        delta = ModelParams.zeros((2, 2))
        ClientUpdate(client=0, delta=delta, num_samples=1)
        with pytest.raises(ValueError):
            ClientUpdate(client=0, delta=delta, num_samples=0)
        with pytest.raises(ValueError):
            ClientUpdate(client=-1, delta=delta, num_samples=1)


class TestRng:
    def test_same_stream_identical_draws(self):
        a = Rng(123456789, 7)
        b = Rng(123456789, 7)
        assert np.array_equal(a.random(10_000), b.random(10_000))

    def test_distinct_streams_differ(self):
        a = Rng(123456789, 7)
        b = Rng(123456789, 8)
        assert not np.array_equal(a.random(100), b.random(100))

    def test_mix64_frozen_values(self):
        # Pinned so a platform or refactor change cannot slip by silently.
        assert mix64(0, 0) == 16294208416658607535
        assert mix64(1, 0) == 10451216379200822465
        assert mix64(0, 1) == 7960286522194355700

    def test_substream_packing_disjoint(self):
        seen = {substream(p, a, b) for p in (1, 2) for a in (0, 1, 5) for b in (0, 3)}
        assert len(seen) == 12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @example(0, 0)
    @example(2**64 - 1, 2**64 - 1)
    def test_is_the_generator_it_seeds(self, seed, stream_id):
        # Each draw the layers make, on the same stream as a plain Generator.
        rng = Rng(seed, stream_id)
        assert isinstance(rng, np.random.Generator)
        gen = np.random.Generator(np.random.PCG64(mix64(seed, stream_id)))
        draws = [
            lambda g: g.permutation(13),
            lambda g: g.random(),
            lambda g: g.random(7),
            lambda g: g.integers(1, 500),
            lambda g: g.integers(0, 2**40, size=5),
            lambda g: g.standard_normal((3, 4)),
            lambda g: g.normal(0.0, 2.5, size=6),
            lambda g: g.dirichlet(np.full(5, 0.3)),
            lambda g: g.choice(20, size=8, replace=False),
            lambda g: g.choice(20, size=8),
        ]
        for draw in draws:
            assert np.asarray(draw(rng)).tobytes() == np.asarray(draw(gen)).tobytes()

    def test_substream_range_checks(self):
        with pytest.raises(ValueError):
            substream(1, 1 << 24, 0)
        with pytest.raises(ValueError):
            substream(1, 0, -1)


EDGE = STREAM_FIELD_LIMIT - 1  # the largest round or client id


@st.composite
def grids(draw):
    """(clients, block bound, rounds, asked (t, c) pairs): the pairs cover a
    span of rounds that straddles a block edge when the grid has one, in any
    order."""
    clients = draw(st.lists(
        st.one_of(st.integers(0, 40), st.sampled_from([0, 1, EDGE - 1, EDGE])),
        min_size=1, max_size=30, unique=True,
    ))
    bound = draw(st.sampled_from([1, 2 * len(clients), 3 * len(clients) + 1, STREAM_BLOCK_IDS]))
    block = max(1, bound // len(clients))
    rounds = draw(st.one_of(st.integers(1, 12), st.integers(1, STREAM_FIELD_LIMIT)))
    edge = draw(st.integers(0, (rounds - 1) // block)) * block
    first = max(0, edge - draw(st.integers(0, 3)))
    last = min(rounds, edge + draw(st.integers(1, 3)))
    pairs = draw(st.permutations([(t, c) for t in range(first, last) for c in clients]))
    return clients, bound, rounds, pairs


class TestStreams:
    @pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_hash_matches_seed_sequence(self, entropy):
        # Below 2**32 SeedSequence reads a single 32-bit word.
        words = _seed_sequence_words(np.array([entropy], dtype=np.uint64))
        expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        assert words.dtype == np.uint64
        assert words.shape == (1, 4)
        assert np.array_equal(words[0], expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, (1 << 16) - 1), grids())
    @example(0, 5, ([3], STREAM_BLOCK_IDS, 1, [(0, 3)]))
    @example(2**64 - 1, 6, ([0, EDGE], 2, STREAM_FIELD_LIMIT, [(EDGE, EDGE), (EDGE - 1, 0)]))
    @example(7, 5, (list(range(150)), STREAM_BLOCK_IDS, 30, [(t, c) for t in (26, 27) for c in range(150)]))
    def test_every_stream_starts_where_rng_does(self, seed, purpose, grid):
        clients, bound, rounds, pairs = grid
        with mock.patch.object(core, "STREAM_BLOCK_IDS", bound):
            streams = StreamGrid(seed, purpose, rounds, clients)
        for t, c in pairs:
            got, want = streams.rng(t, c), Rng(seed, substream(purpose, t, c))
            assert (got.seed, got.stream_id) == (want.seed, want.stream_id)
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.permutation(17), want.permutation(17))
            assert np.array_equal(got.normal(0.0, 2.0, size=5), want.normal(0.0, 2.0, size=5))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), max_size=50))
    @example(0, [0, 1])  # the values test_mix64_frozen_values pins
    @example(1, [0])
    @example(2**64 - 1, [2**64 - 1, 2**64 - 2])  # both additions wrap
    def test_array_mix64_equals_int_mix64(self, seed, ids):
        got = mix64(seed, np.array(ids, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(seed, s) for s in ids]

    def test_one_hash_per_block_of_rounds(self):
        calls = []

        def counted(entropy, original=_seed_sequence_words):
            calls.append(entropy.size)
            return original(entropy)

        with mock.patch.object(core, "_seed_sequence_words", counted):
            for bound, sizes in ((1, [3] * 10), (7, [6] * 5), (STREAM_BLOCK_IDS, [30])):
                calls.clear()
                with mock.patch.object(core, "STREAM_BLOCK_IDS", bound):
                    streams = StreamGrid(1, 5, 10, [4, 0, 2])
                for t in range(10):
                    for c in (0, 2, 4):
                        streams.rng(t, c)
                assert calls == sizes

    @pytest.mark.parametrize(
        "purpose, rounds, clients, message",
        [
            (1 << 16, 1, [0], "substream purpose out of range: 65536"),
            (5, STREAM_FIELD_LIMIT + 1, [0], f"substream component a out of range: {STREAM_FIELD_LIMIT}"),
            (5, 1, [3, STREAM_FIELD_LIMIT], f"substream component b out of range: {STREAM_FIELD_LIMIT}"),
            (5, 1, [3, -1], "substream component b out of range: -1"),
        ],
    )
    def test_out_of_range_fields_raise_substreams_error(self, purpose, rounds, clients, message):
        with pytest.raises(ValueError) as e:
            StreamGrid(0, purpose, rounds, clients)
        assert str(e.value) == message

    def test_rounds_outside_the_grid_are_refused(self):
        streams = StreamGrid(0, 5, 3, [0])
        for t in (-1, 3):
            with pytest.raises(IndexError):
                streams.rng(t, 0)

    def test_preset_words_serve_only_pcg64s_request(self):
        preset = PresetWords(np.zeros(4, dtype=np.uint64))
        assert preset.generate_state(4, np.uint64).dtype == np.uint64
        for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
            with pytest.raises(ValueError):
                preset.generate_state(n_words, dtype)

    def test_loading_a_config_does_not_import_numpy_random(self):
        # Set-up time is measured on exactly this; numpy.random loads with
        # the first simulation layer imported instead.
        code = (
            "import sys, fedwatch; fedwatch.load_config('configs/default.json'); "
            "print('numpy.random' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
