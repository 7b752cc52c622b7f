import numpy as np
import pytest

from synvec.errors import ParseError
from synvec.pairgen import (
    ORIGIN_AUGMENTED,
    ORIGIN_NATURAL,
    PairDataset,
    generate_pairs,
    keep_probability,
    read_pairs,
    write_pairs,
)


class TestKeepProbability:
    def test_adjacent_always_kept(self):
        assert keep_probability(1, 5) == 1.0

    def test_farthest_offset(self):
        assert keep_probability(5, 5) == 0.2

    def test_middle_offset(self):
        assert keep_probability(3, 5) == pytest.approx(0.6)

    def test_exact_formula(self):
        for C in range(1, 12):
            for c in range(1, C + 1):
                assert keep_probability(c, C) == (C - c + 1) / C

    @pytest.mark.parametrize("c,C", [(0, 5), (6, 5), (-1, 3), (1, 0)])
    def test_out_of_range(self, c, C):
        with pytest.raises(ValueError):
            keep_probability(c, C)


class TestGeneratePairs:
    def test_adjacent_pairs_never_dropped(self):
        for seed in range(20):
            pairs = generate_pairs([[0, 1]], 5, seed=seed)
            got = set(zip(pairs.focus.tolist(), pairs.context.tolist(),
                          pairs.position.tolist()))
            assert got == {(0, 1, 1), (1, 0, 1)}

    def test_single_token_sentence_yields_nothing(self):
        assert len(generate_pairs([[0]], 5, seed=0)) == 0

    def test_empty_corpus(self):
        assert len(generate_pairs([], 5, seed=0)) == 0

    def test_context_never_crosses_sentences(self):
        pairs = generate_pairs([[0, 1], [2, 3]], 5, seed=3)
        for focus, context in zip(pairs.focus.tolist(), pairs.context.tolist()):
            assert {focus, context} in ({0, 1}, {2, 3})

    def test_window_of_one_is_deterministic_and_symmetric(self):
        for seed in (0, 1, 99):
            pairs = generate_pairs([[4, 7, 9]], 1, seed=seed)
            got = list(zip(pairs.focus.tolist(), pairs.context.tolist(),
                           pairs.position.tolist()))
            assert got == [(4, 7, 1), (7, 4, 1), (7, 9, 1), (9, 7, 1)]

    def test_offsets_bounded_by_window(self):
        pairs = generate_pairs([list(range(12))], 4, seed=5)
        assert pairs.position.min() >= 1
        assert pairs.position.max() <= 4
        assert np.array_equal(np.abs(pairs.focus - pairs.context), pairs.position)

    def test_all_pairs_natural(self):
        pairs = generate_pairs([list(range(6))], 3, seed=2)
        assert pairs.n_augmented == 0
        assert pairs.n_natural == len(pairs)

    def test_deterministic_given_seed(self):
        corpus = [list(range(10)), [3, 1, 4, 1, 5]]
        assert generate_pairs(corpus, 5, seed=8) == generate_pairs(corpus, 5, seed=8)
        assert generate_pairs(corpus, 5, seed=8) != generate_pairs(corpus, 5, seed=9)

    def test_keep_rate_at_offset_two_matches_probability(self):
        # Offset 2 with C=2 should survive half the time in each direction;
        # estimate over many independently seeded runs of a 3-token sentence.
        runs = 30_000
        forward = backward = 0
        for s in range(runs):
            ds = generate_pairs([[0, 1, 2]], 2, seed=s)
            at_two = ds.position == 2
            forward += int(((ds.focus == 0) & at_two).sum())
            backward += int(((ds.focus == 2) & at_two).sum())
        assert abs(forward / runs - 0.5) < 0.01
        assert abs(backward / runs - 0.5) < 0.01  # both directions are candidates

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            generate_pairs([[0, 1]], 0, seed=0)


class TestPairDataset:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            PairDataset([0, 1], [1], [1, 1], ["N", "N"])

    def test_unknown_origin_rejected(self):
        with pytest.raises(ValueError):
            PairDataset([0], [1], [1], ["X"])

    def test_by_origin_partition(self):
        ds = PairDataset([0, 1, 2], [1, 2, 0], [1, 1, 2], ["N", "A", "N"])
        assert ds.by_origin(ORIGIN_NATURAL).n_natural == 2
        assert ds.by_origin(ORIGIN_AUGMENTED).n_augmented == 1

    def test_concat_and_subset(self):
        a = PairDataset([0], [1], [1], ["N"])
        b = PairDataset([2], [3], [2], ["A"])
        ds = PairDataset.concat([a, b])
        assert len(ds) == 2
        assert ds.subset([1]) == b


class TestPairFile:
    def test_roundtrip_with_meta(self, tmp_path):
        ds = generate_pairs([list(range(8))], 3, seed=4)
        path = tmp_path / "pairs.txt"
        write_pairs(path, ds, meta={"C": 3, "seed": 4})
        loaded, meta = read_pairs(path)
        assert loaded == ds
        assert meta == {"C": "3", "seed": "4"}

    def test_header_written(self, tmp_path):
        path = tmp_path / "pairs.txt"
        write_pairs(path, PairDataset.empty(), meta={"C": 5, "seed": 1})
        assert path.read_text().splitlines()[0] == "#pairs v1 C=5 seed=1"

    def test_golden_bytes(self, tmp_path):
        ds = PairDataset([0, 12, 7], [3, 0, 12], [1, 2, 5], ["N", "A", "N"])
        path = tmp_path / "pairs.txt"
        write_pairs(path, ds, meta={"C": 5, "seed": 1, "ratio": 0.25})
        assert path.read_bytes() == (b"#pairs v1 C=5 seed=1 ratio=0.25\n"
                                     b"0 3 1 N\n12 0 2 A\n7 12 5 N\n")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 1 1 N\n")
        with pytest.raises(ParseError, match="header"):
            read_pairs(path)

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("#pairs v1\n0 1 1\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_pairs(path)

    def test_bad_origin_flag(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("#pairs v1\n0 1 1 Q\n")
        with pytest.raises(ParseError, match="origin"):
            read_pairs(path)
