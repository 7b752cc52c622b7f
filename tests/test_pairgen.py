import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synvec import pairgen
from synvec.errors import ParseError
from synvec.pairgen import (
    ORIGIN_AUGMENTED,
    ORIGIN_NATURAL,
    PairDataset,
    _read_pair_lines,
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


def reference_generate_pairs(encoded, C, seed):
    """generate_pairs written sentence by sentence: every candidate offset in
    both directions, sorted focus-major, each sentence's part of every column
    joined column by column."""
    focus, context, position = [], [], []
    for index, sentence in enumerate(encoded):
        ids = np.asarray(sentence, dtype=np.int64)
        n = len(ids)
        if n < 2:
            continue
        foc_idx, ctx_idx = [], []
        for c in range(1, min(C, n - 1) + 1):
            right = np.arange(n - c)
            foc_idx.extend((right + c, right))
            ctx_idx.extend((right, right + c))
        fi = np.concatenate(foc_idx)
        ci = np.concatenate(ctx_idx)
        order = np.lexsort((ci, fi))
        fi, ci = fi[order], ci[order]
        offsets = np.abs(fi - ci)
        rng = pairgen.derived_rng(seed, "pairgen.sentence", index)
        keep = rng.random(len(fi)) < (C - offsets + 1) / C
        focus.append(ids[fi[keep]])
        context.append(ids[ci[keep]])
        position.append(offsets[keep])
    focus, context, position = (np.concatenate([np.empty(0, dtype=np.int64), *column])
                                for column in (focus, context, position))
    return PairDataset(focus, context, position, np.zeros(len(focus), dtype=bool))


def with_sentence_draws(generate, encoded, C, seed):
    """``generate``'s pairs, and each sentence generator it made with the
    uniform it would draw next: equal lists mean equal draws."""
    made = []
    real = pairgen.derived_rng

    def recording(*args):
        made.append((args, real(*args)))
        return made[-1][1]

    pairgen.derived_rng = recording
    try:
        pairs = generate(encoded, C, seed)
    finally:
        pairgen.derived_rng = real
    return pairs, [(args, rng.random()) for args, rng in made]


SENTENCES = st.lists(st.lists(st.integers(0, 3), max_size=12), max_size=8)  # repeats are common


@settings(max_examples=300, deadline=None)
@given(encoded=SENTENCES, C=st.integers(1, 14), seed=st.integers(0, 2**32))
@example(encoded=[], C=1, seed=7)
@example(encoded=[[], [5], []], C=2, seed=7)
@example(encoded=[[2, 2, 2, 2]], C=5, seed=7)
@example(encoded=[[1, 2], [], [3], [4, 4, 5]], C=1, seed=7)
def test_generate_pairs_matches_reference(encoded, C, seed):
    """Any corpus, with C from 1 to beyond its longest sentence: the same
    pairs in the same order, from the same draws of the same generators."""
    got, got_draws = with_sentence_draws(generate_pairs, encoded, C, seed)
    want, want_draws = with_sentence_draws(reference_generate_pairs, encoded, C, seed)
    assert got == want
    assert got_draws == want_draws


class TestPairDataset:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            PairDataset([0, 1], [1], [1, 1], [False, False])

    def test_unknown_origin_rejected(self):
        """A letter column, or ints or floats, would cast to bool; it is refused."""
        for flags in (["X"], [ORIGIN_NATURAL], [ORIGIN_AUGMENTED], [1], [0.0], []):
            with pytest.raises(TypeError, match="dtype bool"):
                PairDataset([0] * len(flags), [1] * len(flags), [1] * len(flags), flags)

    def test_by_origin_partition(self):
        ds = PairDataset([0, 1, 2], [1, 2, 0], [1, 1, 2], [False, True, False])
        assert ds.n_natural == 2 and ds.n_augmented == 1
        assert ds.subset(~ds.augmented) == PairDataset([0, 2], [1, 0], [1, 2], [False, False])
        assert ds.subset(ds.augmented) == PairDataset([1], [2], [1], [True])

    def test_subset(self):
        ds = PairDataset([0, 2], [1, 3], [1, 2], [False, True])
        assert len(ds) == 2
        assert ds.subset([1]) == PairDataset([2], [3], [2], [True])


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
        ds = PairDataset([0, 12, 7], [3, 0, 12], [1, 2, 5], [False, True, False])
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

    @pytest.mark.parametrize("line, message", [
        ("4 5 1 NA", r":3: unknown origin flag 'NA'"),
        ("4 5 1 N1", r":3: unknown origin flag 'N1'"),
        ("4 5 1 A\x00", r":3: unknown origin flag 'A\\x00'"),
        ("4 5 1 N\x00", r":3: unknown origin flag 'N\\x00'"),
        ("4 1.0 1 N", r":3: non-integer id field"),
        ("4 5 1 N 7", r":3: expected '<focus> <context> <position> <origin>'"),
    ])
    def test_bad_line_among_good_ones_is_named(self, tmp_path, line, message):
        path = tmp_path / "pairs.txt"
        path.write_text(f"#pairs v1\n0 1 1 N\n{line}\n2 3 1 A\n")
        with pytest.raises(ParseError, match=message):
            read_pairs(path)

    @pytest.mark.parametrize("big", ["99999999999999999999", "-9223372036854775809"])
    def test_id_past_int64_names_its_line(self, tmp_path, big):
        path = tmp_path / "pairs.txt"
        path.write_text(f"#pairs v1\n0 1 1 N\n\n0 {big} 1 N\n2 3 1 A\n")
        with pytest.raises(ParseError, match=rf"pairs.txt:4: id {big} does not fit in int64"):
            read_pairs(path)

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("#pairs v1\n0 1 1 N\n \t \n2 3 1 A\n")
        assert read_pairs(path)[0] == PairDataset([0, 2], [1, 3], [1, 1], [False, True])

    @pytest.mark.parametrize("body", [
        "0 1 1 N\n+5 007 1 A\n",               # sign, leading zeros
        "1234567890123456789 1 1 N\n",         # 19 digits, inside int64
        "00000000000000000001 1 1 N\n",        # 20 digits, a small value
        "9999999999999999999 1 1 N\n",         # 19 digits, past int64
        "0 1 1 N\n 5 1 N\n",                    # an empty first field
        "0\t1  1 N \n",                        # tab, runs of spaces, trailing space
        "0 1 1 N\n2 3 1 A",                     # no final newline
        "0 1 1 N\r\n2 3 1 A\r\n",              # CRLF
        "\n\n",                                 # blank lines only
        "",                                     # header only
    ])
    def test_other_layouts_read_as_line_by_line(self, tmp_path, body):
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"#pairs v1\n" + body.encode())
        assert _read_outcome(read_pairs, path) == _read_outcome(_read_by_lines, path)

    @pytest.mark.parametrize("body", [
        "0\t1\t1\tN\n",                        # tabs
        "0  1   1 N  \n",                      # runs of spaces, trailing spaces
        "0 1 1 N\r\n2 3 1 A\r\n",              # CRLF
        "0 1 1 N\n\n \t \n2 3 1 A\n",          # blank lines
        "0 1 1 N\n2 3 1 A",                     # no final newline
        "1234567890123456789 1 1 N\n",         # 19 digits, inside int64
        "\n\n",                                 # blank lines only
        "",                                     # header only
    ])
    def test_tolerant_layouts_skip_the_line_loop(self, tmp_path, monkeypatch, body):
        """Layouts numpy reads as the line loop does never reach the loop."""
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"#pairs v1\n" + body.encode())
        want = _read_by_lines(path)[0]
        monkeypatch.setattr(pairgen, "_read_pair_lines", _unreachable)
        assert read_pairs(path)[0] == want


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1),
                               st.integers(1, 50), st.booleans()), min_size=1, max_size=20))
def test_pair_file_roundtrip_with_random_flags(tmp_path_factory, rows):
    """Any pairs with any augmented flags read back equal, as C-contiguous
    int64 columns, and without the line loop."""
    focus, context, position, flags = map(list, zip(*rows))
    ds = PairDataset(focus, context, position, np.array(flags, dtype=bool))
    path = tmp_path_factory.mktemp("pairs") / "pairs.txt"
    write_pairs(path, ds)
    with mock.patch.object(pairgen, "_read_pair_lines", _unreachable):
        loaded = read_pairs(path)[0]
    assert loaded == ds
    for column in (loaded.focus, loaded.context, loaded.position):
        assert column.dtype == np.int64 and column.flags.c_contiguous


def _unreachable(path):
    raise AssertionError(f"{path} was read by the line loop")


def _read_by_lines(path):
    return PairDataset(*_read_pair_lines(path)), {}


def _read_outcome(read, path):
    try:
        return read(path)[0]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 9),
                             st.sampled_from("NA")), min_size=1, max_size=6),
    edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 2),
                             st.sampled_from([" ", "  ", "\t", "\n", "\r", "\x0b", "\xa0", "\x00",
                                              "N", "A", "NA", "0", "9", "-", "+", ".", "_", "e",
                                              "\u0663", "#", "x"])),
                   max_size=3),
)
def test_fast_parse_agrees_with_line_loop(tmp_path_factory, pairs, edits):
    """Every body, edited or not, reads as the per-line loop reads it: the
    same columns, or the same error naming the same line."""
    body = "".join(f"{f} {c} {p} {o}\n" for f, c, p, o in pairs)
    for at, cut, text in edits:  # replace body[at:at + cut] with text
        at = min(at, len(body))
        body = body[:at] + text + body[at + cut:]
    path = tmp_path_factory.mktemp("pairs") / "pairs.txt"
    path.write_text("#pairs v1\n" + body, encoding="utf-8")
    assert _read_outcome(read_pairs, path) == _read_outcome(_read_by_lines, path)


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _names_pair_dataset(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "PairDataset"
            or isinstance(node, ast.Attribute) and node.attr == "PairDataset")


def _datasets_built_in_loops(path: Path) -> list[str]:
    """`PairDataset(...)` and `PairDataset.concat(...)` calls inside a loop
    (comprehensions included) of one module."""
    hits = {f"{path.name}:{call.lineno}"
            for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(loop, LOOPS)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call) and (
                _names_pair_dataset(call.func)
                or isinstance(call.func, ast.Attribute) and call.func.attr == "concat"
                and _names_pair_dataset(call.func.value))}
    return sorted(hits, key=lambda hit: int(hit.split(":")[1]))


def test_prep_builds_each_dataset_as_whole_columns():
    sources = sorted(Path(pairgen.__file__).resolve().parent.glob("*.py"))
    assert len(sources) >= 10
    found = [hit for path in sources for hit in _datasets_built_in_loops(path)]
    assert found == [], ("build a PairDataset once from whole columns, not per item of a "
                         "loop: " + "; ".join(found))


def test_dataset_loop_guard_sees_rogue_builds(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text("for s in sentences:\n"
                     "    parts.append(PairDataset(f, c, p, o))\n"
                     "while parts:\n"
                     "    whole = PairDataset.concat(parts)\n"
                     "rows = [pairgen.PairDataset(*cols) for cols in columns]\n"
                     "whole = PairDataset(f, c, p, o)\n"
                     "whole = PairDataset.concat(parts)\n"
                     "for s in sentences:\n"
                     "    np.concatenate(parts)\n")
    assert [hit.split(":")[1] for hit in _datasets_built_in_loops(rogue)] == ["2", "4", "5"]


ORIGIN_LETTERS = {"ORIGIN_NATURAL", "ORIGIN_AUGMENTED"}


def _origin_letter_uses(path: Path) -> list[str]:
    """Names, attributes and imports of the pair file's origin letters in one module."""
    hits = {f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and node.id in ORIGIN_LETTERS
            or isinstance(node, ast.Attribute) and node.attr in ORIGIN_LETTERS
            or isinstance(node, ast.ImportFrom)
            and any(alias.name in ORIGIN_LETTERS for alias in node.names)}
    return sorted(hits, key=lambda hit: int(hit.split(":")[1]))


def test_origin_letters_stay_in_pair_file_code():
    """In memory a pair's origin is its bool flag; only pairgen's file code
    knows the letters."""
    sources = sorted(Path(pairgen.__file__).resolve().parent.glob("*.py"))
    assert len(sources) >= 10
    found = [hit for path in sources if path.name != "pairgen.py"
             for hit in _origin_letter_uses(path)]
    assert found == [], ("select pairs by the `augmented` flag; the origin letters "
                         "belong to pairgen's file code: " + "; ".join(found))
    assert _origin_letter_uses(Path(pairgen.__file__))  # the guard sees pairgen's own uses


def test_origin_letter_guard_sees_rogue_uses(tmp_path):
    rogue = tmp_path / "rogue.py"
    rogue.write_text("from .pairgen import ORIGIN_AUGMENTED, PairDataset\n"
                     "natural = ds.origin == pairgen.ORIGIN_NATURAL\n"
                     "flag = ORIGIN_AUGMENTED\n"
                     "# ORIGIN_NATURAL in a comment is not a use\n"
                     "name = 'ORIGIN_NATURAL'\n"
                     "from .pairgen import PairDataset\n")
    assert [hit.split(":")[1] for hit in _origin_letter_uses(rogue)] == ["1", "2", "3"]
