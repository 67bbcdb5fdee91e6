import random
import re

import pytest

from conftest import random_letters
from treeskew.rng import fingerprint_letters
from treeskew.words import (
    Shell,
    Word,
    act_on_edge,
    ball,
    ball_edges,
    ball_size,
    common_prefix_length,
    distance,
    edge_fingerprint,
    geodesic,
    letter_order,
    parse_word,
    sample_word,
    shell,
    shell_labels,
    shell_size,
    word_at,
)


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def parent(edge: Word) -> Word:
    """The near endpoint of the edge named by its far endpoint ``edge``."""
    return edge.prefix(len(edge) - 1)


def vertices(start: Word, steps) -> list[Word]:
    """The vertices a path from ``start`` visits along its ``(edge, travel)`` steps."""
    out = [start]
    for edge, travel in steps:
        out.append(edge if travel > 0 else parent(edge))
    return out


class TestParsing:
    def test_compact_letters(self):
        assert w("abA").letters == (1, 2, -1)
        assert w("aB").letters == (1, -2)

    def test_indexed_tokens_match_compact(self):
        assert parse_word("a1 a2^-1", 2) == w("aB")
        assert parse_word("a2 a2 a1^-1", 2) == w("bbA")

    def test_exponents(self):
        assert w("a^3") == w("aaa")
        assert w("b^-2") == w("BB")
        assert parse_word("a1^+2", 2) == w("aa")

    def test_identity_spellings(self):
        assert parse_word("", 2) == Word.identity(2)
        assert parse_word("1", 2) == Word.identity(2)
        assert parse_word("  1  ", 2) == Word.identity(2)

    def test_input_reduces(self):
        assert w("aA") == Word.identity(2)
        assert w("abBA") == Word.identity(2)
        assert w("abBa") == w("aa")

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match="unknown letter"):
            parse_word("a+b", 2)

    def test_letter_beyond_rank(self):
        with pytest.raises(ValueError, match="beyond rank"):
            parse_word("c", 2)
        with pytest.raises(ValueError, match="beyond rank"):
            parse_word("a3", 2)

    def test_malformed_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            parse_word("a^", 2)
        with pytest.raises(ValueError, match="exponent"):
            parse_word("a^x", 2)

    def test_str_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            word = Word(random_letters(rng, rng.randint(0, 9), 2), 2)
            assert parse_word(str(word), 2) == word

    def test_str_round_trip_every_letter_at_rank_26(self):
        for s in range(1, 27):
            for letters, text in (((s,), chr(ord("a") + s - 1)), ((-s,), chr(ord("A") + s - 1))):
                word = Word(letters, 26)
                assert str(word) == text
                assert parse_word(text, 26) == word
        word = Word(tuple(range(1, 27)) + tuple(range(-1, -27, -1)), 26)
        assert str(word) == "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        assert parse_word(str(word), 26) == word

    def test_str_round_trip_wide_rank(self):
        word = Word((27, -3, 27), 30)
        assert "a27" in str(word)
        assert parse_word(str(word), 30) == word


class TestWordValidation:
    def test_rejects_unreduced_letters(self):
        with pytest.raises(ValueError):
            Word((1, -1), 2)

    def test_rejects_zero_letter(self):
        with pytest.raises(ValueError):
            Word((0,), 2)

    def test_rejects_letter_beyond_rank(self):
        with pytest.raises(ValueError):
            Word((3,), 2)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            Word((), 0)

    def test_group_operations_skip_the_checks(self, monkeypatch):
        # products, inverses, prefixes, geodesic steps and edge images of
        # checked words are reduced by construction, so they never go
        # through the checks again
        rng = random.Random(5)
        pairs = [
            (Word(random_letters(rng, rng.randint(0, 8), 2), 2),
             Word(random_letters(rng, rng.randint(0, 8), 2), 2))
            for _ in range(200)
        ]
        checks = []
        monkeypatch.setattr(Word, "__post_init__", lambda word: checks.append(word))
        for g, h in pairs:
            assert (g * h).rank == (~g).rank == g.prefix(len(g) // 2).rank == 2
            assert all(edge.rank == 2 for edge, _ in geodesic(g, h))
            if h:
                assert act_on_edge(g, h)[0].rank == 2
        assert checks == []
        monkeypatch.undo()
        with pytest.raises(ValueError, match="not freely reduced"):
            Word((1, -1), 2)


class TestGroupStructure:
    def test_axioms_against_reference_multiplication(self):
        # Reference product: concatenate then cancel with a plain stack.
        def ref_mul(a, b):
            out = list(a)
            for s in b:
                if out and out[-1] == -s:
                    out.pop()
                else:
                    out.append(s)
            return tuple(out)

        rng = random.Random(17)
        for _ in range(1000):
            x = Word(random_letters(rng, rng.randint(0, 8), 2), 2)
            y = Word(random_letters(rng, rng.randint(0, 8), 2), 2)
            z = Word(random_letters(rng, rng.randint(0, 8), 2), 2)
            assert (x * y).letters == ref_mul(x.letters, y.letters)
            assert (x * y) * z == x * (y * z)
            assert x * ~x == Word.identity(2)
            assert ~x * x == Word.identity(2)
            assert x * Word.identity(2) == x

    def test_generator_and_prefix(self):
        assert w("abab").prefix(1) == Word((1,), 2)
        assert w("abab").prefix(2) == w("ab")
        assert w("abab").prefix(0) == Word.identity(2)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            w("a", 2) * w("a", 3)

    def test_words_hash_consistently(self):
        assert len({w("ab"), parse_word("a1 a2", 2), w("ba")}) == 2

    def test_hashes_tell_words_and_edges_apart(self):
        # a hash of the letter tuple cannot tell A from B (hash(-1) == hash(-2))
        words, edges = ball(6, 2), ball_edges(6, 2)
        assert len({hash(v) for v in words}) == len(words)
        assert len({edge_fingerprint(e) for e in edges}) == len(edges)


class TestMetric:
    def test_known_distances(self):
        e = Word.identity(2)
        assert distance(e, e) == 0
        assert distance(e, w("a")) == 1
        assert distance(w("ab"), w("aB")) == 2
        assert distance(w("ab"), w("ba")) == 4

    def test_distance_equals_inverse_product_length(self):
        rng = random.Random(23)
        for _ in range(300):
            x = Word(random_letters(rng, rng.randint(0, 8), 2), 2)
            y = Word(random_letters(rng, rng.randint(0, 8), 2), 2)
            assert distance(x, y) == len(~x * y)

    def test_left_invariance(self):
        rng = random.Random(29)
        for _ in range(300):
            x = Word(random_letters(rng, rng.randint(0, 7), 2), 2)
            y = Word(random_letters(rng, rng.randint(0, 7), 2), 2)
            g = Word(random_letters(rng, rng.randint(0, 7), 2), 2)
            assert distance(g * x, g * y) == distance(x, y)

    def test_against_bfs_oracle(self, tree_oracle):
        rng = random.Random(31)
        verts = tree_oracle.vertices
        for _ in range(200):
            a, b = rng.choice(verts), rng.choice(verts)
            assert distance(Word(a, 2), Word(b, 2)) == tree_oracle.distance(a, b)

    def test_common_prefix_length(self):
        assert common_prefix_length(w("abab"), w("abba")) == 2
        assert common_prefix_length(w("ab"), w("Ab")) == 0


class TestGeodesic:
    def test_down_then_up(self):
        path = geodesic(w("ab"), w("aB"))
        assert [str(v) for v in vertices(w("ab"), path)] == ["ab", "a", "aB"]
        assert path == ((w("ab"), -1), (w("aB"), 1))

    def test_matches_bfs_paths(self, tree_oracle):
        rng = random.Random(37)
        verts = tree_oracle.vertices
        for _ in range(150):
            a, b = rng.choice(verts), rng.choice(verts)
            path = geodesic(Word(a, 2), Word(b, 2))
            assert [v.letters for v in vertices(Word(a, 2), path)] == tree_oracle.path(a, b)

    def test_reversal_flips_travel(self):
        rng = random.Random(41)
        for _ in range(100):
            x = Word(random_letters(rng, rng.randint(0, 8), 2), 2)
            y = Word(random_letters(rng, rng.randint(0, 8), 2), 2)
            fwd, back = geodesic(x, y), geodesic(y, x)
            assert len(fwd) == distance(x, y)
            assert [e for e, _ in back] == [e for e, _ in reversed(fwd)]
            assert [t for _, t in back] == [-t for _, t in reversed(fwd)]

    def test_each_step_is_parent_child(self):
        path = geodesic(w("abA"), w("ba"))
        for edge, _ in path:
            assert distance(parent(edge), edge) == 1
            assert len(edge) == len(parent(edge)) + 1


class TestEdges:
    def test_identity_action(self):
        edge = w("abA")
        assert act_on_edge(Word.identity(2), edge) == (edge, 1)

    def test_translation_toward_root_flips(self):
        image, flip = act_on_edge(w("A"), w("a"))  # the edge 1 -- a
        assert image == w("A")  # the edge 1 -- A
        assert flip == -1

    def test_translation_away_keeps_reference(self):
        image, flip = act_on_edge(w("a"), w("b"))
        assert image == w("ab")
        assert flip == 1

    def test_action_composes_with_flip_product(self):
        rng = random.Random(47)
        edges = ball_edges(4, 2)
        for _ in range(1000):
            g = Word(random_letters(rng, rng.randint(0, 6), 2), 2)
            h = Word(random_letters(rng, rng.randint(0, 6), 2), 2)
            e = rng.choice(edges)
            e1, f1 = act_on_edge(h, e)
            e2, f2 = act_on_edge(g, e1)
            assert act_on_edge(g * h, e) == (e2, f1 * f2)

    def test_action_preserves_adjacency(self):
        rng = random.Random(53)
        edges = ball_edges(4, 2)
        for _ in range(200):
            g = Word(random_letters(rng, rng.randint(0, 6), 2), 2)
            e = rng.choice(edges)
            image, _ = act_on_edge(g, e)
            assert {parent(image), image} == {g * parent(e), g * e}

    def test_base_vertex_is_no_edge(self):
        with pytest.raises(ValueError, match="names no edge"):
            edge_fingerprint(Word.identity(2))
        with pytest.raises(ValueError, match="names no edge"):
            act_on_edge(w("a"), Word.identity(2))

    def test_ball_edges_count(self):
        # a ball is a tree: one parent edge per non-identity vertex
        assert len(ball_edges(3, 2)) == ball_size(3, 2) - 1
        assert len(ball_edges(2, 3)) == ball_size(2, 3) - 1

    def test_edge_fingerprints_distinct(self):
        edges = ball_edges(5, 2)
        assert len({edge_fingerprint(e) for e in edges}) == len(edges)

    def test_edge_fingerprints_are_pinned(self):
        # every sampled orientation value is keyed by these integers
        assert edge_fingerprint(w("a")) == 13940233359472233368
        assert edge_fingerprint(w("aBA")) == 13319090881021204679
        assert edge_fingerprint(parse_word("cB", 3)) == 3770349986118079859


class TestEnumeration:
    def test_ball_sizes_rank2(self):
        for radius, size in enumerate([1, 5, 17, 53, 161, 485]):
            assert ball_size(radius, 2) == size
            assert len(ball(radius, 2)) == size

    def test_ball_matches_oracle_rank3(self, rank3_oracle):
        assert {word.letters for word in ball(3, 3)} == set(rank3_oracle.vertices)
        assert ball_size(3, 3) == len(rank3_oracle.vertices)

    def test_ball_order_is_breadth_first(self):
        assert [str(v) for v in ball(1, 2)] == ["1", "a", "b", "A", "B"]

    def test_shells(self):
        assert shell(0, 2) == [Word.identity(2)]
        assert shell_size(1, 2) == 4
        assert shell_size(3, 2) == 36
        assert all(len(v) == 3 for v in shell(3, 2))
        assert len(shell(3, 2)) == 36
        with pytest.raises(ValueError, match="rank"):
            shell(1, 0)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_shell_words_pass_the_public_checks(self, rank):
        # shell() builds its words without Word.__post_init__; the public
        # constructor must accept each one as the same reduced word
        for length in range(6):
            words = shell(length, rank)
            assert len(words) == len(set(words)) == shell_size(length, rank)
            for v in words:
                assert v == Word(v.letters, rank)
                assert hash(v) == hash(Word(v.letters, rank))
                assert len(v) == length

    @pytest.mark.parametrize("rank", [1, 2, 3, 27])
    def test_word_at_unranks_the_shell_order(self, rank):
        # shell_labels builds its labels from their parents' labels, with no
        # unranking, so it is an independent check of word_at's order
        for length in range(6 if rank < 27 else 3):
            size = shell_size(length, rank)
            labels = [str(word_at(length, rank, i)) for i in range(size)]
            assert shell_labels(length, rank) == labels
            with pytest.raises(ValueError, match="outside the shell"):
                word_at(length, rank, size)
        with pytest.raises(ValueError, match="outside the shell"):
            word_at(3, rank, -1)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_shell_order_is_lexicographic_in_letter_order(self, rank):
        position = {s: i for i, s in enumerate(letter_order(rank))}
        for length in range(5):
            keys = [[position[s] for s in v.letters] for v in shell(length, rank)]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("rank,max_length", [(1, 6), (2, 6), (3, 6), (27, 3)])
    def test_shell_labels_print_the_shell(self, rank, max_length):
        # a whole shell prints from shell_labels; any other view prints its words
        for length in range(max_length + 1):
            whole = shell(length, rank)
            assert whole.labels() == [str(v) for v in whole]
            assert whole[::-1].labels() == [str(v) for v in whole][::-1]
        with pytest.raises(ValueError, match="length"):
            shell_labels(-1, rank)

    @pytest.mark.parametrize(
        "call,sibling",
        [
            (lambda: shell_size(-1, 2), lambda: shell(-1, 2)),
            (lambda: ball_size(-1, 2), lambda: ball(-1, 2)),
            (lambda: shell_size(2, 0), lambda: shell(2, 0)),
            (lambda: ball_size(2, 0), lambda: ball(2, 0)),
            (lambda: sample_word(3, 0, random.Random(0)), lambda: word_at(3, 0, 0)),
        ],
        ids=["shell_size-length", "ball_size-radius", "shell_size-rank", "ball_size-rank",
             "sample_word-rank"],
    )
    def test_size_functions_check_like_their_siblings(self, call, sibling):
        with pytest.raises(ValueError) as expected:
            sibling()
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            call()

    def test_ball_is_union_of_shells(self):
        words = ball(4, 2)
        assert len(words) == len(set(words))
        assert sum(shell_size(r, 2) for r in range(5)) == len(words)
        assert words == [v for r in range(5) for v in shell(r, 2)]


class TestShell:
    @pytest.mark.parametrize("cap", [None, 7])
    def test_shell_view_reads_as_the_tuple_of_its_words(self, cap):
        indices = range(36) if cap is None else tuple(random.Random(5).sample(range(36), cap))
        view = Shell(3, 2, indices)
        words = tuple(view)
        assert len(words) == (36 if cap is None else cap)
        assert view == words and words == view and hash(view) == hash(words)
        assert view != words[:-1] and view != words[::-1]
        assert view[1:3] == words[1:3] and view[-1] == words[-1]
        assert view.labels() == [str(v) for v in words]
        # a slice is a Shell, as a one-word Monte Carlo point holds it
        assert view[2:3].labels() == [str(words[2])]


class TestSampling:
    @pytest.mark.parametrize(
        "rank,seed,expected",
        [(1, 0, ["1", "A", "AAAAAA"]), (1, 7, ["1", "A", "aaaaaa"]),
         (2, 0, ["1", "B", "BabAAA"]), (2, 7, ["1", "A", "bbAbaB"]),
         (3, 0, ["1", "A", "AbcBBB"]), (3, 7, ["1", "c", "bAbaCa"])],
    )
    def test_pinned_draws(self, rank, seed, expected):
        # one stream draws lengths 0, 1 and 6, so each word also pins the
        # draws taken before it
        rng = random.Random(seed)
        assert [str(sample_word(length, rank, rng)) for length in (0, 1, 6)] == expected

    def test_requested_length(self):
        rng = random.Random(59)
        for length in (0, 1, 5, 12):
            word = sample_word(length, 2, rng)
            assert len(word) == length

    def test_deterministic_for_seed(self):
        a = [sample_word(6, 2, random.Random(61)) for _ in range(10)]
        b = [sample_word(6, 2, random.Random(61)) for _ in range(10)]
        assert a == b

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            sample_word(-1, 2, random.Random(0))

    def test_word_fingerprints_distinct(self):
        words = ball(5, 2)
        assert len({word.fingerprint for word in words}) == len(words)

    def test_hash_is_the_letter_fingerprint(self):
        # a word's fingerprint extends its parent's by the last letter; hash()
        # itself folds a __hash__ of 2**63 or more, so call __hash__
        for word in ball(4, 2):
            assert word.__hash__() == fingerprint_letters(word.letters)
