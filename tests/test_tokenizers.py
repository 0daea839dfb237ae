"""Tokenizer goldens and algorithm-equivalence properties."""

import hashlib
import random
import warnings

import pytest

from tokfst import (
    AlphabetError,
    BpeTokenizer,
    ConfigError,
    Vocabulary,
    bpe_train,
    iter_segmentations,
    maxmatch_tokenize,
)
from tokfst.tokenizers import _merge_pass

from helpers import (
    apply_merge,
    count_segmentations,
    identifiers,
    merge_list_pass,
    random_merge_tokenizer,
    random_vocab,
    tokenize_incremental,
)

BANANAS = Vocabulary.from_tokens(["a", "b", "n", "s", "ba", "na", "ban", "bana"])
ABAB = Vocabulary.from_tokens(["a", "b", "ab", "aba"])
TOPOLOGY = BpeTokenizer.from_token_pairs(
    Vocabulary.from_tokens(["t", "o", "p", "l", "g", "y", "to", "gy", "lo", "po", "logy"]),
    [("t", "o"), ("g", "y"), ("l", "o"), ("p", "o"), ("lo", "gy")],
)
SECT52 = BpeTokenizer.from_token_pairs(
    Vocabulary.from_tokens(["a", "b", "c", "ab", "bc", "cc", "abc"]),
    [("a", "b"), ("b", "c"), ("c", "c"), ("ab", "c")],
)


def words(vocab, ids):
    return [vocab.table.token(i) for i in ids]


# ---------------------------------------------------------------------------
# longest-match


def test_maxmatch_goldens():
    assert words(BANANAS, maxmatch_tokenize("bananas", BANANAS)) == ["bana", "na", "s"]
    assert words(ABAB, maxmatch_tokenize("abaab", ABAB)) == ["aba", "ab"]


def test_maxmatch_empty_and_errors():
    assert maxmatch_tokenize("", BANANAS) == ()
    with pytest.raises(AlphabetError):
        maxmatch_tokenize("zzz", BANANAS)


def test_maxmatch_picks_longest_prefix_at_every_position():
    rng = random.Random(99)
    for _ in range(200):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(2, 4))))
        vocab = random_vocab(rng, chars, rng.randint(0, 6))
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 15)))
        out = maxmatch_tokenize(text, vocab)
        assert vocab.decode(out) == text
        pos = 0
        for tok in words(vocab, out):
            # no longer token may fit at this position
            for extra in range(len(tok) + 1, vocab.max_token_len + 1):
                if pos + extra <= len(text):
                    assert text[pos:pos + extra] not in vocab.table
            pos += len(tok)


# ---------------------------------------------------------------------------
# merges


def test_apply_merge_goldens():
    table = SECT52.vocab.table
    seq = table.ids(["a", "b", "a", "b"])
    assert apply_merge(seq, (table.id("a"), table.id("b")), table) == table.ids(["ab", "ab"])


def test_apply_merge_is_a_single_left_to_right_pass():
    vocab = Vocabulary.from_tokens(["a", "aa"])
    table = vocab.table
    a, aa = table.id("a"), table.id("aa")
    # overlapping aaa: the first pair wins, the survivor does not re-pair
    assert apply_merge((a, a, a), (a, a), table) == (aa, a)
    assert apply_merge((a, a, a, a), (a, a), table) == (aa, aa)
    # the library's pass keeps the same contract
    assert _merge_pass((a, a, a), a, a, aa) == (aa, a)
    assert _merge_pass((a, a, a, a), a, a, aa) == (aa, aa)


def test_bpe_goldens():
    assert words(TOPOLOGY.vocab, TOPOLOGY.tokenize("topology")) == ["to", "po", "logy"]
    assert words(TOPOLOGY.vocab, tokenize_incremental(TOPOLOGY, "topology")) == ["to", "po", "logy"]
    assert words(SECT52.vocab, SECT52.tokenize("bcababcc")) == ["bc", "ab", "ab", "cc"]
    assert words(SECT52.vocab, tokenize_incremental(SECT52, "bcababcc")) == ["bc", "ab", "ab", "cc"]


def test_bpe_single_char():
    assert words(TOPOLOGY.vocab, TOPOLOGY.tokenize("t")) == ["t"]
    assert TOPOLOGY.tokenize("") == ()


def test_both_tokenizers_name_a_bad_character_alike():
    # `tokenize` reads the text through `encode_chars`; both name the first
    # character outside the vocabulary, wherever it stands
    for text, bad in (("z", "z"), ("abz", "z"), ("zab", "z"), ("abzyc", "z"), ("bc\ncc", "\n")):
        message = f"character {bad!r} is not in the vocabulary"
        with pytest.raises(AlphabetError) as bpe_error:
            SECT52.tokenize(text)
        with pytest.raises(AlphabetError) as maxmatch_error:
            maxmatch_tokenize(text, SECT52.vocab)
        with pytest.raises(AlphabetError) as chars_error:
            SECT52.vocab.encode_chars(text)
        assert str(bpe_error.value) == str(maxmatch_error.value) == str(chars_error.value) == message
    table = SECT52.vocab.table
    assert SECT52.vocab.encode_chars("abc") == table.ids("abc")
    assert SECT52.vocab.encode_chars("") == ()


def test_bpe_algorithms_agree_randomized():
    rng = random.Random(777)
    for _ in range(300):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(2, 4))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(0, 12))
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 20)))
        assert tok.tokenize(text) == tokenize_incremental(tok, text) == merge_list_pass(tok, text)
    # the pass skips a merge whose pair is absent; these texts hold left
    # operands with and without their right operand after them, and
    # one-character alphabets make self-pairs like (a, a) common
    rng = random.Random(4099)
    self_pairs = 0
    for _ in range(300):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(1, 4))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(1, 12))
        table = tok.vocab.table
        self_pairs += sum(x == y for x, y in tok.merges)
        pieces = []
        for x, y in rng.sample(tok.merges, min(4, len(tok.merges))):
            x, y = table.token(x), table.token(y)
            other = [c for c in chars if c != y[0]]
            pieces.append(x + rng.choice(other) if other else x)
            if rng.random() < 0.5:
                pieces.append(x + y)
        rng.shuffle(pieces)
        text = "".join(pieces) + "".join(rng.choice(chars) for _ in range(rng.randint(0, 6)))
        assert tok.tokenize(text) == tokenize_incremental(tok, text) == merge_list_pass(tok, text), text
    assert self_pairs > 50


def test_bpe_rank_table():
    """`tokenize` reads a table of (rank, result id) by merge pair that the
    tokenizer builds once, and that leaves equality, hashing and repr alone."""
    table = SECT52.vocab.table
    ranked = SECT52._ranked
    assert ranked == {m: (n, table.id(table.token(m[0]) + table.token(m[1])))
                      for n, m in enumerate(SECT52.merges)}
    twin = BpeTokenizer(SECT52.vocab, SECT52.merges)
    assert twin == SECT52 and hash(twin) == hash(SECT52) and repr(twin) == repr(SECT52)
    SECT52.tokenize("bcababcc")
    assert SECT52._ranked is ranked
    assert twin == SECT52 and hash(twin) == hash(SECT52) and repr(twin) == repr(SECT52)
    assert "_ranked" not in repr(SECT52)
    with pytest.raises(AlphabetError) as ranked_error:
        SECT52.tokenize("abz")
    with pytest.raises(AlphabetError) as reference_error:
        tokenize_incremental(SECT52, "abz")
    assert str(ranked_error.value) == str(reference_error.value)

    # a long text over a long list: tokens up to 10 characters, 400 merges
    rng = random.Random(5000)
    tokens, pairs = list("abc"), []
    while len(pairs) < 400:
        x, y = rng.choice(tokens), rng.choice(tokens)
        if x + y not in tokens and len(x + y) <= 10:
            tokens.append(x + y)
            pairs.append((x, y))
    assert sum(x == y for x, y in pairs) > 5
    tok = BpeTokenizer.from_token_pairs(Vocabulary.from_tokens(tokens), pairs)
    text = ""
    while len(text) < 5000:
        text += rng.choice(tokens)
    text = text[:5000]
    assert tok.tokenize(text) == merge_list_pass(tok, text)


def test_bpe_output_is_a_fixed_point():
    rng = random.Random(31)
    for _ in range(100):
        chars = "".join(sorted(rng.sample("abc", rng.randint(2, 3))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(1, 8))
        text = "".join(rng.choice(chars) for _ in range(rng.randint(1, 16)))
        out = tok.tokenize(text)
        assert tok.vocab.decode(out) == text
        adjacent = set(zip(out, out[1:]))
        assert not adjacent & set(tok.merges)


def test_bpe_canonicality_is_bigram_local():
    """A segmentation is the byte-pair tokenization of its text exactly when
    each token, and each pair of adjacent tokens, is its own tokenization
    (Vieira et al., "Language Models over Canonical Byte-Pair Encodings",
    2025). Checked on every segmentation of short random texts, over random
    merge lists; one- and two-character alphabets make self-pairs common."""
    rng = random.Random(2025)
    kept = by_pair = rejected = self_pairs = 0
    for _ in range(400):
        chars = "".join(sorted(rng.sample("abc", rng.randint(1, 3))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(1, 12))
        table = tok.vocab.table
        self_pairs += sum(x == y for x, y in tok.merges)
        own: dict[tuple[int, ...], bool] = {}  # a token or a pair: is it its own tokenization

        def local(*ids):
            if ids not in own:
                own[ids] = tok.tokenize("".join(map(table.token, ids))) == ids
            return own[ids]

        for _ in range(10):
            text = "".join(rng.choice(chars) for _ in range(rng.randint(1, 10)))
            best = tok.tokenize(text)
            for seg in iter_segmentations(text, tok.vocab):
                tokens_local = all(map(local, seg))
                is_local = tokens_local and all(map(local, seg, seg[1:]))
                assert (seg == best) == is_local, (tok.merge_tokens(), words(tok.vocab, seg))
                kept += is_local
                by_pair += tokens_local and not is_local  # only a pair rejects it
                rejected += not is_local
    assert kept == 4000 and by_pair > 5000 and rejected > 50_000 and self_pairs > 200


def test_spine_rule_tables_agree_with_tokenize():
    """The bigram tables come from the merge trees alone (the spine rule);
    `tokenize` must agree on every token and every pair of canonical
    tokens. Small alphabets and long merge lists make self-pairs, tokens
    that are not their own tokenization and forbidden pairs common."""
    rng = random.Random(2024)
    pairs = forbidden = not_canonical = self_pairs = 0
    for _ in range(300):
        chars = "".join(sorted(rng.sample("abc", rng.randint(1, 3))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(0, 14))
        table = tok.vocab.table
        after = tok.bigram_tables
        canonical = {t for t in table.token_ids() if tok.tokenize(table.token(t)) == (t,)}
        assert after.keys() == canonical
        sets = after.values()
        assert len(set(sets)) == len(set(map(id, sets)))  # equal sets are one object
        for x in canonical:
            for y in canonical:
                own = tok.tokenize(table.token(x) + table.token(y)) == (x, y)
                assert own == (y not in after[x]), (
                    tok.merge_tokens(), table.token(x), table.token(y))
                pairs += 1
                forbidden += not own
        not_canonical += len(table) - len(canonical)
        self_pairs += sum(x == y for x, y in tok.merges)
    assert pairs > 10_000 and forbidden > 1000 and not_canonical > 100 and self_pairs > 200


def test_tokenizer_validation():
    vocab = Vocabulary.from_tokens(["a", "b", "ab"])
    # result missing from the vocabulary
    with pytest.raises(ConfigError):
        BpeTokenizer.from_token_pairs(vocab, [("b", "a")])
    # operand produced only by a later merge
    bigger = Vocabulary.from_tokens(["a", "b", "ab", "aab"])
    with pytest.raises(ConfigError):
        BpeTokenizer.from_token_pairs(bigger, [("a", "ab"), ("a", "b")])
    # duplicate results
    with pytest.raises(ConfigError, match="two merges produce the same token"):
        BpeTokenizer.from_token_pairs(vocab, [("a", "b"), ("a", "b")])
    # a multi-character token no merge can ever produce
    with pytest.raises(ConfigError, match="is not produced by any merge"):
        BpeTokenizer.from_token_pairs(bigger, [("a", "b")])


def test_vocabulary_requires_character_coverage():
    with pytest.raises(ConfigError):
        Vocabulary.from_tokens(["ab"])


def test_vocabulary_from_tokens_raises_the_tables_error():
    with pytest.raises(AlphabetError, match="tokens 5 are not a collection of strings"):
        Vocabulary.from_tokens(5)
    assert Vocabulary.from_tokens(t for t in "ab").table.tokens == ("a", "b")


# ---------------------------------------------------------------------------
# training


def test_train_counts_pairs_across_the_corpus():
    tok = bpe_train(["aab", "aab"], 1)
    assert tok.merge_tokens() == (("a", "a"),)


def test_train_breaks_ties_toward_the_first_seen_pair():
    assert bpe_train(["ab", "cd"], 1).merge_tokens() == (("a", "b"),)
    assert bpe_train(["cd", "ab"], 1).merge_tokens() == (("c", "d"),)


def test_train_uses_merge_results_in_later_rounds():
    tok = bpe_train(["abab"], 2)
    assert tok.merge_tokens() == (("a", "b"), ("ab", "ab"))
    assert words(tok.vocab, tok.tokenize("abab")) == ["abab"]


def test_train_stops_early_when_nothing_is_left():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tok = bpe_train(["ab"], 5)
    assert [str(w.message) for w in caught] == [
        "stopping after 1 merges: no pair left to merge"]
    assert tok.merge_tokens() == (("a", "b"),)


def test_train_output_tokenizes_its_own_corpus():
    # every trained token is its own tokenization, and no two merges make
    # one token (`BpeTokenizer` refuses that), though training skips no pair
    rng = random.Random(5)
    for _ in range(2000):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(1, 4))))
        corpus = ["".join(rng.choice(chars) for _ in range(rng.randint(1, 10)))
                  for _ in range(rng.randint(1, 6))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tok = bpe_train(corpus, rng.randint(1, 8))
        for word in corpus:
            out = tok.tokenize(word)
            assert tok.vocab.decode(out) == word
            assert not set(zip(out, out[1:])) & set(tok.merges)
        for x, y in tok.merge_tokens():
            assert words(tok.vocab, tok.tokenize(x + y)) == [x + y]


def test_train_output_is_pinned():
    # the SHA-256 of the merge file that training gave when it still built
    # a vocabulary per round and skipped pairs joining to a token
    corpus = identifiers(7, 1200)
    tok = bpe_train(corpus, 100)
    merges = "".join(f"{x} {y}\n" for x, y in tok.merge_tokens())
    assert hashlib.sha256(merges.encode()).hexdigest() == (
        "b08be8f56ce2e89c98a9158e04d46f36c8b8372aec120b8753754b117675a1dc")
    chars = sorted(set("".join(corpus)))
    assert tok.vocab.table.tokens == tuple(chars + [x + y for x, y in tok.merge_tokens()])


def test_train_rejects_bad_input():
    for steps in (-1, 1.5, "3", None, True):
        with pytest.raises(ConfigError, match="steps must be a non-negative int"):
            bpe_train(["ab"], steps)
    for corpus in ([1, 2], ["ab", b"ab"], [["a", "b"]], [None]):
        with pytest.raises(ConfigError, match="corpus items must be strings"):
            bpe_train(corpus, 1)
    # a bare string is not a list of one-character words, and a corpus
    # must be iterable
    for corpus in ("abab", 5, None):
        with pytest.raises(ConfigError, match="corpus must be an iterable of strings"):
            bpe_train(corpus, 3)
    assert bpe_train(["ab"], 0).merges == ()
    for corpus in ([], ["", ""]):
        with pytest.raises(ConfigError, match="cannot train on an empty corpus"):
            bpe_train(corpus, 3)


# ---------------------------------------------------------------------------
# segmentation lattice


def test_segmentation_count_matches_enumeration():
    vocab = Vocabulary.from_tokens(["a", "b", "ab", "aba"])
    segs = list(iter_segmentations("abaab", vocab))
    assert len(segs) == len(set(segs)) == count_segmentations("abaab", vocab) == 6
    assert all(vocab.decode(s) == "abaab" for s in segs)
    # depth first, shorter first tokens first
    assert [" ".join(vocab.table.token(t) for t in s) for s in segs] == [
        "a b a a b", "a b a ab", "ab a a b", "ab a ab", "aba a b", "aba ab",
    ]
    # long texts need no recursion
    single = Vocabulary.from_tokens(["a"])
    assert list(iter_segmentations("a" * 5000, single)) == [(single.table.id("a"),) * 5000]


def test_segmentations_cover_the_whole_lattice():
    vocab = Vocabulary.from_tokens(["a", "b", "c", "ab", "abc", "bc"])
    assert count_segmentations("abaabcc", vocab) == 8
    assert count_segmentations("", vocab) == 1
    assert next(iter_segmentations("", vocab)) == ()


def test_segmentation_count_randomized():
    rng = random.Random(17)
    for _ in range(60):
        chars = "".join(sorted(rng.sample("abc", rng.randint(2, 3))))
        vocab = random_vocab(rng, chars, rng.randint(0, 5))
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 9)))
        segs = list(iter_segmentations(text, vocab))
        assert len(segs) == count_segmentations(text, vocab)
        assert len(set(segs)) == len(segs)
        assert all(vocab.decode(s) == text for s in segs)
