import random
import sys
import threading
import zlib

import numpy as np
import pytest
import requests

from _oracles import embed_by_crc32, greedy_dedup
from hypothesis import example, given, settings, strategies as st
from mathcontrast import gateway, semantic
from mathcontrast.corpus import ReferenceExample, dedup
from mathcontrast.errors import DimensionMismatch, ProviderError, ZeroVector
from mathcontrast.formula import align_variables
from mathcontrast.semantic import (
    EMBED_BATCH,
    EMBED_CHUNK,
    EMBED_DIM,
    HashingNgramProvider,
    RemoteEmbeddingProvider,
    _CosineProvider,
)
from mathcontrast.similarity import SimilarityConfig, cosine_normed


def test_offline_provider_identical_texts_score_one():
    sem = HashingNgramProvider()
    assert sem.similarity("How many apples?", "How many apples?") == 1.0


def test_offline_provider_is_deterministic():
    a = HashingNgramProvider().embed("Leah had 32 chocolates")
    b = HashingNgramProvider().embed("Leah had 32 chocolates")
    assert np.array_equal(a, b)
    assert a.shape == (EMBED_DIM,)


def test_offline_provider_range_and_symmetry():
    sem = HashingNgramProvider()
    pairs = [
        ("Leah had 32 chocolates", "Frank was reading a book"),
        ("a", "b"),
        ("", "anything"),
        ("same words shuffled here", "here shuffled words same"),
    ]
    for x, y in pairs:
        s = sem.similarity(x, y)
        assert -1.0 <= s <= 1.0
        assert s == sem.similarity(y, x)


def test_offline_provider_related_texts_score_higher():
    sem = HashingNgramProvider()
    base = "Leah had 32 chocolates and her sister had 42."
    near = "Leah had 99 chocolates and her sister had 11."
    far = "The Ferris wheel has 19 seats of 15 people each."
    assert sem.similarity(base, near) > sem.similarity(base, far)


def test_offline_provider_handles_empty_text():
    sem = HashingNgramProvider()
    assert -1.0 <= sem.similarity("", "") <= 1.0


# ---------------------------------------------------------------------------
# Batched embeddings and similarities
# ---------------------------------------------------------------------------

EDGE_TEXTS = [
    "",
    "a",
    "ab",
    "A",
    "Über 3 Äpfel kosten 4,50 €",
    "数学の問題",
    "emoji \U0001F600 and \U0001F4AF!",
    "\U0001F600",
    "İ",
    "İstanbul had İ2 bridges",
    "\x00nul\x00",
    "^$ sentinels ^^$$ inside",
    "How many apples does Ann have?",
    "\u212a",  # KELVIN SIGN, whose lowercase is the ASCII "k"
]


def _texts(count, seed):
    rng = random.Random(seed)
    alphabet = "abcxyz 0123456789?.,İß€\U0001F600ÄöΣ"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(30))) for _ in range(count)]
    return EDGE_TEXTS + texts


def test_embed_many_equals_stacked_embed_exactly():
    sem = HashingNgramProvider()
    texts = _texts(2 * EMBED_CHUNK + 7, seed=1)
    assert len(texts) > 2 * EMBED_CHUNK
    got = sem.embed_many(texts)
    assert got.dtype == np.float32
    assert np.array_equal(got, np.stack([sem.embed(t) for t in texts]))
    assert sem.embed("").sum() == 1  # the sentinels' one 2-gram
    assert sem.embed_many([]).shape == (0, EMBED_DIM)


# every ASCII code, and code points whose lowercase or UTF-8 form is not
# one byte per character (KELVIN SIGN lowercases to an ASCII "k")
_EMBED_ALPHABET = "".join(map(chr, range(128))) + "\u212a\u0130\u00df\u00e9\u20ac\U0001F600\u00c4\u00f6\u03a3"


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.text(alphabet=_EMBED_ALPHABET, max_size=40), max_size=3 * EMBED_CHUNK))
@example(texts=[])
@example(texts=["", "\x00", "\x7f", "ABC", "\u212a", "\u0130", "\U0001F600"])
@example(texts=["a"] * (EMBED_CHUNK + 1) + ["\u0130"])
@example(texts=["\U0001F600"] * EMBED_CHUNK + ["x" * 40])
def test_embed_and_embed_many_equal_the_crc32_loop_bit_for_bit(texts):
    sem = HashingNgramProvider()
    expected = [embed_by_crc32(t) for t in texts]
    got = sem.embed_many(texts)
    assert got.dtype == np.float32 and got.shape == (len(texts), EMBED_DIM)
    assert [row.tobytes() for row in got] == [row.tobytes() for row in expected]
    assert [sem.embed(t).tobytes() for t in texts] == [row.tobytes() for row in expected]


def test_embed_does_not_dispatch_through_an_overridden_embed_many():
    class OnlyMany(HashingNgramProvider):
        def embed_many(self, texts):
            return super().embed_many(texts) * 2

    for text in EDGE_TEXTS:
        assert np.array_equal(OnlyMany().embed(text), embed_by_crc32(text))


def _counting_crc32(monkeypatch):
    """Patch ``zlib.crc32`` as the semantic module sees it; returns the
    list of the bytes it is called on."""
    hashed = []
    crc32 = zlib.crc32

    def counting(data):
        hashed.append(data)
        return crc32(data)

    monkeypatch.setattr(semantic.zlib, "crc32", counting)
    return hashed


def _padded_grams(text):
    padded = f"^{text.lower()}$"
    return [padded[i : i + n].encode("utf-8") for n in (2, 3) for i in range(len(padded) - n + 1)]


def test_ascii_texts_embed_without_crc32(monkeypatch):
    rng = random.Random(3)
    texts = [t for t in EDGE_TEXTS if f"^{t.lower()}$".isascii()]
    texts += ["".join(map(chr, rng.choices(range(128), k=rng.randrange(30)))) for _ in range(70)]
    expected = np.stack([embed_by_crc32(t) for t in texts])
    hashed = _counting_crc32(monkeypatch)
    sem = HashingNgramProvider()
    assert np.array_equal(sem.embed_many(texts), expected)
    assert np.array_equal(np.stack([sem.embed(t) for t in texts]), expected)
    assert hashed == []


def test_crc32_runs_only_for_the_grams_of_non_ascii_texts(monkeypatch):
    texts = _texts(3 * EMBED_CHUNK + 5, seed=3) + ["\u212aelvin", "\u212a"]
    expected = np.stack([embed_by_crc32(t) for t in texts])
    hashed = _counting_crc32(monkeypatch)
    sem = HashingNgramProvider()
    # KELVIN SIGN lowercases to an ASCII "k", so its texts need no crc32 call
    other = [t for t in texts if not f"^{t.lower()}$".isascii()]
    assert "\u212a" not in "".join(other)
    assert 0 < len(other) < len(texts)
    grams = sorted(gram for t in other for gram in _padded_grams(t))
    assert np.array_equal(sem.embed_many(texts), expected)
    assert sorted(hashed) == grams
    hashed.clear()
    assert np.array_equal(np.stack([sem.embed(t) for t in texts]), expected)
    assert sorted(hashed) == grams


def test_bucket_tables_give_crc32_buckets_of_every_ascii_2_and_3_gram():
    for n in (2, 3):
        # every n-byte ASCII gram, one per row: 16,384 pairs and 2,097,152 triples
        grams = np.indices((128,) * n).reshape(n, -1).T
        raw = grams.astype(np.uint8).tobytes()
        expected = np.fromiter(
            (zlib.crc32(raw[i : i + n]) % EMBED_DIM for i in range(0, len(raw), n)), dtype=np.uint8, count=len(grams)
        )
        head = grams[:, 0] * 128 + grams[:, 1]
        got = semantic._PAIR2[head] if n == 2 else semantic._PAIR3[head] ^ semantic._LAST3[grams[:, 2]]
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected), n


def test_hashing_similarities_equal_per_pair_bit_for_bit():
    texts = _texts(EMBED_CHUNK + 3, seed=2)
    for a in ["How many apples does Ann have?", "", "İ", texts[-1], "zzz unseen"]:
        sem = HashingNgramProvider()
        got = sem.similarities(a, texts)
        expected = [sem.similarity(a, t) for t in texts]
        assert got.tolist() == expected
        assert all(v == 1.0 for v, t in zip(got.tolist(), texts) if t == a)


def test_hashing_similarities_score_every_copy_of_a_repeated_text_one():
    base = _texts(12, seed=4)
    texts = base + base[:3] + [base[1], base[1]] + base[5:7]
    for a in [base[0], base[1], base[5], base[9], "zzz unseen"]:
        sem = HashingNgramProvider()
        got = sem.similarities(a, texts).tolist()
        expected = [sem.similarity(a, t) for t in texts]
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        # the cosine, with each text equal to a set to 1.0
        cosine = _CosineProvider.similarities(sem, a, texts)
        cosine[[t == a for t in texts]] = 1.0
        assert [v.hex() for v in got] == [v.hex() for v in cosine.tolist()]
        assert got.count(1.0) == texts.count(a)


def _per_pair(sem, a, texts):
    return np.array([sem.similarity(a, t) for t in texts]).tobytes()


def test_hashing_similarities_equal_per_pair_on_both_sides_of_the_float32_guard():
    # 'a' * n squares to about 2n^2: 2**24 - 9,371 at n = 2,897 and 2**24 + 2,213
    # at 2,898. An offline count vector's squared norm is odd (2n + 1 grams, and
    # c^2 has the parity of c), so none is exactly 2**24.
    below, above = "a" * 2897, "a" * 2898
    sem = HashingNgramProvider()
    squared = {t: int((sem.embed(t).astype(np.int64) ** 2).sum()) for t in (below, above)}
    assert squared == {below: 2**24 - 9371, above: 2**24 + 2213}
    texts = _texts(10, seed=5) + [below, above, "a" * 2899 + "!", "b" * 3000, "a b" * 1000]
    for a in [below, above, "a" * 2896 + "?", "a" * 2900, "How many apples does Ann have?"]:
        sem = HashingNgramProvider()
        assert sem.similarities(a, texts).tobytes() == _per_pair(sem, a, texts)
    assert sem._corpus_matrix(texts)[0].dtype == np.float32


class _Counts(_CosineProvider):
    """Given integer count vectors, as float32 like the offline provider's."""

    VECTORS = {
        "below": [4095, 90, 9, 3],  # squared norm 2**24 - 1
        "at": [4096, 0, 0, 0],  # 2**24
        "over": [4097, 2, 0, 0],  # 2**24 + 8,197, odd: float32 cannot hold it
        "small": [1, 2, 3, 4],
    }

    def embed(self, text):
        return np.array(self.VECTORS[text], dtype=np.float32)

    def embed_many(self, texts):
        return np.array([self.VECTORS[t] for t in texts], dtype=np.float32).reshape(len(texts), 4)


def test_count_similarities_take_float64_from_a_squared_norm_of_2_to_the_24():
    # below . over = 16,777,395: odd and above 2**24, so a float32 product or a
    # float32 squared norm of "over" would round
    texts = ["small", "below", "at", "over", "below"]
    for corpus in (texts, texts[:3]):
        for a in ["below", "at", "over", "small"]:
            sem = _Counts()
            assert sem.similarities(a, corpus).tobytes() == _per_pair(sem, a, corpus)
    matrix, norms, _, _, big = _Counts()._corpus_matrix(texts)
    assert matrix.dtype == np.float32 and big.tolist() == [2, 3]
    assert norms[3] == np.sqrt(4097.0**2 + 4)


def test_similarities_in_rows_equal_one_query_at_a_time():
    # blocks with repeated, unseen and corpus queries, on both sides of the float32 guard
    base = _texts(12, seed=7)
    texts = base + base[:2] + ["a" * 2897, "a" * 2898]
    blocks = [
        base[:5], [base[0], base[0], "zzz unseen", base[1]], texts, ["a" * 2898, base[3]], ["zzz unseen"]
    ]
    sem = HashingNgramProvider()
    for queries in blocks:
        rows = sem.similarity_rows(queries, texts)
        assert rows.shape == (len(queries), len(texts))
        assert [row.tobytes() for row in rows] == [sem.similarities(a, texts).tobytes() for a in queries]
    assert sem.similarity_rows([], texts).shape == (0, len(texts))
    assert sem.similarity_rows(["q", "r"], []).shape == (2, 0)
    corpus, queries = ["small", "below", "at", "over", "below"], ["below", "at", "over", "small"]
    sem = _Counts()
    assert [row.tobytes() for row in sem.similarity_rows(queries, corpus)] == [
        _per_pair(sem, a, corpus) for a in queries
    ]
    # a query that cannot be scored fails the block, as it fails alone
    with pytest.raises(ZeroVector):
        _FloatProvider(zero={"blank"}).similarity_rows(["x", "blank"], ["x", "y"])
    with pytest.raises(DimensionMismatch):
        _FloatProvider(odd_dim={"odd"}).similarity_rows(["x", "odd"], ["x", "y"])


def test_float_embeddings_take_the_float64_product():
    class Weighted(HashingNgramProvider):
        WEIGHTS = np.random.default_rng(0).uniform(0.5, 1.5, EMBED_DIM)

        def embed(self, text):
            return super().embed(text) * self.WEIGHTS

        def embed_many(self, texts):
            return super().embed_many(texts) * self.WEIGHTS

    texts = _texts(20, seed=6)
    sem = Weighted()
    matrix, norms = sem._corpus_matrix(texts)[:2]
    assert matrix.dtype == np.float64
    for a in ["zzz unseen", texts[3]]:
        # a corpus text's vector and norm are read from the matrix
        u, nu = (matrix[texts.index(a)], norms[texts.index(a)]) if a in texts else sem._embed_cached(a)
        expected = (matrix @ u) / (nu * norms)
        expected[[t == a for t in texts]] = 1.0
        assert sem.similarities(a, texts).tobytes() == expected.tobytes()


class _FloatProvider(_CosineProvider):
    """Deterministic non-integer embeddings, so sums round."""

    def __init__(self, dim=24, zero=(), odd_dim=()):
        super().__init__()
        self.dim = dim
        self.zero = set(zero)
        self.odd_dim = set(odd_dim)

    def embed(self, text):
        if text in self.zero:
            return np.zeros(self.dim)
        dim = self.dim + 1 if text in self.odd_dim else self.dim
        return np.random.default_rng(zlib.crc32(text.encode())).normal(size=dim) * 1e3


def test_identical_texts_score_exactly_one_with_float_embeddings():
    sem = _FloatProvider()
    a = "text 34"
    vec, norm = sem._embed_cached(a)
    assert cosine_normed(vec, norm, vec, norm) < 1.0  # the rounded self-cosine
    assert sem.similarity(a, a) == 1.0
    texts = [a, "text 1", a, "query", a]
    got = sem.similarities(a, texts).tolist()
    assert [v for v, t in zip(got, texts) if t == a] == [1.0, 1.0, 1.0]
    assert all(v < 1.0 for v, t in zip(got, texts) if t != a)
    # the rule does not hide a zero vector, in either form
    blank = _FloatProvider(zero={"blank"})
    with pytest.raises(ZeroVector):
        blank.similarity("blank", "blank")
    with pytest.raises(ZeroVector):
        blank.similarities("blank", ["blank"])


def test_float_similarities_agree_with_per_pair_within_tolerance():
    texts = [f"text {i}" for i in range(50)] + ["text 3"]
    sem = _FloatProvider()
    for a in ["text 3", "query"]:
        got = sem.similarities(a, texts)
        expected = np.array([sem.similarity(a, t) for t in texts])
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_similarities_cache_one_corpus_entry():
    sem = _FloatProvider()
    calls = []
    embed_many = sem.embed_many
    sem.embed_many = lambda texts: calls.append(len(texts)) or embed_many(texts)
    corpus = [f"text {i}" for i in range(10)]
    sem.similarities("q1", corpus)
    sem.similarities("q2", list(corpus))
    assert calls == [10]
    sem.similarities("q1", corpus[:5])
    sem.similarities("q1", corpus)
    assert calls == [10, 5, 10]
    assert "text 0" not in sem._cache


def test_similarities_shared_by_threads_match_each_corpus():
    sem = HashingNgramProvider()
    corpora = [["pears", "plums"], ["apple pie", "", "İ"]]
    expected = [sem.similarities("apples", c).tolist() for c in corpora]
    mismatches = []

    def work(i):
        for j in range(300):
            corpus = corpora[(i + j) % 2]
            try:
                got = sem.similarities("apples", corpus).tolist()
            except Exception as exc:  # a torn cache entry shows as a shape error
                got = exc
            if got != expected[(i + j) % 2]:
                mismatches.append((i, j, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_similarities_raise_zero_vector():
    sem = _FloatProvider(zero={"blank"})
    with pytest.raises(ZeroVector):
        sem.similarities("q", ["x", "blank", "y"])
    with pytest.raises(ZeroVector):
        sem.similarities("blank", ["x", "y"])


def test_similarities_raise_dimension_mismatch():
    sem = _FloatProvider(odd_dim={"odd"})
    with pytest.raises(DimensionMismatch):
        sem.similarities("q", ["x", "odd", "y"])
    with pytest.raises(DimensionMismatch):
        sem.similarities("odd", ["x", "y"])


def test_similarities_of_no_texts_is_empty():
    assert HashingNgramProvider().similarities("q", []).shape == (0,)


class _FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status
        self.headers = {}
        self.text = str(payload)

    def json(self):
        return self._payload


class _FakeSession:
    """Answers the list of texts in ``input`` with the items in reverse
    order unless ``reply`` rewrites them."""

    def __init__(self, vectors, reply=lambda data: data[::-1]):
        self.vectors = vectors
        self.reply = reply
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append((url, json, headers))
        texts = json["input"]
        if any(text not in self.vectors for text in texts):
            return _FakeResponse({"error": "unknown"}, status=500)
        data = [{"index": i, "embedding": self.vectors[t]} for i, t in enumerate(texts)]
        return _FakeResponse({"data": self.reply(data)})


def test_remote_provider_posts_and_scores():
    session = _FakeSession({"q1": [1.0, 0.0], "q2": [0.0, 2.0]})
    sem = RemoteEmbeddingProvider(
        "http://emb.local/v1", "embedder", api_key="k", session=session
    )
    assert sem.similarity("q1", "q2") == pytest.approx(0.0)
    url, payload, headers = session.requests[0]
    assert url == "http://emb.local/v1/embeddings"
    assert payload == {"model": "embedder", "input": ["q1"]}
    assert headers["Authorization"] == "Bearer k"


def test_remote_provider_caches_embeddings():
    session = _FakeSession({"q1": [1.0, 1.0], "q2": [1.0, 0.0]})
    sem = RemoteEmbeddingProvider("http://emb.local", "m", session=session)
    sem.similarity("q1", "q2")
    sem.similarity("q1", "q2")
    assert len(session.requests) == 2


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(gateway, "BACKOFF_S", 0.0)


class _FlakySession(_FakeSession):
    """Fails the first POSTs with ``failures``, then answers as _FakeSession."""

    def __init__(self, vectors, failures):
        super().__init__(vectors)
        self.failures = list(failures)

    def post(self, url, json=None, headers=None, timeout=None):
        if self.failures:
            self.requests.append((url, json, headers))
            failure = self.failures.pop(0)
            if isinstance(failure, Exception):
                raise failure
            return failure
        return super().post(url, json=json, headers=headers, timeout=timeout)


@pytest.mark.parametrize(
    "failure",
    [requests.ConnectionError("down"), _FakeResponse({"error": "busy"}, status=503)],
    ids=["connection-error", "503"],
)
def test_remote_provider_retries_then_succeeds(no_backoff, failure):
    session = _FlakySession({"q1": [3.0, 4.0]}, [failure, failure])
    sem = RemoteEmbeddingProvider("http://emb.local", "m", session=session)
    assert sem.embed("q1").tolist() == [3.0, 4.0]
    assert len(session.requests) == 3


def test_remote_provider_wraps_failures(no_backoff):
    session = _FakeSession({})
    sem = RemoteEmbeddingProvider("http://emb.local", "m", session=session)
    with pytest.raises(ProviderError):
        sem.similarity("unknown", "also-unknown")


def _remote(vectors, **kwargs):
    session = _FakeSession(vectors, **kwargs)
    return RemoteEmbeddingProvider("http://emb.local", "m", session=session), session


def test_remote_embed_many_posts_batches_ordered_by_index():
    texts = [f"text {i}" for i in range(2 * EMBED_BATCH + 3)]
    vectors = {t: np.random.default_rng(i).normal(size=5).tolist() for i, t in enumerate(texts)}
    sem, session = _remote(vectors)
    got = sem.embed_many(texts)
    assert [len(payload["input"]) for _, payload, _ in session.requests] == [
        EMBED_BATCH,
        EMBED_BATCH,
        3,
    ]
    single, _ = _remote(vectors)
    assert np.array_equal(got, np.stack([single.embed(t) for t in texts]))


@pytest.mark.parametrize(
    "reply",
    [
        lambda data: data[1:],  # one vector missing
        lambda data: data + data[:1],  # one vector too many
        lambda data: [dict(item, index=0) for item in data],  # repeated index
        lambda data: [dict(item, index=i + 1) for i, item in enumerate(data)],  # off by one
        lambda data: [{"embedding": item["embedding"]} for item in data],  # no index
        lambda data: [dict(item, embedding="x") for item in data],  # not a vector
    ],
)
def test_remote_embed_many_rejects_mismatched_replies(no_backoff, reply):
    sem, _ = _remote({"a": [1.0, 0.0], "b": [0.0, 1.0]}, reply=reply)
    with pytest.raises(ProviderError):
        sem.embed_many(["a", "b"])


def test_remote_dedup_posts_once_per_batch_and_matches_per_pair_reference():
    offline = HashingNgramProvider()
    questions = [f"How many apples does person {i % 50} have?" for i in range(2 * EMBED_BATCH)]
    # integer vectors, so the batched cosine equals the per-pair one exactly
    vectors = {q: offline.embed(q).tolist() for q in questions}
    formulas = ["32+42", "7*6", "(32+42)-35", "5-2"]
    examples = [
        ReferenceExample(
            id=f"ex{i:03d}",
            question=q,
            right_reasoning="",
            right_formula=align_variables(formulas[i % 4]),
            wrong_reasoning="",
            wrong_formula=align_variables("1-2"),
            explanation="",
            gold_answer=1.0,
        )
        for i, q in enumerate(questions)
    ]
    cfg = SimilarityConfig(alpha=0.5, dedup_threshold=0.8)
    sem, session = _remote(vectors)
    kept = dedup(examples, cfg, sem)
    # one POST per batch of the corpus; scoring pair by pair makes one per distinct question
    assert len(session.requests) == len(questions) // EMBED_BATCH
    reference, _ = _remote(vectors)
    expected = greedy_dedup(examples, cfg, reference)
    assert 1 < len(expected) < len(examples)
    assert kept == expected


def test_per_text_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(semantic, "EMBED_CACHE_LIMIT", 3)
    texts = [f"text {i}" for i in range(8)]
    sem = _FloatProvider()
    for a in texts:
        for b in texts[::-1]:
            assert sem.similarity(a, b) == _FloatProvider().similarity(a, b)
            assert len(sem._cache) <= 3
