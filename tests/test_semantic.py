import numpy as np
import pytest

from mathcontrast.errors import ProviderError
from mathcontrast.semantic import (
    EMBED_DIM,
    HashingNgramProvider,
    RemoteEmbeddingProvider,
)


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


class _FakeResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests_error("boom")

    def json(self):
        return self._payload


def requests_error(msg):
    import requests

    return requests.HTTPError(msg)


class _FakeSession:
    def __init__(self, vectors):
        self.vectors = vectors
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append((url, json, headers))
        text = json["input"]
        if text not in self.vectors:
            return _FakeResponse({"error": "unknown"}, status=500)
        return _FakeResponse({"data": [{"embedding": self.vectors[text]}]})


def test_remote_provider_posts_and_scores():
    session = _FakeSession({"q1": [1.0, 0.0], "q2": [0.0, 2.0]})
    sem = RemoteEmbeddingProvider(
        "http://emb.local/v1", "embedder", api_key="k", session=session
    )
    assert sem.similarity("q1", "q2") == pytest.approx(0.0)
    url, payload, headers = session.requests[0]
    assert url == "http://emb.local/v1/embeddings"
    assert payload == {"model": "embedder", "input": "q1"}
    assert headers["Authorization"] == "Bearer k"


def test_remote_provider_caches_embeddings():
    session = _FakeSession({"q1": [1.0, 1.0], "q2": [1.0, 0.0]})
    sem = RemoteEmbeddingProvider("http://emb.local", "m", session=session)
    sem.similarity("q1", "q2")
    sem.similarity("q1", "q2")
    assert len(session.requests) == 2


def test_remote_provider_wraps_failures():
    session = _FakeSession({})
    sem = RemoteEmbeddingProvider("http://emb.local", "m", session=session)
    with pytest.raises(ProviderError):
        sem.similarity("unknown", "also-unknown")
