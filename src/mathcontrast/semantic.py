"""Semantic similarity providers for question texts.

Providers expose ``similarity(a, b) -> float in [-1, 1]``. Two are
built in: a remote provider that calls an HTTP embedding endpoint, and
a fully offline provider that hashes character n-grams into a fixed
256-dimensional vector. The offline one is deterministic across
processes and platforms, which makes it the right choice for tests and
CI.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np
import requests

from .errors import ProviderError
from .similarity import cosine_normed

EMBED_DIM = 256


class _CosineProvider:
    """Similarity as the cosine of cached per-text embeddings; each text's
    norm is cached with its vector."""

    def __init__(self):
        self._cache: dict[str, tuple[np.ndarray, float]] = {}
        self._lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def _embed_cached(self, text: str) -> tuple[np.ndarray, float]:
        with self._lock:
            hit = self._cache.get(text)
        if hit is not None:
            return hit
        vec = np.asarray(self.embed(text), dtype=np.float64)
        hit = (vec, np.linalg.norm(vec))
        with self._lock:
            self._cache[text] = hit
        return hit

    def similarity(self, a: str, b: str) -> float:
        return cosine_normed(*self._embed_cached(a), *self._embed_cached(b))


class HashingNgramProvider(_CosineProvider):
    """Offline embedding from hashed character n-grams.

    Texts are lowercased, padded with sentinels, and their 2- and
    3-grams counted into buckets chosen by crc32 (a stable hash, unlike
    Python's). Identical texts score 1.0 exactly; the padding guarantees
    a non-zero vector even for empty text.
    """

    def embed(self, text: str) -> np.ndarray:
        padded = f"^{text.lower()}$"
        buckets = [
            zlib.crc32(padded[i : i + n].encode("utf-8")) % EMBED_DIM
            for n in (2, 3)
            for i in range(len(padded) - n + 1)
        ]
        return np.bincount(buckets, minlength=EMBED_DIM).astype(np.float64)

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return super().similarity(a, b)


class RemoteEmbeddingProvider(_CosineProvider):
    """Embeddings from an HTTP endpoint speaking the common
    ``POST /embeddings {model, input}`` JSON protocol."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        super().__init__()
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

    def embed(self, text: str) -> np.ndarray:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self.session.post(
                f"{self.endpoint}/embeddings",
                json={"model": self.model, "input": text},
                headers=headers,
                timeout=self.timeout,
            )
            resp.raise_for_status()
            payload = resp.json()
            return np.asarray(payload["data"][0]["embedding"], dtype=np.float64)
        except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
            raise ProviderError(f"embedding request failed: {exc}") from exc
