"""Semantic similarity providers for question texts.

Providers expose ``similarity(a, b) -> float in [-1, 1]``, and
``similarities(a, texts)`` for one text against a whole corpus. Two are
built in: a remote provider that calls an HTTP embedding endpoint, and
a fully offline provider that hashes character n-grams into a fixed
256-dimensional vector. The offline one is deterministic across
processes and platforms, which makes it the right choice for tests and
CI.
"""

from __future__ import annotations

import threading
import zlib
from typing import Sequence

import numpy as np
import requests

from .errors import DimensionMismatch, GatewayError, ProviderError, ZeroVector
from .gateway import post_json
from .similarity import cosine_normed

EMBED_DIM = 256
# texts per numpy pass of HashingNgramProvider.embed_many; bounds its temporaries
EMBED_CHUNK = 32
# texts in the per-text vector cache of a provider; a full cache is cleared
EMBED_CACHE_LIMIT = 1 << 13
# texts per POST of RemoteEmbeddingProvider.embed_many
EMBED_BATCH = 64


def _crc_table(n: int) -> tuple[np.uint32, np.ndarray]:
    """crc32 of n zero bytes, and an (n, 128) table whose row i, column
    b is crc32 of n zero bytes with the ASCII byte b at position i, XOR
    crc32 of n zero bytes.

    crc32 is affine over GF(2) on messages of one length, so the crc32
    of an n-byte gram is that of n zero bytes XOR row i's entry for its
    byte i, over every i (Stigge et al., "Reversing CRC - Theory and
    Practice", 2006).
    """
    zero = zlib.crc32(bytes(n))
    table = [
        [zlib.crc32(bytes(i) + bytes([b]) + bytes(n - 1 - i)) ^ zero for b in range(128)]
        for i in range(n)
    ]
    return np.uint32(zero), np.array(table, dtype=np.uint32)


# per gram length, built once: 640 crc32 calls
_CRC_TABLES = {n: _crc_table(n) for n in (2, 3)}


def _gram_crcs(codes: np.ndarray, n: int) -> np.ndarray:
    """crc32 of the n-gram at each position of the ASCII bytes ``codes``
    that starts one, as uint32."""
    zero, table = _CRC_TABLES[n]
    stop = len(codes) - n + 1
    crcs = table[0][codes[:stop]] ^ zero
    for i in range(1, n):
        crcs ^= table[i][codes[i : i + stop]]
    return crcs


class _CosineProvider:
    """Similarity as the cosine of embeddings; identical texts score 1.0
    exactly, whatever their rounded self-cosine.

    ``similarity`` caches each text's vector with its norm, for up to
    ``EMBED_CACHE_LIMIT`` texts; a full cache is cleared. ``similarities``
    caches one corpus per provider: the embedding matrix of its texts,
    the row norms, each text's first row, and each row's first row with
    the same text, keyed by the texts tuple. Corpus vectors live only in
    that matrix.
    """

    def __init__(self):
        self._cache: dict[str, tuple[np.ndarray, float]] = {}
        self._corpus: (
            tuple[tuple[str, ...], np.ndarray, np.ndarray, dict[str, int], np.ndarray] | None
        ) = None
        self._lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """The embeddings of ``texts`` as the rows of an (n, d) matrix."""
        vecs = [np.asarray(self.embed(text), dtype=np.float64) for text in texts]
        if len({vec.shape for vec in vecs}) > 1:
            raise DimensionMismatch("embedding dimensions differ within one batch")
        return np.stack(vecs) if vecs else np.empty((0, 0))

    def _embed_cached(self, text: str) -> tuple[np.ndarray, float]:
        with self._lock:
            hit = self._cache.get(text)
        if hit is not None:
            return hit
        vec = np.asarray(self.embed(text), dtype=np.float64)
        hit = (vec, np.linalg.norm(vec))
        with self._lock:
            if len(self._cache) >= EMBED_CACHE_LIMIT:
                self._cache.clear()
            self._cache[text] = hit
        return hit

    def _corpus_matrix(
        self, texts: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int], np.ndarray]:
        key = tuple(texts)
        with self._lock:
            entry = self._corpus
        if entry is None or entry[0] != key:
            matrix = self.embed_many(key)
            # row norms without an n x d temporary
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
            rows: dict[str, int] = {}
            first = np.array([rows.setdefault(text, i) for i, text in enumerate(key)], dtype=np.intp)
            entry = (key, matrix, norms, rows, first)
            with self._lock:
                self._corpus = entry
        return entry[1:]

    def similarity(self, a: str, b: str) -> float:
        # the cosine still runs for a == b, so its errors match ``similarities``
        value = cosine_normed(*self._embed_cached(a), *self._embed_cached(b))
        return 1.0 if a == b else value

    def similarities(self, a: str, texts: Sequence[str]) -> np.ndarray:
        """``[similarity(a, t) for t in texts]`` as one matrix-vector
        product, ``(matrix @ u) / (nu * norms)``, raising ZeroVector and
        DimensionMismatch as ``similarity`` does.

        With integer embeddings, such as the hashing provider's counts,
        every dot product and squared norm is an exact integer whatever
        order BLAS sums in, so each value equals ``similarity``'s bit for
        bit. With float embeddings, such as a remote provider's, the two
        may differ in the last bit, except at the texts equal to ``a``,
        which both score 1.0.

        When ``a`` is one of ``texts`` its vector is read from the corpus
        matrix, so scoring a corpus against itself embeds nothing more.
        """
        if not texts:
            return np.zeros(0)
        matrix, norms, rows, first = self._corpus_matrix(texts)
        row = rows.get(a)
        u, nu = self._embed_cached(a) if row is None else (matrix[row], norms[row])
        if matrix.shape[1:] != u.shape:
            raise DimensionMismatch(
                f"vector dimensions differ: {u.shape} vs {matrix.shape[1:]}"
            )
        if nu == 0.0 or not norms.all():
            raise ZeroVector("cosine similarity is undefined for a zero vector")
        out = (matrix @ u) / (nu * norms)
        if row is not None:
            # the texts equal to ``a`` are the rows whose first row is a's
            out[first == row] = 1.0
        return out


class HashingNgramProvider(_CosineProvider):
    """Offline embedding from hashed character n-grams.

    Texts are lowercased, padded with sentinels, and their 2- and
    3-grams counted into buckets chosen by crc32 (a stable hash, unlike
    Python's). The padding guarantees a non-zero vector even for empty
    text.
    """

    def embed(self, text: str) -> np.ndarray:
        padded = f"^{text.lower()}$"
        buckets = [
            zlib.crc32(padded[i : i + n].encode("utf-8")) % EMBED_DIM
            for n in (2, 3)
            for i in range(len(padded) - n + 1)
        ]
        return np.bincount(buckets, minlength=EMBED_DIM).astype(np.float64)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """``embed`` of each text, counted for ``EMBED_CHUNK`` texts per
        numpy pass.

        The grams of a text whose padded, lowercased form is ASCII are
        hashed by table lookup (``_gram_crcs``) at every position of the
        chunk at once; any other text takes its row from ``embed``.
        """
        out = np.zeros((len(texts), EMBED_DIM))
        for start in range(0, len(texts), EMBED_CHUNK):
            block = out[start : start + EMBED_CHUNK]
            padded = {}
            for i, text in enumerate(texts[start : start + EMBED_CHUNK]):
                chars = f"^{text.lower()}$"
                if chars.isascii():
                    padded[i] = chars
                else:
                    block[i] = self.embed(text)
            if not padded:
                continue
            codes = np.frombuffer("".join(padded.values()).encode("ascii"), dtype=np.uint8)
            row = np.repeat(list(padded), [len(chars) for chars in padded.values()])
            cells = []
            for n in (2, 3):
                stop = len(codes) - n + 1
                # a gram lies within one text when its first and last byte do
                within = row[:stop] == row[n - 1 :]
                cells.append((row[:stop] * EMBED_DIM + _gram_crcs(codes, n) % EMBED_DIM)[within])
            block += np.bincount(np.concatenate(cells), minlength=block.size).reshape(block.shape)
        return out


# a failed POST, or a reply without the expected fields and types
_RESPONSE_ERRORS = (GatewayError, KeyError, IndexError, TypeError, ValueError)


class RemoteEmbeddingProvider(_CosineProvider):
    """Embeddings from an HTTP endpoint speaking the common
    ``POST /embeddings {model, input}`` JSON protocol, through the
    chat client's retrying ``post_json``."""

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
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One POST per ``EMBED_BATCH`` texts, ``input`` as a list; the
        vectors are ordered by each item's ``index``."""
        vecs = []
        try:
            for start in range(0, len(texts), EMBED_BATCH):
                batch = list(texts[start : start + EMBED_BATCH])
                body = post_json(
                    self.session,
                    f"{self.endpoint}/embeddings",
                    {"model": self.model, "input": batch},
                    self.api_key,
                    self.timeout,
                )
                data = sorted(body["data"], key=lambda item: item["index"])
                if [item["index"] for item in data] != list(range(len(batch))):
                    raise ProviderError(f"embedding indices do not match {len(batch)} inputs")
                vecs += [item["embedding"] for item in data]
            # ragged vectors raise ValueError
            return np.array(vecs, dtype=np.float64) if vecs else np.empty((0, 0))
        except _RESPONSE_ERRORS as exc:
            raise ProviderError(f"embedding request failed: {exc}") from exc
