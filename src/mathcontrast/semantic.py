"""Semantic similarity providers for question texts.

Providers expose ``similarity(a, b) -> float in [-1, 1]``,
``similarities(a, texts)`` for one text against a whole corpus, and
``similarity_rows(queries, texts)`` for a block of texts against it. Two are
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
# texts per numpy pass of the offline provider's gram count; bounds its temporaries
EMBED_CHUNK = 32
# texts in the per-text vector cache of a provider; a full cache is cleared
EMBED_CACHE_LIMIT = 1 << 13
# texts per POST of RemoteEmbeddingProvider.embed_many
EMBED_BATCH = 64
# a count vector whose norm is below this has a squared norm below 2**24,
# under which float32 holds every integer exactly
EXACT_NORM = 4096.0


def _bucket_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """uint8 tables of the bucket, crc32 % EMBED_DIM, of every ASCII
    gram: that of a 2-gram (a, b) is ``pair2[a * 128 + b]``, and that of
    a 3-gram (a, b, c) is ``pair3[a * 128 + b] ^ last3[c]``.

    crc32 is affine over GF(2) on messages of one length, so the crc32
    of an n-byte gram is the crc32 of n zero bytes XOR one term per
    position i: the crc32 of n zero bytes with the gram's byte at
    position i, XOR the crc32 of n zero bytes (Stigge et al., "Reversing
    CRC - Theory and Practice", 2006). EMBED_DIM is 256, so a bucket is
    a crc32's low byte, and the low byte of an XOR is the XOR of the low
    bytes. Built at import from 642 crc32 calls.
    """
    # plain Python: numpy arithmetic here kept about 0.3 MB more of
    # numpy's code resident, code that counting does not use
    low = {}
    for n in (2, 3):
        zero = zlib.crc32(bytes(n))
        # row 0 keeps the crc32 of n zero bytes
        low[n] = [
            [
                (zlib.crc32(bytes(i) + bytes([b]) + bytes(n - 1 - i)) ^ (zero if i else 0)) % EMBED_DIM
                for b in range(128)
            ]
            for i in range(n)
        ]
    pair2, pair3 = (
        np.frombuffer(bytes(x ^ y for x in low[n][0] for y in low[n][1]), dtype=np.uint8) for n in (2, 3)
    )
    return pair2, pair3, np.array(low[3][2], dtype=np.uint8)


_PAIR2, _PAIR3, _LAST3 = _bucket_tables()


def _count_grams(texts: Sequence[str]) -> np.ndarray:
    """The offline embeddings of ``texts`` as the rows of a float32
    (n, EMBED_DIM) matrix: for each text, lowercased and padded with the
    sentinels ``^`` and ``$``, the count of its 2- and 3-grams in each
    crc32 % EMBED_DIM bucket.

    ``EMBED_CHUNK`` texts per numpy pass. The grams of the texts whose
    padded form is ASCII are bucketed by ``_bucket_tables`` lookup at
    every position of the chunk at once; any other text calls crc32 on
    the UTF-8 bytes of each of its grams.
    """
    out = np.zeros((len(texts), EMBED_DIM), dtype=np.float32)
    for start in range(0, len(texts), EMBED_CHUNK):
        block = out[start : start + EMBED_CHUNK]
        rows = []
        for i, text in enumerate(texts[start : start + EMBED_CHUNK]):
            padded = f"^{text.lower()}$"
            if padded.isascii():
                rows.append((i, padded))
            else:
                block[i] = np.bincount(
                    [
                        zlib.crc32(padded[j : j + n].encode("utf-8")) % EMBED_DIM
                        for n in (2, 3)
                        for j in range(len(padded) - n + 1)
                    ],
                    minlength=EMBED_DIM,
                )
        if not rows:
            continue
        codes = np.frombuffer("".join(padded for _, padded in rows).encode("ascii"), dtype=np.uint8)
        # the cell of each 2-gram, then of each 3-gram, starts at its text's
        # row; a gram that runs into the next text counts in a spare row
        spare = len(block) * EMBED_DIM
        offsets, counts = [], []
        for n in (2, 3):
            for i, padded in rows:
                offsets += (i * EMBED_DIM, spare)
                counts += (len(padded) - n + 1, n - 1)
            counts[-1] = 0
        cells = np.repeat(offsets, counts)
        pairs = codes[:-1].astype(np.uint16) << 7 | codes[1:]
        cells[: len(pairs)] += _PAIR2.take(pairs)
        cells[len(pairs) :] += _PAIR3.take(pairs[:-1]) ^ _LAST3.take(codes[2:])
        block += np.bincount(cells, minlength=spare + EMBED_DIM)[:spare].reshape(block.shape)
    return out


class _CosineProvider:
    """Similarity as the cosine of embeddings; identical texts score 1.0
    exactly, whatever their rounded self-cosine.

    ``similarity`` caches each text's vector with its norm, for up to
    ``EMBED_CACHE_LIMIT`` texts; a full cache is cleared.
    ``similarity_rows``, and ``similarities`` through it, cache one
    corpus per provider: the embedding matrix of its texts,
    the row norms, each text's first row, each row's first row with the
    same text, and the rows whose norm reaches ``EXACT_NORM``, keyed by
    the texts tuple. Corpus vectors live only in that matrix.
    """

    def __init__(self):
        self._cache: dict[str, tuple[np.ndarray, float]] = {}
        self._corpus: (
            tuple[tuple[str, ...], np.ndarray, np.ndarray, dict[str, int], np.ndarray, np.ndarray]
            | None
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
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int], np.ndarray, np.ndarray]:
        key = tuple(texts)
        with self._lock:
            entry = self._corpus
        if entry is None or entry[0] != key:
            matrix = self.embed_many(key)
            # squared row norms without an n x d temporary, in the matrix's
            # dtype; float32 sums counts exactly below 2**24, and the rows
            # that reach it are summed again in float64
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix).astype(np.float64))
            big = np.flatnonzero(norms >= EXACT_NORM)
            if matrix.dtype == np.float32 and big.size:
                wide = matrix[big].astype(np.float64)
                norms[big] = np.sqrt(np.einsum("ij,ij->i", wide, wide))
            rows: dict[str, int] = {}
            first = np.array([rows.setdefault(text, i) for i, text in enumerate(key)], dtype=np.intp)
            entry = (key, matrix, norms, rows, first, big)
            with self._lock:
                self._corpus = entry
        return entry[1:]

    def similarity(self, a: str, b: str) -> float:
        # the cosine still runs for a == b, so its errors match ``similarities``
        value = cosine_normed(*self._embed_cached(a), *self._embed_cached(b))
        return 1.0 if a == b else value

    def similarities(self, a: str, texts: Sequence[str]) -> np.ndarray:
        """``[similarity(a, t) for t in texts]``: the one-row case of
        ``similarity_rows``."""
        return self.similarity_rows((a,), texts)[0]

    def similarity_rows(self, queries: Sequence[str], texts: Sequence[str]) -> np.ndarray:
        """``[[similarity(a, t) for t in texts] for a in queries]`` as an
        (m, n) array, from one matrix product ``(matrix @ U) / (nu *
        norms)`` over the query vectors ``U`` (one query: a
        matrix-vector product), raising ZeroVector and DimensionMismatch
        as ``similarity`` does.

        With integer embeddings, such as the hashing provider's counts,
        every dot product and squared norm is an exact integer whatever
        order BLAS sums in, so each value equals ``similarity``'s bit for
        bit. The hashing provider's matrix is float32, and so is its
        product when every query's norm and the row's are below
        ``EXACT_NORM``: counts are never negative, so every partial sum
        is at most the dot product, which Cauchy-Schwarz bounds by the
        larger squared norm, below 2**24. Any other row's product, or
        every row's for a larger query, is taken in float64. With float
        embeddings, such as a remote provider's, the matrix is float64
        and the two may differ in the last bit, except at the texts equal
        to a query, which both score 1.0.

        A query that is one of ``texts`` is read from the corpus matrix,
        so scoring a corpus against itself embeds nothing more.
        """
        if not texts or not queries:
            return np.zeros((len(queries), len(texts)))
        matrix, norms, rows, first, big = self._corpus_matrix(texts)
        us, nus, own = [], [], []
        for a in queries:
            row = rows.get(a)
            u, nu = self._embed_cached(a) if row is None else (matrix[row], norms[row])
            if matrix.shape[1:] != u.shape:
                raise DimensionMismatch(
                    f"vector dimensions differ: {u.shape} vs {matrix.shape[1:]}"
                )
            us.append(u)
            nus.append(nu)
            own.append(-1 if row is None else row)
        if min(nus) == 0.0 or not norms.all():
            raise ZeroVector("cosine similarity is undefined for a zero vector")
        # one query is a matrix-vector product; m queries a matrix product
        # with one column each, divided row by row
        u, nu = (us[0], nus[0]) if len(us) == 1 else (np.stack(us, axis=1), np.array(nus)[:, None])
        if matrix.dtype == np.float32 and max(nus) < EXACT_NORM:
            dots = (matrix @ u.astype(np.float32)).astype(np.float64)
            if big.size:
                dots[big] = matrix[big] @ u.astype(np.float64)
        else:
            dots = matrix @ u.astype(np.float64)
        # one row per query, divided in place
        out = dots.T
        out /= nu * norms
        out = out.reshape(len(us), len(matrix))
        if max(own) >= 0:
            # the texts equal to a query are the rows whose first row is its own
            out[np.equal.outer(own, first)] = 1.0
        return out


class HashingNgramProvider(_CosineProvider):
    """Offline embedding from hashed character n-grams.

    Texts are lowercased, padded with sentinels, and their 2- and
    3-grams counted into buckets chosen by crc32 (a stable hash, unlike
    Python's). The padding guarantees a non-zero vector even for empty
    text.
    """

    def embed(self, text: str) -> np.ndarray:
        # not self.embed_many: a subclass may override that
        return _count_grams((text,))[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """``embed`` of each text, by the same count (``_count_grams``)."""
        return _count_grams(texts)


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
