"""Backend-agnostic chat completion client plus a scripted mock.

The HTTP backend speaks the de facto open chat-completion protocol
(JSON ``messages`` array), so self-hosted 7B servers and hosted APIs
are reachable through one client. The mock replays scripted
completions keyed by a stable prompt fingerprint and keeps whole runs
byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import requests

from .datasets import read_json_object
from .errors import (
    AuthError,
    BackendError,
    RateLimited,
    SchemaError,
    TransportError,
    UnknownPrompt,
)

log = logging.getLogger(__name__)

Message = tuple[str, str]  # (role, content)


@dataclass(frozen=True)
class DecodingParams:
    """Sampling parameters; the defaults are the tuned inference settings."""

    max_new_tokens: int = 400
    top_p: float = 0.95
    temperature: float = 0.1
    top_k: int = 30
    repetition_penalty: float = 1.15


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[Message, ...]
    params: DecodingParams = DecodingParams()
    sample_count: int = 1

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass(frozen=True)
class ChatResponse:
    completions: tuple[str, ...]
    usage: dict = field(default_factory=dict)
    latency: float = 0.0


class ChatBackend(Protocol):
    def complete(self, req: ChatRequest) -> ChatResponse: ...


# Wire names of each decoding parameter in the open chat-completion
# protocol. Fields listed in ``unsupported`` are omitted from the
# payload entirely, never renamed to something else.
_WIRE_NAMES = {
    "max_new_tokens": "max_tokens",
    "top_p": "top_p",
    "temperature": "temperature",
    "top_k": "top_k",
    "repetition_penalty": "repetition_penalty",
}


class HttpChatBackend:
    """Chat-completion client for an OpenAI-style HTTP endpoint.

    Transient transport failures and 5xx responses are retried with
    exponential backoff. Multi-sample requests are issued as
    independent single-sample calls by default (bounded by
    ``parallelism``); pass ``native_sampling=True`` for backends that
    accept an ``n`` parameter. A body asked for ``n`` completions that
    carries another number of choices raises BackendError.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        parallelism: int = 4,
        native_sampling: bool = False,
        unsupported: Sequence[str] = (),
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.native_sampling = native_sampling
        self.unsupported = frozenset(unsupported)
        self.session = session or requests.Session()
        self._gate = threading.Semaphore(parallelism)
        self._parallelism = parallelism

    def build_payload(self, req: ChatRequest, n: int | None = None) -> dict:
        payload = {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
        }
        for name, wire in _WIRE_NAMES.items():
            if name not in self.unsupported:
                payload[wire] = getattr(req.params, name)
        if n is not None and n > 1:
            payload["n"] = n
        return payload

    def _post_once(self, payload: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        attempt = 0
        while True:
            try:
                resp = self.session.post(
                    f"{self.endpoint}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise TransportError(
                        f"backend unreachable after {attempt} attempts: {exc}"
                    ) from exc
                delay = self.backoff * 2 ** (attempt - 1)
                log.warning("transport failure (%s); retrying in %.1fs", exc, delay)
                time.sleep(delay)
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"backend rejected credentials ({resp.status_code})")
            if resp.status_code == 429:
                retry_after = resp.headers.get("Retry-After")
                raise RateLimited(
                    "backend rate limit hit",
                    retry_after=float(retry_after) if retry_after else None,
                )
            if resp.status_code >= 500:
                attempt += 1
                if attempt > self.max_retries:
                    raise BackendError(
                        f"backend error {resp.status_code}: {resp.text[:200]}"
                    )
                delay = self.backoff * 2 ** (attempt - 1)
                log.warning("backend %d; retrying in %.1fs", resp.status_code, delay)
                time.sleep(delay)
                continue
            if resp.status_code >= 400:
                raise BackendError(
                    f"backend error {resp.status_code}: {resp.text[:200]}"
                )
            try:
                return resp.json()
            except ValueError as exc:
                raise BackendError(f"backend returned non-JSON body: {exc}") from exc

    def _guarded_post(self, payload: dict) -> dict:
        with self._gate:
            return self._post_once(payload)

    def complete(self, req: ChatRequest) -> ChatResponse:
        start = time.monotonic()
        usage = {"prompt_tokens": 0, "completion_tokens": 0, "total_tokens": 0}

        def parse(body) -> list[str]:
            contents, body_usage = _parse_body(body)
            for key in usage:
                usage[key] += int(body_usage.get(key, 0) or 0)
            return contents

        if self.native_sampling or req.sample_count == 1:
            body = self._guarded_post(self.build_payload(req, n=req.sample_count))
            completions = tuple(parse(body))
            if len(completions) != req.sample_count:
                raise BackendError(
                    f"backend returned {len(completions)} choice(s) for n={req.sample_count}"
                )
        else:
            payload = self.build_payload(req)
            workers = min(self._parallelism, req.sample_count)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                bodies = list(
                    pool.map(
                        lambda _: self._guarded_post(payload),
                        range(req.sample_count),
                    )
                )
            completions = tuple(parse(body)[0] for body in bodies)
        return ChatResponse(completions, usage, time.monotonic() - start)


def _parse_body(body) -> tuple[list[str], dict]:
    """The completion texts and the ``usage`` object of one chat body.

    A body that is not an object, has no choices, or has a choice whose
    ``message.content`` is not a string raises BackendError; a missing
    or non-object ``usage`` reads as empty.
    """
    if not isinstance(body, dict):
        raise BackendError(f"backend body is not a JSON object: {type(body).__name__}")
    choices = body.get("choices")
    if not isinstance(choices, list) or not choices:
        raise BackendError("backend returned no choices")
    contents = []
    for choice in choices:
        message = choice.get("message") if isinstance(choice, dict) else None
        content = message.get("content") if isinstance(message, dict) else None
        if not isinstance(content, str):
            raise BackendError("backend choice has no string message.content")
        contents.append(content)
    usage = body.get("usage")
    return contents, usage if isinstance(usage, dict) else {}


def fingerprint(messages: Sequence[Message]) -> str:
    """Stable hash of a full message list, for keying mock scripts."""
    blob = json.dumps([[r, c] for r, c in messages], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


class MockBackend:
    """Deterministic scripted backend for offline runs and tests.

    Completions are looked up by the fingerprint of the full message
    list, with optional substring rules as a hand-writable fallback
    (every string in a rule's ``contains`` must appear in the
    concatenated message contents; first matching rule wins). A request
    for n samples takes the first n scripted completions, cycling when
    the script is shorter. With ``stateful=True`` repeated requests
    keep consuming the script instead of restarting it, which lets one
    script simulate run-to-run variation; either way a whole run is
    reproducible from scratch.
    """

    def __init__(
        self,
        script: dict[str, list[str]] | None = None,
        rules: Sequence[tuple[str | Sequence[str], list[str]]] = (),
        default: str | None = None,
        strict: bool = False,
        stateful: bool = False,
    ):
        self.script = dict(script or {})
        self.rules = [
            ((c,) if isinstance(c, str) else tuple(c), list(comps))
            for c, comps in rules
        ]
        self.default = default
        self.strict = strict
        self.stateful = stateful
        self.calls: list[ChatRequest] = []
        self._cursors: dict[str, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def fingerprint(messages: Sequence[Message]) -> str:
        return fingerprint(messages)

    @classmethod
    def from_file(cls, path) -> "MockBackend":
        """The backend a JSON script describes; SchemaError names the
        field of a malformed script."""
        obj = read_json_object(path)
        script = obj.get("fingerprints") or {}
        if not isinstance(script, dict) or not all(map(_strings, script.values())):
            raise SchemaError("fingerprints is not a map of string lists", 1, "fingerprints")
        rules = obj.get("rules") or []
        if not isinstance(rules, list):
            raise SchemaError("rules is not a list", 1, "rules")
        for i, rule in enumerate(rules):
            if not (
                isinstance(rule, dict)
                and (isinstance(rule.get("contains"), str) or _strings(rule.get("contains")))
                and _strings(rule.get("completions"))
            ):
                raise SchemaError(
                    f"rule {i} needs 'contains' (a string or string list) and "
                    "'completions' (a string list)",
                    1,
                    "rules",
                )
        default = obj.get("default")
        if not isinstance(default, (str, type(None))):
            raise SchemaError("default is not a string", 1, "default")
        for name in ("strict", "stateful"):
            if not isinstance(obj.get(name, False), bool):
                raise SchemaError(f"{name} is not a boolean", 1, name)
        return cls(
            script=script,
            rules=[(rule["contains"], rule["completions"]) for rule in rules],
            default=default,
            strict=obj.get("strict", False),
            stateful=obj.get("stateful", False),
        )

    def _lookup(self, req: ChatRequest) -> tuple[str, list[str]]:
        fp = fingerprint(req.messages)
        if fp in self.script:
            return fp, self.script[fp]
        text = "\n".join(content for _role, content in req.messages)
        for needles, completions in self.rules:
            if all(needle in text for needle in needles):
                return "rule:" + "|".join(needles), completions
        if self.default is not None and not self.strict:
            return "default", [self.default]
        raise UnknownPrompt(f"no script for prompt fingerprint {fp}")

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            self.calls.append(req)
            key, completions = self._lookup(req)
            start = 0
            if self.stateful:
                start = self._cursors.get(key, 0)
                self._cursors[key] = start + req.sample_count
        chosen = tuple(
            completions[(start + i) % len(completions)]
            for i in range(req.sample_count)
        )
        return ChatResponse(chosen, {"prompt_tokens": 0, "completion_tokens": 0, "total_tokens": 0}, 0.0)
