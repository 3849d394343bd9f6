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
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import requests

from .datasets import check_fields, read_json_object
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


# Retries after the first attempt of one POST, and the wait before the
# first retry; each later retry waits twice as long as the one before.
MAX_RETRIES = 3
BACKOFF_S = 0.5


def _retry_after(value) -> float | None:
    """A ``Retry-After`` header in seconds; an HTTP-date, a negative or
    any other non-number reads as absent."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


def post_json(session, url: str, payload: dict, api_key: str | None, timeout: float):
    """The JSON body of a POST of ``payload`` to ``url``.

    Transport failures, 429s and 5xx responses are retried up to
    ``MAX_RETRIES`` times. Retry i waits ``BACKOFF_S * 2**i`` seconds,
    or a 429's ``Retry-After`` capped at ``timeout``. The last failure
    raises TransportError, RateLimited or BackendError. A 401 or 403
    raises AuthError; another 4xx, or a body that is not JSON or nests
    too deep to decode, raises BackendError.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    for attempt in range(MAX_RETRIES + 1):
        delay = BACKOFF_S * 2**attempt
        try:
            resp = session.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            error = TransportError(f"backend unreachable after {attempt + 1} attempts: {exc}")
            error.__cause__ = exc
        else:
            status = resp.status_code
            if status in (401, 403):
                raise AuthError(f"backend rejected credentials ({status})")
            if status == 429:
                retry_after = _retry_after(resp.headers.get("Retry-After"))
                error = RateLimited("backend rate limit hit", retry_after=retry_after)
                if retry_after is not None:
                    delay = min(retry_after, timeout)
            elif status >= 400:
                error = BackendError(f"backend error {status}: {resp.text[:200]}")
                if status < 500:
                    raise error
            else:
                try:
                    return resp.json()
                except (ValueError, RecursionError) as exc:
                    raise BackendError(f"backend returned non-JSON body: {exc}") from exc
        if attempt == MAX_RETRIES:
            raise error
        log.warning("%s; retrying in %.1fs", error, delay)
        time.sleep(delay)


class HttpChatBackend:
    """Chat-completion client for an OpenAI-style HTTP endpoint.

    Every POST goes through ``post_json``, which retries. A request for
    n samples is n single-sample POSTs, and each body must carry exactly
    one choice, else BackendError. The POSTs run on one pool of
    ``parallelism`` threads per backend, so at most ``parallelism`` are
    in flight whatever the number of callers.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        parallelism: int = 4,
        unsupported: Sequence[str] = (),
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.unsupported = frozenset(unsupported)
        self.session = session or requests.Session()
        self._pool = ThreadPoolExecutor(max_workers=parallelism)

    def build_payload(self, req: ChatRequest) -> dict:
        payload = {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
        }
        for name, wire in _WIRE_NAMES.items():
            if name not in self.unsupported:
                payload[wire] = getattr(req.params, name)
        return payload

    def complete(self, req: ChatRequest) -> ChatResponse:
        start = time.monotonic()
        url = f"{self.endpoint}/chat/completions"
        payload = self.build_payload(req)
        # once one POST fails, map cancels those not yet started
        bodies = list(
            self._pool.map(
                lambda _: post_json(self.session, url, payload, self.api_key, self.timeout),
                range(req.sample_count),
            )
        )
        usage = {"prompt_tokens": 0, "completion_tokens": 0, "total_tokens": 0}
        completions = []
        for body in bodies:
            contents, body_usage = _parse_body(body)
            if len(contents) != 1:
                raise BackendError(f"backend returned {len(contents)} choices for one sample")
            completions.append(contents[0])
            for key in usage:
                usage[key] += int(body_usage.get(key, 0) or 0)
        return ChatResponse(tuple(completions), usage, time.monotonic() - start)


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


# the top level of a mock script; a fingerprint maps to a string list
_MOCK_SCRIPT_FIELDS = (
    ("fingerprints", (dict,), {}),
    ("rules", (list,), []),
    ("default", (str, type(None)), None),
    ("strict", (bool,), False),
    ("stateful", (bool,), False),
)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


class MockBackend:
    """Deterministic scripted backend for offline runs and tests.

    Completions are looked up by the fingerprint of the full message
    list, with optional substring rules as a hand-writable fallback
    (every string in a rule's ``contains`` must appear in the
    concatenated message contents; first matching rule wins). Each rule
    is filed under its anchor, the needle of its ``contains`` that the
    fewest rules share, and a lookup checks only the rules filed under
    the anchors present; the rules are fixed at construction. Anchors
    that share a first character, at least two per anchor length, are
    found together: each hit of their common prefix in the text is
    looked up at each anchor length. A group whose prefix has more hits
    than it has anchors per length, and every other anchor, gets one
    ``in`` test. A request
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
        self.rules = tuple(
            ((c,) if isinstance(c, str) else tuple(c), list(comps))
            for c, comps in rules
        )
        # an empty completion list has nothing to cycle through
        for fp, comps in self.script.items():
            if not comps:
                raise ValueError(f"fingerprint {fp} has no completions")
        for i, (_, comps) in enumerate(self.rules):
            if not comps:
                raise ValueError(f"rule {i} has no completions")
        self.default = default
        self.strict = strict
        self.stateful = stateful
        # kept empty: no request is stored, but the benchmark's stub server
        # (perfbench/stub_server.py) still clears this list after each request
        self.calls: list[ChatRequest] = []
        self._cursors: dict[str | tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        # a rule without needles matches every text, so no later rule can win
        self._unanchored = next(
            (i for i, (needles, _) in enumerate(self.rules) if not needles), len(self.rules)
        )
        shared = Counter(needle for needles, _ in self.rules for needle in set(needles))
        filed: dict[str, list[int]] = {}
        for i, (needles, _) in enumerate(self.rules[: self._unanchored]):
            filed.setdefault(min(needles, key=shared.__getitem__), []).append(i)
        self._anchors = tuple(filed.items())
        # anchors that share a first character are found together, from the
        # hits of their common prefix: each hit costs one slice per anchor
        # length, so a group is probed while those slices number no more than
        # its anchors, and only if that allows two hits
        groups: dict[str, dict[str, int]] = {}
        for order, (anchor, _) in enumerate(self._anchors):
            groups.setdefault(anchor[:1], {})[anchor] = order
        self._groups = []
        tested = []
        for group in groups.values():
            lengths = sorted({len(a) for a in group})
            most = len(group) // len(lengths)  # the hits a probe may look up
            if most < 2:
                tested += group.values()
            else:
                self._groups.append((os.path.commonprefix(list(group)), group, lengths, most))
        self._tested = sorted(tested)

    @classmethod
    def from_file(cls, path) -> "MockBackend":
        """The backend a JSON script describes; SchemaError names the
        field of a malformed script."""
        obj = read_json_object(path)
        script, rules, default, strict, stateful = check_fields(obj, _MOCK_SCRIPT_FIELDS, 1)
        # an empty completion list has nothing to cycle through
        if not all(_strings(comps) and comps for comps in script.values()):
            raise SchemaError("fingerprints is not a map of non-empty string lists", 1, "fingerprints")
        for i, rule in enumerate(rules):
            if not (
                isinstance(rule, dict)
                and (isinstance(rule.get("contains"), str) or _strings(rule.get("contains")))
                and _strings(rule.get("completions"))
                and rule["completions"]
            ):
                raise SchemaError(
                    f"rule {i} needs 'contains' (a string or string list) and "
                    "'completions' (a non-empty string list)",
                    1,
                    "rules",
                )
        return cls(
            script=script,
            rules=[(rule["contains"], rule["completions"]) for rule in rules],
            default=default,
            strict=strict,
            stateful=stateful,
        )

    def _lookup(self, req: ChatRequest) -> tuple[str | tuple[str, ...], list[str]]:
        if self.script:
            fp = fingerprint(req.messages)
            if fp in self.script:
                return fp, self.script[fp]
        text = "\n".join(content for _role, content in req.messages)
        anchors = self._anchors
        found: set[int] = set()
        tested = [self._tested]  # anchor orders whose presence `in` tests
        for prefix, group, lengths, most in self._groups:
            hits = []
            at = text.find(prefix)
            while at >= 0 and len(hits) < most:
                hits.append(at)
                at = text.find(prefix, at + 1)
            if at >= 0:
                # more slices to look up than anchors: an `in` test each is cheaper
                tested.append(group.values())
                continue
            for at in hits:
                for n in lengths:
                    order = group.get(text[at : at + n])
                    if order is not None:
                        found.add(order)
        # the walk takes the found and tested anchors in the order of their
        # first rules; a found anchor passes the `in` test below at its first hit
        rules = self.rules
        best = self._unanchored
        for anchor, filed in [anchors[o] for o in sorted(found.union(*tested))]:
            if filed[0] >= best:
                break
            if anchor not in text:
                continue
            for i in filed:
                if i >= best:
                    break
                if all(needle in text for needle in rules[i][0]):
                    best = i
                    break
        if best < len(rules):
            # rules with identical needles share one stateful cursor
            return rules[best]
        if self.default is not None and not self.strict:
            return "default", [self.default]
        raise UnknownPrompt(f"no script for prompt fingerprint {fingerprint(req.messages)}")

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
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
