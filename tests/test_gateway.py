import json

import pytest

from mathcontrast.errors import (
    AuthError,
    BackendError,
    RateLimited,
    TransportError,
    UnknownPrompt,
)
from mathcontrast.gateway import (
    ChatRequest,
    DecodingParams,
    HttpChatBackend,
    MockBackend,
    fingerprint,
)

MSGS = (("user", "Solve: 3 + 3"),)


def test_decoding_defaults_are_pinned():
    params = DecodingParams()
    assert params.max_new_tokens == 400
    assert params.top_p == 0.95
    assert params.temperature == 0.1
    assert params.top_k == 30
    assert params.repetition_penalty == 1.15


def test_request_requires_at_least_one_sample():
    with pytest.raises(ValueError):
        ChatRequest(MSGS, sample_count=0)


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------


def test_mock_scripted_echo():
    backend = MockBackend(script={fingerprint(MSGS): ["The answer is 6."]})
    got = backend.complete(ChatRequest(MSGS))
    assert got.completions == ("The answer is 6.",)


def test_mock_five_samples_in_script_order():
    scripts = [f"The answer is {i}." for i in range(5)]
    backend = MockBackend(script={fingerprint(MSGS): scripts})
    got = backend.complete(ChatRequest(MSGS, sample_count=5))
    assert list(got.completions) == scripts


def test_mock_exhaustion_cycles():
    backend = MockBackend(script={fingerprint(MSGS): ["a", "b"]})
    got = backend.complete(ChatRequest(MSGS, sample_count=5))
    assert list(got.completions) == ["a", "b", "a", "b", "a"]


def test_mock_strict_unknown_prompt():
    backend = MockBackend(script={}, strict=True)
    with pytest.raises(UnknownPrompt):
        backend.complete(ChatRequest(MSGS))


def test_mock_lenient_default():
    backend = MockBackend(script={}, default="I do not know.")
    got = backend.complete(ChatRequest(MSGS, sample_count=2))
    assert got.completions == ("I do not know.", "I do not know.")


def test_mock_contains_rules_first_match_wins():
    backend = MockBackend(
        rules=[
            (["3 + 3", "Solve"], ["six"]),
            ("Solve", ["generic"]),
        ]
    )
    assert backend.complete(ChatRequest(MSGS)).completions == ("six",)
    other = (("user", "Solve: 9 - 1"),)
    assert backend.complete(ChatRequest(other)).completions == ("generic",)


def test_mock_identical_requests_identical_responses():
    backend = MockBackend(script={fingerprint(MSGS): ["a", "b", "c"]})
    first = backend.complete(ChatRequest(MSGS, sample_count=2))
    second = backend.complete(ChatRequest(MSGS, sample_count=2))
    assert first.completions == second.completions == ("a", "b")


def test_mock_stateful_mode_consumes_script_across_calls():
    backend = MockBackend(
        script={fingerprint(MSGS): ["a", "b", "c"]}, stateful=True
    )
    assert backend.complete(ChatRequest(MSGS)).completions == ("a",)
    assert backend.complete(ChatRequest(MSGS)).completions == ("b",)
    assert backend.complete(ChatRequest(MSGS)).completions == ("c",)
    assert backend.complete(ChatRequest(MSGS)).completions == ("a",)


def test_mock_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            {
                "strict": False,
                "default": "fallback",
                "fingerprints": {fingerprint(MSGS): ["scripted"]},
                "rules": [{"contains": "magic", "completions": ["ruled"]}],
            }
        )
    )
    backend = MockBackend.from_file(path)
    assert backend.complete(ChatRequest(MSGS)).completions == ("scripted",)
    magic = (("user", "say the magic word"),)
    assert backend.complete(ChatRequest(magic)).completions == ("ruled",)
    other = (("user", "???"),)
    assert backend.complete(ChatRequest(other)).completions == ("fallback",)


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------


class _FakeResponse:
    def __init__(self, status=200, body=None, headers=None):
        self.status_code = status
        self._body = body if body is not None else {}
        self.headers = headers or {}
        self.text = json.dumps(self._body)

    def json(self):
        return self._body


def _completion_body(text, n=1):
    return {
        "choices": [{"message": {"content": text}} for _ in range(n)],
        "usage": {"prompt_tokens": 7, "completion_tokens": 5, "total_tokens": 12},
    }


class _FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _backend(session, **kwargs):
    kwargs.setdefault("backoff", 0.0)
    return HttpChatBackend(
        "http://llm.local/v1", "solver-7b", api_key="secret", session=session, **kwargs
    )


def test_http_payload_carries_every_decoding_field():
    session = _FakeSession([_FakeResponse(body=_completion_body("hi"))])
    backend = _backend(session)
    backend.complete(ChatRequest(MSGS))
    payload = session.posts[0]["json"]
    assert payload["model"] == "solver-7b"
    assert payload["messages"] == [{"role": "user", "content": "Solve: 3 + 3"}]
    assert payload["max_tokens"] == 400
    assert payload["top_p"] == 0.95
    assert payload["temperature"] == 0.1
    assert payload["top_k"] == 30
    assert payload["repetition_penalty"] == 1.15
    assert session.posts[0]["headers"]["Authorization"] == "Bearer secret"


def test_http_unsupported_fields_omitted_not_renamed():
    session = _FakeSession([_FakeResponse(body=_completion_body("hi"))])
    backend = _backend(session, unsupported=("top_k", "repetition_penalty"))
    backend.complete(ChatRequest(MSGS))
    payload = session.posts[0]["json"]
    assert "top_k" not in payload
    assert "repetition_penalty" not in payload
    assert payload["max_tokens"] == 400


def test_http_retries_transport_failures_then_succeeds():
    import requests

    session = _FakeSession(
        [
            requests.ConnectionError("down"),
            requests.Timeout("slow"),
            _FakeResponse(body=_completion_body("ok")),
        ]
    )
    backend = _backend(session, max_retries=3)
    got = backend.complete(ChatRequest(MSGS))
    assert got.completions == ("ok",)
    assert len(session.posts) == 3


def test_http_unreachable_raises_transport_error_after_retries():
    import requests

    session = _FakeSession([requests.ConnectionError("down")] * 3)
    backend = _backend(session, max_retries=2)
    with pytest.raises(TransportError):
        backend.complete(ChatRequest(MSGS))
    assert len(session.posts) == 3


def test_http_auth_failure():
    session = _FakeSession([_FakeResponse(status=401)])
    with pytest.raises(AuthError):
        _backend(session).complete(ChatRequest(MSGS))


def test_http_rate_limit_carries_retry_after():
    session = _FakeSession([_FakeResponse(status=429, headers={"Retry-After": "7"})])
    with pytest.raises(RateLimited) as exc_info:
        _backend(session).complete(ChatRequest(MSGS))
    assert exc_info.value.retry_after == 7.0


def test_http_server_errors_retry_then_fail():
    session = _FakeSession([_FakeResponse(status=500)] * 3)
    backend = _backend(session, max_retries=2)
    with pytest.raises(BackendError):
        backend.complete(ChatRequest(MSGS))
    assert len(session.posts) == 3


def test_http_multi_sample_independent_calls():
    session = _FakeSession([_FakeResponse(body=_completion_body(f"g{i}")) for i in range(4)])
    backend = _backend(session, parallelism=1)
    got = backend.complete(ChatRequest(MSGS, sample_count=4))
    assert len(got.completions) == 4
    assert len(session.posts) == 4
    assert all("n" not in post["json"] for post in session.posts)
    assert got.usage["total_tokens"] == 48


def test_http_native_sampling_single_call():
    session = _FakeSession([_FakeResponse(body=_completion_body("g", n=3))])
    backend = _backend(session, native_sampling=True)
    got = backend.complete(ChatRequest(MSGS, sample_count=3))
    assert len(got.completions) == 3
    assert len(session.posts) == 1
    assert session.posts[0]["json"]["n"] == 3


@pytest.mark.parametrize("choices", [1, 4])
def test_http_native_sampling_wrong_choice_count_is_backend_error(choices):
    session = _FakeSession([_FakeResponse(body=_completion_body("g", n=choices))])
    with pytest.raises(BackendError, match=f"{choices} choice"):
        _backend(session, native_sampling=True).complete(ChatRequest(MSGS, sample_count=3))
    assert len(session.posts) == 1


MALFORMED_BODIES = [
    {},
    {"choices": []},
    {"choices": "hi"},
    {"choices": [None]},
    {"choices": [{}]},
    {"choices": [{"message": "hi"}]},
    {"choices": [{"message": {}}]},
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": 7}}]},
    [{"choices": [{"message": {"content": "hi"}}]}],
    "hi",
]


def _malformed_response(body):
    response = _FakeResponse(body=body)
    response._body = body  # _FakeResponse would turn None into {}
    return response


@pytest.mark.parametrize("body", MALFORMED_BODIES + [None], ids=repr)
@pytest.mark.parametrize("samples", [1, 3])
def test_http_malformed_body_is_backend_error(body, samples):
    # one sample is one request; three are three independent requests
    session = _FakeSession([_malformed_response(body)] * samples)
    with pytest.raises(BackendError):
        _backend(session, parallelism=1).complete(ChatRequest(MSGS, sample_count=samples))


@pytest.mark.parametrize("body", MALFORMED_BODIES, ids=repr)
def test_http_native_sampling_malformed_body_is_backend_error(body):
    session = _FakeSession([_malformed_response(body)])
    with pytest.raises(BackendError):
        _backend(session, native_sampling=True).complete(ChatRequest(MSGS, sample_count=3))


def test_http_one_malformed_choice_fails_the_whole_body():
    body = _completion_body("g", n=3)
    body["choices"][1] = {"message": {"content": None}}
    session = _FakeSession([_FakeResponse(body=body)])
    with pytest.raises(BackendError):
        _backend(session, native_sampling=True).complete(ChatRequest(MSGS, sample_count=3))


@pytest.mark.parametrize("usage", ["absent", None, [], 12], ids=repr)
@pytest.mark.parametrize("samples", [1, 3])
def test_http_unusable_usage_counts_as_zero(usage, samples):
    body = _completion_body("g")
    if usage == "absent":
        del body["usage"]
    else:
        body["usage"] = usage
    session = _FakeSession([_FakeResponse(body=body)] * samples)
    got = _backend(session, parallelism=1).complete(ChatRequest(MSGS, sample_count=samples))
    assert got.completions == ("g",) * samples
    assert got.usage == {"prompt_tokens": 0, "completion_tokens": 0, "total_tokens": 0}
