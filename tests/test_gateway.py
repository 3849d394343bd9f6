import json
import threading
import time

import pytest
import requests
from _oracles import first_rule_by_scan
from hypothesis import example, given, settings, strategies as st

from mathcontrast import gateway
from mathcontrast.errors import (
    AuthError,
    BackendError,
    RateLimited,
    SchemaError,
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


@pytest.mark.parametrize(
    "script, field",
    [
        ({"rules": [{"contains": "How", "completions": []}], "strict": True}, "rules"),
        ({"rules": [{"contains": "a", "completions": ["x"]}, {"contains": [], "completions": []}]}, "rules"),
        ({"fingerprints": {fingerprint(MSGS): []}}, "fingerprints"),
    ],
)
def test_mock_from_file_rejects_empty_completion_lists(tmp_path, script, field):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    with pytest.raises(SchemaError) as exc_info:
        MockBackend.from_file(path)
    assert (exc_info.value.line, exc_info.value.field) == (1, field)


def test_mock_rules_with_identical_contains_share_one_cursor():
    # the string form and the one-element list are the same needles
    backend = MockBackend(rules=[("x", ["a", "b", "c"]), (["x"], ["never"])], stateful=True)
    req = ChatRequest((("user", "x marks the spot"),))
    got = [backend.complete(req).completions for _ in range(4)]
    assert got == [("a",), ("b",), ("c",), ("a",)]
    assert backend._cursors == {("x",): 4}
    # no request is kept
    assert backend.calls == []


@pytest.mark.parametrize(
    "joined, split",
    [
        (["x|y"], ["x", "y"]),
        # joined with "|" after escaping "|" alone, both would read "x\\|y"
        (["x|y"], ["x\\", "y"]),
    ],
)
def test_mock_rules_with_different_contains_keep_their_own_cursors(joined, split):
    # rules whose needles would join into the same string keep their own cursors
    backend = MockBackend(rules=[(joined, ["c", "d"]), (split, ["a", "b"])], stateful=True)
    got = [
        backend.complete(ChatRequest((("user", text),))).completions
        for text in (" ".join(split), "".join(joined))
    ]
    assert got == [("a",), ("c",)]
    assert len(backend._cursors) == 2


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"rules": [("a", ["x"]), ("b", [])]}, "rule 1"),
        ({"rules": [([], [])]}, "rule 0"),
        ({"script": {"f00d": []}}, "fingerprint f00d"),
    ],
)
def test_mock_rejects_empty_completion_lists(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MockBackend(**kwargs)


def test_mock_stateful_set_after_construction_consumes_the_script():
    # the benchmark's stub server turns stateful on after from_file
    backend = MockBackend(rules=[(["x", "y"], ["a", "b"]), ("x", ["c"])])
    backend.stateful = True
    req = ChatRequest((("user", "x and y"),))
    got = [backend.complete(req).completions for _ in range(3)]
    assert got == [("a",), ("b",), ("a",)]


def test_mock_fingerprints_a_request_only_for_a_script_or_an_error(monkeypatch):
    hashed = []

    def counting(messages):
        hashed.append(messages)
        return fingerprint(messages)

    monkeypatch.setattr(gateway, "fingerprint", counting)
    backend = MockBackend(rules=[("3 + 3", ["six"])], default="dunno")
    assert backend.complete(ChatRequest(MSGS)).completions == ("six",)
    assert backend.complete(ChatRequest((("user", "other"),))).completions == ("dunno",)
    assert hashed == []
    # an unknown prompt still names its fingerprint
    strict = MockBackend(rules=[("3 + 3", ["six"])], strict=True)
    other = (("user", "other"),)
    with pytest.raises(UnknownPrompt, match=f"^no script for prompt fingerprint {fingerprint(other)}$"):
        strict.complete(ChatRequest(other))
    assert hashed == [other]
    # a script with fingerprints looks each request up by it
    hashed.clear()
    scripted = MockBackend(script={fingerprint(MSGS): ["a"]}, rules=[("other", ["b"])])
    assert scripted.complete(ChatRequest(MSGS)).completions == ("a",)
    assert scripted.complete(ChatRequest(other)).completions == ("b",)
    assert hashed == [MSGS, other]


@st.composite
def _rules_and_texts(draw):
    """Rules and message texts over a few short needles of three
    letters, which overlap and are often prefixes of one another. Rules
    draw their ``contains`` from a small pool, so duplicate tuples are
    common; each rule's one completion names its index. A text joins
    needles with a fourth letter, which no needle holds, or is random."""
    vocab = draw(st.lists(st.text(alphabet="abc", max_size=3), min_size=1, max_size=6, unique=True))
    needle = st.sampled_from(vocab)
    pool = draw(st.lists(st.lists(needle, max_size=3), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(pool), max_size=12))
    text = st.lists(needle, max_size=4).map("d".join) | st.text(alphabet="abcd", max_size=6)
    texts = draw(st.lists(text, min_size=1, max_size=2))
    return [(contains, [f"rule {i}"]) for i, contains in enumerate(picks)], texts


@st.composite
def _grouped_rules_and_texts(draw):
    """Rules and texts as above, over many needles of two or three
    letters of "ab", each the first needle of a rule or two: they share
    first letters and lengths, so the lookup finds most of them from
    the hits of their group's common prefix."""
    vocab = draw(st.lists(st.text(alphabet="ab", min_size=2, max_size=3), min_size=2, max_size=12, unique=True))
    needle = st.sampled_from(vocab)
    picks = [[first, *draw(st.lists(needle, max_size=2))] for first in vocab for _ in range(draw(st.integers(1, 2)))]
    text = st.lists(needle, max_size=4).map("d".join) | st.text(alphabet="abd", max_size=8)
    texts = draw(st.lists(text, min_size=1, max_size=2))
    return [(contains, [f"rule {i}"]) for i, contains in enumerate(picks)], texts


def _case(rules, texts, default=None, strict=False, scripted=False):
    return dict(
        case=([(contains, [f"rule {i}"]) for i, contains in enumerate(rules)], texts),
        default=default,
        strict=strict,
        scripted=scripted,
    )


@settings(max_examples=600, deadline=None)
@given(
    case=_rules_and_texts() | _grouped_rules_and_texts(),
    default=st.none() | st.just("fallback"),
    strict=st.booleans(),
    scripted=st.booleans(),
)
# rule 1 has no needles: it shadows rule 2, not rule 0
@example(**_case([["b"], [], ["a"]], ["a"]))
@example(**_case([["b"], [], ["a"]], ["b"]))
# rule 0 is filed under "b", its rarer needle, and "a" is absent
@example(**_case([["a", "b"], ["a"]], ["b"]))
# duplicate tuples, a needle that is a prefix of another, one repeated
@example(**_case([["ab", "a"], ["a"], ["ab", "a"], ["c", "c"]], ["cab"]))
@example(**_case([["a", "a"], [""]], ["b", "c"], default="fallback"))
# no match: strict ignores the default
@example(**_case([["a"]], ["dd"], default="fallback", strict=True))
@example(**_case([["a"]], ["a"], scripted=True))
# an empty needle beside a probed group: it has no first character
@example(**_case([["ab"], ["ac"], [""]], ["d"]))
# a needle that spans the "\n" between two messages
@example(**_case([["bxy"], ["b\nc"], ["c"]], ["ab", "cd"]))
# a probed group whose first character is not ASCII
@example(**_case([["éa"], ["éb"], ["b"]], ["dééb"]))
# the hits of the prefix "aa" overlap; a probed group of two anchor lengths
@example(**_case([["aab"], ["aaa"]], ["aaab"]))
@example(**_case([["ab"], ["aa"], ["abb"], ["aaa"]], ["abd"]))
# the prefix "a" occurs more often than its group has anchors: each is tested
@example(**_case([["ab"], ["ac"], ["c"]], ["aaaac"]))
# the benchmark's shape: 200 tags that share "[P00", only the last present
@example(**_case([[f"[P{i:05d}]"] for i in range(200)], ["question [P00199] here"]))
def test_mock_lookup_is_the_first_rule_of_a_linear_scan(case, default, strict, scripted):
    rules, texts = case
    messages = tuple(("user", text) for text in texts)
    script = {fingerprint(messages): ["scripted"]} if scripted else {}
    backend = MockBackend(script=script, rules=rules, default=default, strict=strict)
    req = ChatRequest(messages)
    expected = first_rule_by_scan(backend.rules, "\n".join(texts))
    if scripted:
        assert backend._lookup(req) == (fingerprint(messages), ["scripted"])
    elif expected is not None:
        assert backend._lookup(req) == expected
    elif default is not None and not strict:
        assert backend._lookup(req) == ("default", ["fallback"])
    else:
        with pytest.raises(UnknownPrompt):
            backend._lookup(req)


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


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(gateway, "BACKOFF_S", 0.0)


@pytest.fixture
def waits(monkeypatch):
    """The waits of ``post_json`` between retries, recorded instead of slept."""
    monkeypatch.setattr(gateway, "BACKOFF_S", 0.5)
    recorded = []
    monkeypatch.setattr(gateway.time, "sleep", recorded.append)
    return recorded


def _backend(session, **kwargs):
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
    session = _FakeSession(
        [
            requests.ConnectionError("down"),
            requests.Timeout("slow"),
            _FakeResponse(body=_completion_body("ok")),
        ]
    )
    got = _backend(session).complete(ChatRequest(MSGS))
    assert got.completions == ("ok",)
    assert len(session.posts) == 3


def test_http_unreachable_raises_transport_error_after_retries(monkeypatch):
    monkeypatch.setattr(gateway, "MAX_RETRIES", 2)
    session = _FakeSession([requests.ConnectionError("down")] * 3)
    with pytest.raises(TransportError):
        _backend(session).complete(ChatRequest(MSGS))
    assert len(session.posts) == 3


def test_http_auth_failure():
    session = _FakeSession([_FakeResponse(status=401)])
    with pytest.raises(AuthError):
        _backend(session).complete(ChatRequest(MSGS))


def test_http_rate_limit_carries_retry_after(waits):
    session = _FakeSession([_FakeResponse(status=429, headers={"Retry-After": "7"})] * 4)
    with pytest.raises(RateLimited) as exc_info:
        _backend(session).complete(ChatRequest(MSGS))
    assert exc_info.value.retry_after == 7.0
    assert waits == [7.0] * 3
    assert len(session.posts) == 4


def test_http_rate_limit_retry_after_is_capped_at_timeout(waits):
    session = _FakeSession([_FakeResponse(status=429, headers={"Retry-After": "90"})] * 4)
    with pytest.raises(RateLimited) as exc_info:
        _backend(session, timeout=5.0).complete(ChatRequest(MSGS))
    assert exc_info.value.retry_after == 90.0
    assert waits == [5.0] * 3


@pytest.mark.parametrize("retry_after", ["Wed, 21 Oct 2015 07:28:00 GMT", "-1", None])
def test_http_rate_limit_without_usable_retry_after_backs_off(waits, retry_after):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    session = _FakeSession([_FakeResponse(status=429, headers=headers)] * 4)
    with pytest.raises(RateLimited) as exc_info:
        _backend(session).complete(ChatRequest(MSGS))
    assert exc_info.value.retry_after is None
    assert waits == [0.5, 1.0, 2.0]


def test_http_rate_limit_then_success(waits):
    session = _FakeSession(
        [
            _FakeResponse(status=429, headers={"Retry-After": "1.5"}),
            _FakeResponse(body=_completion_body("ok")),
        ]
    )
    assert _backend(session).complete(ChatRequest(MSGS)).completions == ("ok",)
    assert waits == [1.5]


def test_http_server_errors_retry_then_fail(monkeypatch):
    monkeypatch.setattr(gateway, "MAX_RETRIES", 2)
    session = _FakeSession([_FakeResponse(status=500)] * 3)
    with pytest.raises(BackendError):
        _backend(session).complete(ChatRequest(MSGS))
    assert len(session.posts) == 3


def test_http_body_nested_past_the_recursion_limit_is_a_backend_error():
    response = requests.Response()
    response.status_code, response._content = 200, b"[" * 100_000
    with pytest.raises(BackendError, match="non-JSON body"):
        _backend(_FakeSession([response])).complete(ChatRequest(MSGS))


@pytest.mark.parametrize("status", [400, 404, 422])
def test_http_client_errors_are_not_retried(status):
    session = _FakeSession([_FakeResponse(status=status)])
    with pytest.raises(BackendError, match=str(status)):
        _backend(session).complete(ChatRequest(MSGS))
    assert len(session.posts) == 1


def test_http_multi_sample_independent_calls():
    session = _FakeSession([_FakeResponse(body=_completion_body(f"g{i}")) for i in range(4)])
    backend = _backend(session, parallelism=1)
    got = backend.complete(ChatRequest(MSGS, sample_count=4))
    assert len(got.completions) == 4
    assert len(session.posts) == 4
    assert all("n" not in post["json"] for post in session.posts)
    assert got.usage["total_tokens"] == 48


@pytest.mark.parametrize("choices", [2, 4])
@pytest.mark.parametrize("samples", [1, 3])
def test_http_wrong_choice_count_is_backend_error(samples, choices):
    # every POST asks for one sample, so a body with more choices is malformed
    session = _FakeSession([_FakeResponse(body=_completion_body("g", n=choices))] * samples)
    with pytest.raises(BackendError, match=f"{choices} choices"):
        _backend(session).complete(ChatRequest(MSGS, sample_count=samples))


def test_http_parallelism_must_be_positive():
    with pytest.raises(ValueError):
        _backend(_FakeSession([]), parallelism=0)


class _CountingSession:
    """Answers every POST after a short wait, counting the POSTs in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            self.in_flight += 1
            self.posts += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.02)
        with self.lock:
            self.in_flight -= 1
        return _FakeResponse(body=_completion_body("g"))


def test_http_posts_in_flight_are_bounded_by_parallelism():
    session = _CountingSession()
    backend = _backend(session, parallelism=2)
    results = []
    callers = [
        threading.Thread(
            target=lambda: results.append(backend.complete(ChatRequest(MSGS, sample_count=6)))
        )
        for _ in range(2)
    ]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=10)
        assert not caller.is_alive()
    assert [len(r.completions) for r in results] == [6, 6]
    assert session.posts == 12
    assert session.peak == 2


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
