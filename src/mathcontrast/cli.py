"""Command-line entry point.

Subcommands: simdist, preprocess, build-corpus, retrieve, solve, eval.
Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
Every run against the mock backend is byte-reproducible, and commands
that take an output directory echo their effective config there so the
run can be repeated from the file alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass

from . import corpus as corpus_io
from . import datasets, evaluation, pipeline
from .errors import ExtractionError, GatewayError, MathContrastError, SchemaError
from .formula import align_variables
from .gateway import DecodingParams, HttpChatBackend, MockBackend
from .semantic import HashingNgramProvider, RemoteEmbeddingProvider
from .similarity import SimilarityConfig, logic_similarity, norm_distance, tree_distance

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

# the JSON types a config field of each declared type accepts
_CONFIG_TYPES = {"str": (str,), "str | None": (str, type(None)), "int": (int,), "float": (float,)}
# the allowed values of each setting that has a fixed choice list
_CHOICES = dict(
    backend=("mock", "remote"), sem_provider=("offline", "remote"), strategy=pipeline.STRATEGIES
)


@dataclass
class RunConfig:
    """Effective settings of one run; serialized into the output dir."""

    dataset_path: str | None = None
    corpus_path: str | None = None
    backend: str = "mock"
    endpoint: str | None = None
    model: str | None = None
    credential_env: str = "OPENAI_API_KEY"
    mock_script: str | None = None
    alpha: float = 0.7
    k: int = 7
    guesses: int = 10
    attempts: int = 5
    dedup_threshold: float = 0.9
    parallelism: int = 4
    output_dir: str | None = None
    seed: int = 0
    strategy: str = "combined"
    sample: int = 0
    timeout: float = 60.0
    sem_provider: str = "offline"
    sem_endpoint: str | None = None
    sem_model: str | None = None

    def validate(self) -> None:
        SimilarityConfig(self.alpha, self.dedup_threshold)  # checks both ranges
        for name in ("k", "guesses", "attempts", "parallelism"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.sample < 0:
            raise ValueError("sample must be >= 0")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """The config a JSON object holds; SchemaError names a key that is
        no field, a field whose value does not match its declared type
        (checked as ``datasets.check_fields`` checks a record), or says
        which value is out of range."""
        obj = datasets.read_json_object(path)
        table = [(f.name, _CONFIG_TYPES[f.type], f.default) for f in dataclasses.fields(cls)]
        unknown = set(obj) - {name for name, _kinds, _default in table}
        if unknown:
            raise SchemaError("unknown config key", 1, min(unknown))
        cfg = cls(*datasets.check_fields(obj, table, 1))
        try:
            cfg.validate()
        except ValueError as exc:
            raise SchemaError(str(exc), 1) from exc
        return cfg

    def echo(self) -> None:
        if not self.output_dir:
            return
        os.makedirs(self.output_dir, exist_ok=True)
        path = os.path.join(self.output_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2)


def _merge_config(args: argparse.Namespace, *needs: str) -> RunConfig:
    """The --config file overridden by the flags; unset ``needs`` are usage errors."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    for name in needs:
        if not getattr(cfg, name):
            raise ValueError(f"{args.command} needs {_flag(name)}")
    return cfg


def _make_backend(cfg: RunConfig):
    if cfg.backend == "mock":
        if not cfg.mock_script:
            raise ValueError("mock backend needs --mock-script")
        return MockBackend.from_file(cfg.mock_script)
    if not cfg.endpoint or not cfg.model:
        raise ValueError("remote backend needs --endpoint and --model")
    return HttpChatBackend(
        cfg.endpoint,
        cfg.model,
        api_key=os.environ.get(cfg.credential_env),
        timeout=cfg.timeout,
        parallelism=cfg.parallelism,
    )


def _make_sem(cfg: RunConfig):
    if cfg.sem_provider == "offline":
        return HashingNgramProvider()
    if not cfg.sem_endpoint or not cfg.sem_model:
        raise ValueError("remote semantic provider needs --sem-endpoint and --sem-model")
    return RemoteEmbeddingProvider(
        cfg.sem_endpoint,
        cfg.sem_model,
        api_key=os.environ.get(cfg.credential_env),
        timeout=cfg.timeout,
    )


def _sim_config(cfg: RunConfig) -> SimilarityConfig:
    return SimilarityConfig(alpha=cfg.alpha, dedup_threshold=cfg.dedup_threshold)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simdist(args) -> int:
    a = align_variables(args.expr_a)
    b = align_variables(args.expr_b)
    print(f"N {norm_distance(a, b):.4f}")
    print(f"TD {tree_distance(a, b):.4f}")
    print(f"logic_similarity {logic_similarity(a, b):.4f}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    cfg = _merge_config(args, "dataset_path")
    out_path = args.out or (
        os.path.join(cfg.output_dir, "screening.jsonl") if cfg.output_dir else None
    )
    if not out_path:
        raise ValueError("preprocess needs --out or --output-dir")
    problems = datasets.load_problems(cfg.dataset_path)
    backend = _make_backend(cfg)
    done = set()
    if os.path.exists(out_path):
        torn = datasets.end_last_line(out_path)
        if torn:
            log.warning("dropped a torn last line (%d bytes) of %s", len(torn), out_path)
        done = {rec.problem_id for rec in corpus_io.load_screening_log(out_path)}
        if done:
            log.info("resuming: %d problems already screened", len(done))
    cfg.echo()
    params = DecodingParams()
    written = 0
    for problem in problems:
        if problem.id in done:
            continue
        attempts = []
        for _ in range(cfg.attempts):
            try:
                pre = pipeline.preprocess(problem.question, backend, params=params)
                answer = pre.final_answer
                reasoning = pre.plan_and_solution
                formula_text = pre.total_formula.origin
            except ExtractionError as exc:
                partial = exc.partial
                answer = partial.final_answer if partial else None
                reasoning = partial.plan_and_solution if partial else ""
                formula_text = ""
            attempts.append(
                corpus_io.Attempt(
                    reasoning=reasoning,
                    formula=formula_text,
                    answer=answer,
                    correct=corpus_io.answers_match(answer, problem.answer),
                )
            )
        record = corpus_io.ScreeningRecord(
            problem_id=problem.id,
            question=problem.question,
            gold_answer=problem.answer,
            attempts=tuple(attempts),
            source_dataset=problem.source,
        )
        corpus_io.append_screening_record(record, out_path)
        written += 1
    print(f"screened {written} problem(s) -> {out_path}")
    return EXIT_OK


def cmd_build_corpus(args) -> int:
    cfg = _merge_config(args)
    records = corpus_io.load_screening_log(args.screening_log)
    admitted = corpus_io.screen(records)
    deduped = corpus_io.dedup(admitted, _sim_config(cfg), _make_sem(cfg))
    corpus_io.save(deduped, args.out)
    print(
        f"admitted {len(admitted)} of {len(records)} problem(s), "
        f"kept {len(deduped)} after dedup -> {args.out}"
    )
    return EXIT_OK


def cmd_retrieve(args) -> int:
    cfg = _merge_config(args, "corpus_path")
    examples = corpus_io.load(cfg.corpus_path)
    if not examples:
        raise MathContrastError(f"corpus {cfg.corpus_path} is empty")
    sim_cfg = _sim_config(cfg)
    if args.formula:
        target = (args.question, align_variables(args.formula))
    else:
        log.warning("no --formula given; retrieval is semantic-only")
        sim_cfg = SimilarityConfig(alpha=0.0, dedup_threshold=cfg.dedup_threshold)
        target = (args.question, "")
    if cfg.k > len(examples):
        log.warning("k=%d exceeds corpus size %d; using all", cfg.k, len(examples))
    for ex, score in pipeline.rank(target, examples, sim_cfg, _make_sem(cfg), cfg.k):
        print(f"{ex.id} {score:.4f}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _merge_config(args)
    examples = corpus_io.load(cfg.corpus_path) if cfg.corpus_path else []
    trace = pipeline.solve(
        args.question,
        examples,
        _make_backend(cfg),
        cfg.k,
        cfg.guesses,
        _sim_config(cfg),
        _make_sem(cfg),
        strategy=cfg.strategy,
    )
    print(f"voted_answer {trace.voted_answer}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(evaluation.trace_to_dict(trace), fh, ensure_ascii=False, indent=2)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _merge_config(args, "dataset_path")
    problems = datasets.load_problems(cfg.dataset_path)
    if cfg.sample:
        problems = datasets.subsample(problems, cfg.sample, cfg.seed)
    examples = corpus_io.load(cfg.corpus_path) if cfg.corpus_path else []
    if examples and cfg.k > len(examples):
        log.warning("k=%d exceeds corpus size %d; using all", cfg.k, len(examples))
    annotations = (
        evaluation.load_annotations(args.annotations) if args.annotations else None
    )
    backend = _make_backend(cfg)
    sem = _make_sem(cfg)
    cfg.echo()
    parallelism = cfg.parallelism
    if isinstance(backend, MockBackend) and backend.stateful:
        # a stateful script consumed from several threads would make the
        # run order-dependent; byte-reproducibility wins
        parallelism = 1
    traces = pipeline.solve_many(
        problems,
        examples,
        backend,
        cfg.k,
        cfg.guesses,
        _sim_config(cfg),
        sem,
        parallelism=parallelism,
        strategy=cfg.strategy,
    )
    report = evaluation.evaluate(traces, annotations)
    out_dir = cfg.output_dir or "."
    evaluation.save_report(report, traces, out_dir)
    print(f"total {report.total}")
    print(f"accuracy {report.accuracy:.4f}")
    print(f"latent_accuracy {report.latent_accuracy:.4f}")
    if annotations:
        print(evaluation.tally_errors(annotations).format_table())
    print(f"report -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _UsageExitParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


_ALL = ("preprocess", "build-corpus", "retrieve", "solve", "eval")
_BACKEND = ("preprocess", "solve", "eval")
_SCORING = ("build-corpus", "retrieve", "solve", "eval")
_RANKING = ("retrieve", "solve", "eval")

# The subcommands whose cmd_* reads each RunConfig setting, and its help; only they take
# its flag (see _flag). A --config file may still set any setting on any subcommand.
_SETTINGS = {
    "credential_env": (_ALL, "environment variable holding the API key"),
    "timeout": (_ALL, "seconds per HTTP request"),
    "backend": (_BACKEND, "chat backend"),
    "endpoint": (_BACKEND, "chat endpoint URL of the remote backend"),
    "model": (_BACKEND, "model name of the remote backend"),
    "mock_script": (_BACKEND, "JSON script of the mock backend"),
    "parallelism": (_BACKEND, "backend requests in flight"),
    "alpha": (_SCORING, "logic weight in [0, 1]"),
    "sem_provider": (_SCORING, "question-similarity provider"),
    "sem_endpoint": (_SCORING, "embedding endpoint URL of the remote provider"),
    "sem_model": (_SCORING, "embedding model name of the remote provider"),
    "corpus_path": (_RANKING, "reference corpus (JSONL)"),
    "k": (_RANKING, "examples retrieved per question"),
    "guesses": (("solve", "eval"), "completions sampled per question"),
    "strategy": (("solve", "eval"), "how the prompt is built"),
    "dataset_path": (("preprocess", "eval"), "problem dataset (JSONL)"),
    "output_dir": (("preprocess", "eval"), "run directory; config.json is echoed there"),
    "attempts": (("preprocess",), "screening attempts per problem"),
    "dedup_threshold": (("build-corpus",), "drop an entry scoring above this against a kept one"),
    "seed": (("eval",), "seed of --sample"),
    "sample": (("eval",), "seeded subsample size, 0 for all"),
}


def _flag(name: str) -> str:
    """The flag of a RunConfig setting: corpus_path -> --corpus."""
    return "--" + name.removesuffix("_path").replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _UsageExitParser(prog="mathcontrast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simdist", help="similarity of two formulas")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.set_defaults(func=cmd_simdist)

    p = sub.add_parser("preprocess", help="screen training problems into a log")
    p.add_argument("--out", help="screening log path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-corpus", help="screening log -> reference corpus")
    p.add_argument("--screening-log", dest="screening_log", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("retrieve", help="rank corpus examples for a question")
    p.add_argument("--question", required=True)
    p.add_argument("--formula", help="raw solution formula of the target")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("solve", help="solve one question end to end")
    p.add_argument("--question", required=True)
    p.add_argument("--trace-out", dest="trace_out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="run a dataset and report accuracy")
    p.add_argument("--annotations", help="error annotation file to tally")
    p.set_defaults(func=cmd_eval)

    for command in _ALL:
        sub.choices[command].add_argument("--config", help="JSON config file; flags override it")
    for f in dataclasses.fields(RunConfig):
        commands, text = _SETTINGS[f.name]
        if f.default is not None:
            text += f" (default {f.default})"
        kind = {"int": int, "float": float}.get(f.type)
        for command in commands:
            sub.choices[command].add_argument(
                _flag(f.name), dest=f.name, type=kind, choices=_CHOICES.get(f.name), help=text
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GatewayError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MathContrastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
