"""Tests for the generative QA subsystem (:mod:`repro.qa`).

The subsystem's own guarantees are what's under test here: campaign
determinism (budget is a planning input, not a stopwatch), greedy
shrinking to a stable minimum, artifact round-trips through JSON, the
seed corpus staying green, the mutation self-test killing every
planted defect without false alarms, and the seed-hygiene lint.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.qa import corpus as qa_corpus
from repro.qa.engine import fuzz_oracle, plan_rounds, run_campaign, run_check
from repro.qa.gen import Param, case_rng, case_seed, draw_case, validate_case
from repro.qa.mutants import MUTANTS, run_mutation_test
from repro.qa.oracles import ORACLES, get_oracle
from repro.qa.shrink import shrink_case

REPO = Path(__file__).resolve().parent.parent
FAST_ORACLES = ["classify_partition", "scheme_learning", "choke_detection"]


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------


def test_param_draw_in_range_and_validation():
    p = Param(3, 9)
    rng_values = {p.draw(case_rng({"s": i})) for i in range(50)}
    assert rng_values <= set(range(3, 10))
    assert p.clamp(99) == 9 and p.clamp(-1) == 3
    with pytest.raises(ValueError):
        Param(5, 4)


def test_draw_case_is_deterministic_and_name_sorted():
    params = {"b": Param(0, 100), "a": Param(0, 100)}
    seed = case_seed(0, "oracle", 7)
    assert draw_case(params, seed) == draw_case(params, seed)
    # insertion order must not matter
    flipped = {"a": Param(0, 100), "b": Param(0, 100)}
    assert draw_case(params, seed) == draw_case(flipped, seed)


def test_validate_case_rejects_unknown_missing_and_out_of_range():
    params = {"n": Param(1, 10)}
    assert validate_case(params, {"n": 5}) == {"n": 5}
    with pytest.raises(ValueError):
        validate_case(params, {"n": 5, "extra": 1})
    with pytest.raises(ValueError):
        validate_case(params, {})
    with pytest.raises(ValueError):
        validate_case(params, {"n": 11})


def test_case_rng_depends_on_case_contents_not_identity():
    a = case_rng({"x": 1, "y": 2}).integers(0, 1 << 30)
    b = case_rng({"y": 2, "x": 1}).integers(0, 1 << 30)
    c = case_rng({"x": 1, "y": 3}).integers(0, 1 << 30)
    assert a == b
    assert a != c


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------


def test_shrink_reaches_the_minimal_failing_corner():
    params = {"n": Param(1, 100), "m": Param(0, 50)}
    shrunk, evals = shrink_case(
        {"n": 80, "m": 33},
        params,
        lambda case: case["n"] >= 10 and case["m"] >= 5,
    )
    assert shrunk == {"n": 10, "m": 5}
    assert evals > 0


def test_shrink_is_deterministic_and_respects_budget():
    params = {"n": Param(1, 1 << 20)}
    first = shrink_case({"n": 1 << 19}, params, lambda c: c["n"] % 7 == 0)
    second = shrink_case({"n": 1 << 19}, params, lambda c: c["n"] % 7 == 0)
    assert first == second
    _, evals = shrink_case({"n": 1 << 19}, params, lambda c: c["n"] % 7 == 0, max_evals=5)
    assert evals <= 5


# ----------------------------------------------------------------------
# planning and campaigns
# ----------------------------------------------------------------------


def test_plan_rounds_is_arithmetic_in_the_budget():
    small = plan_rounds(5.0)
    large = plan_rounds(120.0)
    assert set(small) == set(ORACLES)
    assert all(large[name] >= small[name] for name in small)
    assert small["parallel_vs_serial"] == 0  # deep tier gated off
    assert large["parallel_vs_serial"] >= 1
    assert plan_rounds(120.0, include_deep=False)["parallel_vs_serial"] == 0
    with pytest.raises(ValueError):
        plan_rounds(0.0)
    with pytest.raises(KeyError):
        plan_rounds(10.0, ["no_such_oracle"])


def test_campaign_is_deterministic_across_invocations():
    a = run_campaign(0, 4.0, oracle_names=FAST_ORACLES)
    b = run_campaign(0, 4.0, oracle_names=FAST_ORACLES)
    assert a.as_dict() == b.as_dict()
    assert a.as_dict()["failed_oracles"] == []
    assert a.total_cases > 0


def test_campaign_seed_changes_the_cases():
    o = get_oracle("classify_partition")
    cases_a = [draw_case(o.params, case_seed(0, o.name, i)) for i in range(5)]
    cases_b = [draw_case(o.params, case_seed(1, o.name, i)) for i in range(5)]
    assert cases_a != cases_b


def test_failing_oracle_produces_shrunk_replayable_artifact(tmp_path):
    # Plant a real defect, let the fuzzer find/shrink it, then replay
    # the artifact: same oracle, same case, same verdict.
    mutant = MUTANTS["classify-drop-ce"]
    with mutant.applied():
        report = run_campaign(
            0,
            6.0,
            oracle_names=["classify_partition"],
            artifact_dir=str(tmp_path),
        )
        outcome = report.outcomes["classify_partition"]
        assert outcome.failure is not None
        path = Path(outcome.failure["artifact_path"])
        assert path.exists()
        artifact = qa_corpus.load_artifact(path)
        # shrunk case is minimal-ish: strictly no larger than the original
        original = outcome.failure.get("original_case", artifact["case"])
        assert all(artifact["case"][k] <= original[k] for k in artifact["case"])
        assert qa_corpus.replay(artifact)  # still fails under the mutant
    assert qa_corpus.replay(artifact) == []  # fixed once the defect is gone


def test_oracle_exception_is_a_failure_not_a_crash():
    oracle = get_oracle("classify_partition")
    broken = type(oracle)(
        name=oracle.name,
        description=oracle.description,
        params=oracle.params,
        check=lambda case: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    violations = run_check(broken, {"n": 1, "seed": 0})
    assert violations and "RuntimeError" in violations[0]
    outcome = fuzz_oracle(broken, 0, 2)
    assert outcome.failure is not None


# ----------------------------------------------------------------------
# artifacts and corpus
# ----------------------------------------------------------------------


def test_artifact_write_is_atomic_canonical_and_validated(tmp_path):
    artifact = qa_corpus.make_artifact(
        "classify_partition", {"n": 3, "seed": 5}, ["v"], engine_seed=0
    )
    path = qa_corpus.write_artifact(tmp_path, artifact)
    assert path.name.startswith("classify_partition-")
    assert not list(tmp_path.glob("*.tmp"))
    assert qa_corpus.load_artifact(path)["case"] == {"n": 3, "seed": 5}
    # same content -> same filename (content-addressed, no duplicates)
    assert qa_corpus.write_artifact(tmp_path, artifact) == path
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_load_artifact_rejects_malformed_files(tmp_path):
    bad_version = tmp_path / "v.json"
    bad_version.write_text(json.dumps({"version": 99, "oracle": "x", "case": {}}))
    with pytest.raises(ValueError):
        qa_corpus.load_artifact(bad_version)
    bad_oracle = tmp_path / "o.json"
    bad_oracle.write_text(json.dumps({"version": 1, "oracle": "nope", "case": {}}))
    with pytest.raises(KeyError):
        qa_corpus.load_artifact(bad_oracle)
    bad_case = tmp_path / "c.json"
    bad_case.write_text(
        json.dumps(
            {"version": 1, "oracle": "classify_partition", "case": {"n": 10_000, "seed": 0}}
        )
    )
    with pytest.raises(ValueError):
        qa_corpus.load_artifact(bad_case)


def test_seed_corpus_is_deterministic_and_green(tmp_path):
    written = qa_corpus.seed_corpus(tmp_path, engine_seed=0, per_oracle=1)
    fast = [o for o in ORACLES.values() if o.tier == "fast"]
    assert len(written) == len(fast)
    report = qa_corpus.replay_corpus(tmp_path)
    assert report["regressed"] == []
    again = qa_corpus.seed_corpus(tmp_path, engine_seed=0, per_oracle=1)
    assert sorted(written) == sorted(again)  # content-addressed: no churn


def test_checked_in_corpus_replays_green():
    corpus_dir = REPO / "benchmarks" / "qa_corpus"
    # replay the cheap entries here; CI replays the full corpus
    cheap = [
        p
        for p in qa_corpus.corpus_paths(corpus_dir)
        if not p.name.startswith(("etrace_", "dta_vs_reference"))
    ]
    assert len(cheap) >= 10
    for path in cheap:
        artifact = qa_corpus.load_artifact(path)
        assert qa_corpus.replay(artifact) == [], path.name


# ----------------------------------------------------------------------
# mutation self-test
# ----------------------------------------------------------------------


def test_mutant_patching_is_scoped_and_reversible():
    import repro.timing.choke as choke

    original = choke.analyze_choke_event
    with MUTANTS["choke-event-dropped"].applied():
        assert choke.analyze_choke_event is not original
        # the drop stays silent in both call forms: one pair, or K of them
        prev = [[0, 1, 0], [1, 1, 0]]
        assert choke.analyze_choke_event(None, None, prev[0], prev[1], 1.0) is None
        assert choke.analyze_choke_event(None, None, prev, prev, 1.0) == [None] * 3
    assert choke.analyze_choke_event is original


def test_mutation_selftest_kills_every_mutant_without_false_alarms():
    report = run_mutation_test(seed=0)
    assert report["baseline_clean"], report["baseline_violation"]
    assert len(report["mutants"]) >= 8  # the acceptance floor
    assert report["survivors"] == []
    assert report["ok"]
    # every kill names the oracle and the violation that did it
    for result in report["mutants"].values():
        assert result["kill"]["oracle"] in result["oracles"]
        assert result["kill"]["violation"]


def test_mutation_selftest_subset_and_unknown_mutant():
    report = run_mutation_test(seed=0, mutant_names=["classify-drop-ce"])
    assert list(report["mutants"]) == ["classify-drop-ce"]
    with pytest.raises(KeyError):
        run_mutation_test(mutant_names=["not-a-mutant"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def run_cli(argv, capsys):
    from repro.experiments.__main__ import main

    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_fuzz_and_list(capsys):
    argv = (
        "qa fuzz --budget-s 3 --seed 0 --no-deep "
        "--oracle classify_partition --oracle scheme_learning --format json"
    ).split()
    code, out = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["failed_oracles"] == []
    code, out = run_cli(["qa", "list"], capsys)
    assert code == 0
    assert "classify_partition" in out and "checkpoint-skip-checksum" in out


def test_cli_mutate_single(capsys):
    code, out = run_cli(["qa", "mutate", "--seed", "0", "--mutant", "classify-drop-ce"], capsys)
    assert code == 0
    assert "1/1 mutant(s) killed" in out


def test_cli_corpus_seed_and_replay(tmp_path, capsys):
    code, _ = run_cli(["qa", "corpus", "seed", "--dir", str(tmp_path), "--per-oracle", "1"], capsys)
    assert code == 0
    code, out = run_cli(["qa", "corpus", "replay", "--dir", str(tmp_path), "-q"], capsys)
    assert code == 0
    assert "0 regressed" in out
    # a corpus entry that starts failing must flip the exit code
    entry = sorted(tmp_path.glob("classify_partition-*.json"))[0]
    with MUTANTS["classify-drop-ce"].applied():
        code, _ = run_cli(["qa", "corpus", "replay", "--dir", str(tmp_path), "-q"], capsys)
    assert code == 1
    assert entry.exists()


def test_cli_repro_exit_codes(tmp_path, capsys):
    artifact = qa_corpus.make_artifact("classify_partition", {"n": 4, "seed": 1}, ["recorded"])
    path = qa_corpus.write_artifact(tmp_path, artifact)
    code, out = run_cli(["qa", "repro", str(path)], capsys)
    assert code == 0  # healthy tree: the recorded failure is fixed
    assert "fixed" in out
    with MUTANTS["classify-drop-ce"].applied():
        code, out = run_cli(["qa", "repro", str(path)], capsys)
    assert code == 1
    assert "REPRODUCES" in out


def test_cli_empty_corpus_is_an_error(tmp_path, capsys):
    code, _ = run_cli(["qa", "corpus", "replay", "--dir", str(tmp_path)], capsys)
    assert code == 1


# ----------------------------------------------------------------------
# seed-hygiene lint
# ----------------------------------------------------------------------


def load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lint_flags_builtin_hash_calls_only(tmp_path):
    cr = load_check_regression()
    (tmp_path / "dirty.py").write_text(
        '"""Uses hash() in a docstring, which is fine."""\n'
        "def f(x):\n"
        "    return hash((1, x)) % 64\n"
    )
    (tmp_path / "clean.py").write_text(
        "import zlib\n"
        "def f(x):\n"
        "    h = {}.get('hash')\n"  # the name without a call is fine
        "    return zlib.crc32(repr(x).encode())\n"
    )
    findings = cr.lint_seed_hygiene(str(tmp_path))
    assert len(findings) == 1
    assert "dirty.py:3" in findings[0]


def test_lint_cli_mode_passes_on_this_repo():
    cmd = [
        sys.executable,
        str(REPO / "benchmarks" / "check_regression.py"),
        "--lint",
        "--lint-root",
        str(REPO / "src"),
    ]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "no builtin hash()" in result.stdout
