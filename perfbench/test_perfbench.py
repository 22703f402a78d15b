"""Tests of the benchmark itself: input generator, span wrappers, output
check and failure accounting.  Run with ``python -m pytest -q perfbench``
from the repository root."""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402


def _classes(requests):
    return [(r.kind, r.params, r.sink, r.fmt) for r in requests]


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.build_requests(name, 7, 30)
        again = workloads.build_requests(name, 7, 30)
        other = workloads.build_requests(name, 8, 30)
        assert first == again
        assert _classes(first) == _classes(other)
        assert [r.point for r in first] != [r.point for r in other]


def test_points_follow_the_stated_rule_and_are_distinct():
    for name in workloads.WORKLOADS:
        requests = workloads.build_requests(name, 3, 60)
        points = [r.point for r in requests if r.point is not None]
        assert len(points) == len(set(points))
        for a, b, c, d in points:
            assert workloads.in_domain(a, b, c, d)
            assert not workloads.is_power_of_q(c)
    assert workloads.is_power_of_q(Fraction(1)) and workloads.is_power_of_q(Fraction(1, 4))
    assert not workloads.is_power_of_q(Fraction(3, 4))


def test_request_list_grows_with_seconds():
    short = workloads.build_requests("rodrigues", 1, 5)
    longer = workloads.build_requests("rodrigues", 1, 20)
    assert 1 <= len(short) < len(longer)
    assert longer[:len(short)] == short


def _bindings():
    import importlib

    out = {}
    for _, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        out[path] = vars(owner)[attr]
    import qbipoly.bipoly
    import qbipoly.cli
    import qbipoly.suites

    out["cli.rodrigues_poly"] = qbipoly.cli.rodrigues_poly
    out["suites.rodrigues_poly"] = qbipoly.suites.rodrigues_poly
    out["BiPoly.__radd__"] = vars(qbipoly.bipoly.BiPoly)["__radd__"]
    return out


def test_wrappers_install_everywhere_and_uninstall_to_originals():
    import qbipoly.bipoly
    import qbipoly.cli
    import qbipoly.rodrigues
    import qbipoly.suites

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = qbipoly.rodrigues.rodrigues_poly
        assert wrapped is not before["rodrigues_poly"]
        assert wrapped.__wrapped__ is before["rodrigues_poly"]
        assert qbipoly.cli.rodrigues_poly is wrapped
        assert qbipoly.suites.rodrigues_poly is wrapped
        bipoly = qbipoly.bipoly.BiPoly
        assert vars(bipoly)["__radd__"] is vars(bipoly)["__add__"]
        assert vars(bipoly)["__add__"] is not before["BiPoly.__add__"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _cheap_requests():
    requests = [r for r in workloads.build_requests("families", 2, 3)
                if r.kind in ("check", "hypergeometric", "nonmonic", "weight")]
    assert {r.kind for r in requests} == {"check", "hypergeometric", "nonmonic", "weight"}
    return requests


def test_outputs_are_byte_identical_with_tracing(tmp_path):
    cli = run.import_cli(os.path.dirname(HERE))
    requests = _cheap_requests()
    plain = run.send(cli, requests, str(tmp_path), passes=1)
    run.judge(plain, checks.load_digests())
    tracer = Tracer()
    traced = run.send(cli, requests, str(tmp_path), passes=1, tracer=tracer)
    run.judge(traced, checks.load_digests())
    assert [r["problem"] for r in plain] == [None] * len(requests)
    assert [r["text"] for r in traced] == [r["text"] for r in plain]
    # spans come back from each request's process, parents remapped
    assert tracer.stat("cli.main")[0] == len(requests)
    for i, parent in enumerate(tracer.span_parent):
        assert parent < i
        assert parent < 0 or tracer.span_request[parent] == tracer.span_request[i]
    assert sorted(set(tracer.span_request)) == [r.slot for r in requests]


def test_every_pass_is_sent_and_checked(tmp_path):
    cli = run.import_cli(os.path.dirname(HERE))
    requests = _cheap_requests()[:2]
    records = run.send(cli, requests, str(tmp_path), passes=3)
    run.judge(records, checks.load_digests())
    assert [(r["request"].slot, r["pass"]) for r in records] == [
        (req.slot, p) for p in range(3) for req in requests]
    assert all(r["problem"] is None and r["ref_s"] > 0 for r in records)
    assert len(run.latencies(records)) == len(requests)


def test_speed_sampler_samples_while_running_and_restores_the_handler():
    saved = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        end = time.perf_counter() + 3 * run.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 1 and all(t > 0 for t in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is saved
    assert run.scaled(2.0, [run.REFERENCE_S * 2]) == 1.0


def test_output_check_rejects_a_corrupted_payload(tmp_path):
    cli = run.import_cli(os.path.dirname(HERE))
    req = next(r for r in _cheap_requests() if r.kind == "hypergeometric")
    rec = run.send(cli, [req], str(tmp_path), passes=1)[0]
    digests = checks.load_digests()
    assert checks.check_output(req, rec["rc"], rec["stdout"], digests) is None
    doc = json.loads(rec["stdout"])
    term = doc["polynomial"][0]
    term["num"] = str(int(term["num"]) + 1)
    problem = checks.check_output(req, 0, json.dumps(doc), digests)
    assert problem is not None and "digest" in problem


def test_suite_check_gates_rows_not_digests():
    req = workloads.Request(0, "recurrence", (), None, ("verify",), "stdout", "json")
    rows = [["ttr_identity", "n=0", "axis=1", "", "True"],
            ["second_block_resolvent_matches_oracle", "n=2", "", "", "True"],
            ["closed_form_S_agreement", "n=1", "", "1 differing entries", "False"]]
    doc = {"schema_version": 1, "kind": "verify-report", "suite": "recurrence", "ok": True,
           "rows": rows}
    assert checks.check_output(req, 0, json.dumps(doc), {}) is None
    rows[0][-1] = "False"
    assert "gated row failed" in checks.check_output(req, 0, json.dumps(doc), {})


def test_failing_request_is_counted(tmp_path):
    cli = run.import_cli(os.path.dirname(HERE))
    good = _cheap_requests()[0]
    bad = workloads.Request(1, "rodrigues", (13, 0), None,
                            ("generate", "--family", "rodrigues", "--degrees", "13 0",
                             "--preset", "big-q-jacobi"), "stdout", "json")
    records = run.send(cli, [good, bad], str(tmp_path), passes=1)
    run.judge(records, checks.load_digests())
    result = run.result(records, {})
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False
    assert records[1]["problem"].startswith("exit code 2")
