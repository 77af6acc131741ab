"""Command-line interface: envelopes, exit codes, round-trips."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from subsumlab import cli, setpartitions
from subsumlab.cli import run

SEQ_A = "0^2;4^2;1^2;5^2"


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# worked command lines


def test_subsums_worked_line(capsys):
    code, env = run_json(capsys, ["subsums", "-g", "8", "-s", SEQ_A, "-n", "2"])
    assert code == 0
    assert env["schema"] == "subsum-lab/1"
    assert env["command"] == "subsums" and env["group"] == "8"
    assert env["result"]["subsums"] == ["0", "1", "2", "4", "5", "6"]
    assert env["result"]["size"] == 6
    assert env["result"]["stabilizer"] == ["0", "4"]
    assert isinstance(env["timing_ms"], int)


def test_group_info_worked_line(capsys):
    code, env = run_json(capsys, ["group", "info", "2x4"])
    assert code == 0
    assert env["result"]["order"] == 8
    assert env["result"]["exponent"] == 4
    assert env["result"]["d_star"] == 4


def test_group_info_normalization_notice(capsys):
    code, env = run_json(capsys, ["group", "info", "4x2"])
    assert code == 0
    assert env["result"]["spec"] == "2x4"
    assert "notice" in env["result"]


def test_maincert_worked_line(capsys):
    code, env = run_json(capsys, ["maincert", "-g", "4", "-s", "0^6;2^6",
                                  "--sprime", "0^5;2^5", "-n", "5"])
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["case"] == "II"
    assert sorted(cert["K"]) == ["0", "2"] and sorted(cert["H"]) == ["0", "2"]
    assert env["verified"] is True


# ---------------------------------------------------------------------------
# text/json numeric parity


def test_text_and_json_same_numbers(capsys):
    code = run(["subsums", "-g", "8", "-s", SEQ_A, "-n", "2"])
    text = capsys.readouterr().out
    assert code == 0
    _, env = run_json(capsys, ["subsums", "-g", "8", "-s", SEQ_A, "-n", "2"])
    for key in ("size", "N", "e", "rho", "bound"):
        assert f"{key}: {env['result'][key]}" in text


# ---------------------------------------------------------------------------
# verify round-trip


def test_verify_roundtrip_maincert(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
                "-n", "5", "--format", "json", "--out", str(out)])
    assert code == 0
    code, env = run_json(capsys, ["verify", str(out)])
    assert code == 0 and env["verified"] is True and env["violations"] == []


def test_verify_roundtrip_partition(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["partition", "-g", "8", "-s", SEQ_A, "-n", "2",
                "--format", "json", "--out", str(out)])
    assert code == 0
    code, env = run_json(capsys, ["verify", str(out)])
    assert code == 0 and env["verified"] is True


def test_verify_roundtrip_maincert_pinned_case2(tmp_path, capsys):
    seq = "(0,0)^16;(1,0);(0,1);(1,4)^22;(1,7)"
    out = tmp_path / "cert.json"
    code = run(["maincert", "-g", "2x8", "-s", seq, "--sprime", seq, "-n", "23",
                "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["certificate"]["case"] == "II"
    code, env = run_json(capsys, ["verify", str(out)])
    assert code == 0 and env["verified"] is True


def test_verify_flags_tampered_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
         "-n", "5", "--format", "json", "--out", str(out)])
    env = json.loads(out.read_text())
    env["result"]["certificate"]["alpha"] = "1"
    out.write_text(json.dumps(env))
    code, back = run_json(capsys, ["verify", str(out)])
    assert code == 1
    assert back["verified"] is False and back["violations"]


def test_verify_rejects_non_subgroup_k(tmp_path, capsys):
    seq = "(0,0,0,0)^2;(1,1,0,0)^2;(1,0,1,0)^3;(0,1,1,0)^4;(1,1,1,0)"
    out = tmp_path / "cert.json"
    code = run(["maincert", "-g", "2x2x2x2", "-s", seq, "--sprime", seq,
                "-n", "4", "--format", "json", "--out", str(out)])
    assert code == 0
    env = json.loads(out.read_text())
    env["result"]["certificate"].update(
        K=["(1,0,0,0)", "(0,1,0,0)", "(0,0,1,0)", "(1,1,1,0)"],
        alpha="(1,0,0,0)", e_K=1, k=3)
    out.write_text(json.dumps(env))
    code, back = run_json(capsys, ["verify", str(out)])
    assert code == 1
    assert back["verified"] is False
    assert back["violations"] == ["(ii): K is not a subgroup: subgroup must contain 0"]


def test_verify_rejects_false_recorded_h(tmp_path, capsys):
    out = tmp_path / "cert.json"
    run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
         "-n", "5", "--format", "json", "--out", str(out)])
    env = json.loads(out.read_text())
    env["result"]["certificate"]["H"] = ["1", "3"]
    out.write_text(json.dumps(env))
    code, back = run_json(capsys, ["verify", str(out)])
    assert code == 1
    assert back["verified"] is False
    assert back["violations"] == ["recorded H={1,3} != H(Sigma_n(S))={0,2}"]


@pytest.mark.parametrize("argv, edits", [
    (["maincert", "-g", "7", "-s", "0;1;2;3", "--sprime", "0;1;2;3", "-n", "2"],
     {"K": ["1", "3"], "alpha": "5", "e_H": 9, "e_K": 4, "k": 11}),
    (["partition", "-g", "8", "-s", SEQ_A, "-n", "2"],
     {"K": ["1", "3"], "alpha": "5", "e_K": 4}),
])
def test_verify_rejects_unused_fields(argv, edits, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run(argv + ["--format", "json", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    env["result"]["certificate"].update(edits)
    out.write_text(json.dumps(env))
    code, back = run_json(capsys, ["verify", str(out)])
    assert code == 1
    assert back["verified"] is False and len(back["violations"]) == len(edits)


@pytest.mark.parametrize("mutate", [
    lambda env: env["result"].update(certificate=None),
    lambda env: env["result"]["certificate"].pop("parts"),
    lambda env: env["result"]["certificate"].update(parts=[["0", "2"], "0"]),
    lambda env: env["result"]["certificate"].update(K=["0", "6"]),   # "6" over C4
    lambda env: env["result"]["certificate"].update(e_H=None),
])
def test_verify_malformed_certificate_exit_2(mutate, tmp_path, capsys):
    out = tmp_path / "cert.json"
    run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
         "-n", "5", "--format", "json", "--out", str(out)])
    env = json.loads(out.read_text())
    mutate(env)
    out.write_text(json.dumps(env))
    assert run(["verify", str(out)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


def _with_inputs(env, **fields):
    return {**env, "inputs": {**env["inputs"], **fields}}


@pytest.mark.parametrize("mutate, named", [
    (lambda env: _with_inputs(env, n="5"), "'inputs.n'"),
    (lambda env: _with_inputs(env, n=True), "'inputs.n'"),
    (lambda env: _with_inputs(env, n=5.0), "'inputs.n'"),
    (lambda env: [env], "not an object"),
    (lambda env: {**env, "inputs": {k: v for k, v in env["inputs"].items()
                                    if k != "S_prime"}}, "'inputs.S_prime'"),
], ids=["n-string", "n-bool", "n-float", "list", "no-S_prime"])
def test_verify_malformed_envelope_exit_2(mutate, named, tmp_path, capsys):
    out = tmp_path / "cert.json"
    run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
         "-n", "5", "--format", "json", "--out", str(out)])
    out.write_text(json.dumps(mutate(json.loads(out.read_text()))))
    assert run(["verify", str(out)]) == 2
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# other verbs and exit codes


def test_sumset_verbs(capsys):
    code, env = run_json(capsys, ["sumset", "-g", "8", "-s", "0;1", "-n", "3"])
    assert code == 0 and env["result"]["size"] == 4

    code, env = run_json(capsys, ["sumset", "-g", "6", "-s", "0;3",
                                  "--sprime", "0;3"])
    assert code == 0
    assert env["result"]["sumset"] == ["0", "3"]
    assert env["result"]["stabilizer_order"] == 2


def test_example_verb(capsys):
    code, env = run_json(capsys, ["example", "A", "-g", "8", "--h", "4"])
    assert code == 0
    assert env["result"]["expected"]["sigma_size"] == 6


def test_davenport_verb(capsys):
    code, env = run_json(capsys, ["davenport", "-g", "2x2"])
    assert code == 0
    assert env["result"]["davenport"] == 3
    assert env["result"]["sandwich_holds"] is True


def test_hunt_verb(capsys):
    code, env = run_json(capsys, ["hunt", "-g", "5", "-n", "2"])
    assert code == 0
    assert env["result"]["exhaustive"] is True


def test_audit_verb_small(capsys):
    code, env = run_json(capsys, ["audit", "--max-order", "4", "--group-cap",
                                  "4", "--len-cap", "3", "--samples", "20"])
    assert code == 0
    assert env["verified"] is True
    assert env["result"]["instances"] > 0


@pytest.mark.parametrize("flags", [
    ["--group-cap", "2", "--len-cap", "-2", "--samples", "1"],
    ["--group-cap", "2", "--samples", "-5"],
    ["--group-cap", "0", "--samples", "0", "--checkers", "bogus"],
    ["--group-cap", "2", "--len-cap", "2", "--samples", "0",
     "--checkers", "subsum_kneser,subsum_kneser"],
], ids=["negative-len-cap", "negative-samples", "unknown-checker-empty-corpus",
        "repeated-checker"])
def test_audit_bad_config_exit_2(flags, capsys):
    assert run(["audit", "--max-order", "8", *flags]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    assert run(["subsums", "-g", "8", "-s", "bogus", "-n", "2"]) == 2
    assert run(["group", "info", "abc"]) == 2
    assert run(["nonsense-verb"]) == 2
    assert run(["subsums", "-g", "8", "-s", SEQ_A]) == 2   # -n omitted
    # an explicit empty value is a value, not absence: S' = "" has |S'| = 0
    assert run(["partition", "-g", "8", "-s", "1;2", "--sprime", "", "-n", "1"]) == 2
    assert "n=1 > |S'|=0" in capsys.readouterr().err
    assert run(["maincert", "-g", "8", "-s", "1;2", "--sprime", "", "-n", "1"]) == 2
    assert "n=1 > |S'|=0" in capsys.readouterr().err
    assert run(["audit", "--checkers", "", "--group-cap", "2", "--samples", "0"]) == 2
    assert "checkers must be distinct names from" in capsys.readouterr().err
    # literals are an optional '-' and ASCII digits, not whatever int() reads
    for group, seq in (("8", "\u0661;\u0662"), ("16", "1_0;+3"), ("2_0", "1"),
                       ("8", "1^\u0662"), ("8", "1^+2"), ("2x4", "(1,\u0661)")):
        assert run(["subsums", "-g", group, "-s", seq, "-n", "1"]) == 2, (group, seq)
        assert "bad " in capsys.readouterr().err
    assert run(["subsums", "-g", "8", "-s", " -1 ^2; 3", "-n", "1"]) == 0


def _over_cap_report(tmp_path):
    out = tmp_path / "cert.json"
    run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
         "-n", "5", "--format", "json", "--out", str(out)])
    out.write_text(json.dumps({**json.loads(out.read_text()), "group": "10000000"}))
    return str(out)


@pytest.mark.parametrize("argv", [
    ["group", "info", "1000000000000000003"],
    ["subsums", "-g", "1000000", "-s", "0", "-n", "1"],
    None,
], ids=["group-info-prime", "subsums-1e6", "verify-1e7"])
def test_order_over_cap_exit_2(argv, tmp_path, capsys):
    # refused by make_group before any factoring or per-element table
    argv = argv or ["verify", _over_cap_report(tmp_path)]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the cap 4096" in capsys.readouterr().err


def test_length_over_row_cap_exit_2(capsys):
    # refused by the Sigma_n DP before it allocates a row per n
    start = time.perf_counter()
    assert run(["subsums", "-g", "2", "-s", "0^1000000000000;1",
                "-n", "1000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the row cap 65536" in capsys.readouterr().err


def _loaded_modules(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running code with argv."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_verbs_load_only_their_modules(tmp_path):
    report = tmp_path / "cert.json"
    assert run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
                "-n", "5", "--format", "json", "--out", str(report)]) == 0
    solver_free = ("subsumlab.setpartitions", "subsumlab.search", "subsumlab.verifiers",
                   "dataclasses")
    search_free = ("subsumlab.search", "subsumlab.verifiers")
    verbs = [
        (["group", "info", "2x4"], solver_free),
        (["sumset", "-g", "8", "-s", "0;1", "-n", "3"], solver_free),
        (["subsums", "-g", "8", "-s", SEQ_A, "-n", "2"], solver_free),
        (["partition", "-g", "8", "-s", SEQ_A, "-n", "2"], search_free),
        (["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5", "-n", "5"],
         search_free),
        (["verify", str(report)], search_free),
    ]
    code = ("import json, sys\nfrom subsumlab.cli import run\n"
            "assert run(sys.argv[1:]) == 0\nprint(json.dumps(sorted(sys.modules)))")
    for argv, absent in verbs:
        loaded = _loaded_modules(code, *argv, "--out", str(tmp_path / "out.txt"))
        assert "subsumlab.sequences" in loaded, argv[0]
        assert loaded.isdisjoint(absent), (argv[0], sorted(loaded & set(absent)))
    # the package's public API still loads every library module
    api = _loaded_modules("import json, sys\nfrom subsumlab import cli\n"
                          "print(json.dumps(sorted(sys.modules)))")
    assert {f"subsumlab.{m}" for m in ("groups", "sequences", "setpartitions",
                                       "search", "verifiers")} <= api


def test_audit_jobs_out_of_range_exit_2(capsys):
    # each value is rejected before any worker pool starts
    for jobs in (0, -1, (os.cpu_count() or 1) + 1):
        assert run(["audit", "--samples", "1", "--jobs", str(jobs)]) == 2
        assert "--jobs must lie in" in capsys.readouterr().err


def test_hypotheses_unmet_exit_1(capsys):
    # a negative verdict comes with an envelope, as every exit 0 or 1 does
    code, env = run_json(capsys, ["maincert", "-g", "8", "-s", SEQ_A, "--sprime", SEQ_A,
                                  "-n", "2"])
    assert code == 1
    assert env["verified"] is False and env["result"] == {"certificate": None}
    assert env["inputs"]["S_prime"] == env["inputs"]["S"] == "0^2;1^2;4^2;5^2"
    assert env["violations"] == [
        "no hypothesis item holds for H of order 2, n=2, G=8 (mode standard)"]


@pytest.mark.parametrize("exc, message", [
    (AttributeError("no such field"), "AttributeError: no such field"),
    (setpartitions.InternalError("step failed", {"n": 2}), "step failed"),
    (KeyError("no such key"), "KeyError: 'no such key'"),
])
def test_unexpected_and_internal_errors_exit_3(exc, message, monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "subsum_profile", broken)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run(["subsums", "-g", "8", "-s", SEQ_A, "-n", "2"]) == 3
    err = capsys.readouterr().err
    assert f"internal error: {message}" in err
    (dump,) = tmp_path.glob("subsumlab-dump-*.json")
    assert f"reproduction dump: {dump}" in err
    assert json.loads(dump.read_text())["error"] == message


def test_library_value_error_exit_3(monkeypatch, tmp_path, capsys):
    # a bare ValueError raised inside the library is a bug, not a usage error
    def broken(*args, **kwargs):
        raise ValueError("solver inconsistency")
    monkeypatch.setattr(setpartitions, "main_pipeline", broken)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run(["maincert", "-g", "4", "-s", "0^6;2^6", "--sprime", "0^5;2^5",
                "-n", "5"]) == 3
    err = capsys.readouterr().err
    assert "internal error: ValueError: solver inconsistency" in err
    (dump,) = tmp_path.glob("subsumlab-dump-*.json")
    assert json.loads(dump.read_text())["error"] == "ValueError: solver inconsistency"


def test_library_inconsistency_check_exit_3(monkeypatch, tmp_path, capsys):
    # partition_solve checks its certificate with partition_verify; a
    # rejection there is the library contradicting itself, not a verdict
    monkeypatch.setattr(setpartitions, "partition_verify",
                        lambda *args: (False, ["rejected by test"]))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run(["partition", "-g", "8", "-s", SEQ_A, "-n", "2"]) == 3
    err = capsys.readouterr().err
    assert "internal error: partition certificate failed verification" in err
    (dump,) = tmp_path.glob("subsumlab-dump-*.json")
    assert json.loads(dump.read_text())["dump"] == {
        "case": "II", "violations": ["rejected by test"], "group": "8",
        "S": "0^2;1^2;4^2;5^2", "S_prime": "0^2;1^2;4^2;5^2", "n": 2}


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{"], ids=["json", "utf8"])
def test_verify_unreadable_report_exit_2(content, tmp_path, capsys):
    out = tmp_path / "cert.json"
    out.write_bytes(content)
    assert run(["verify", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
