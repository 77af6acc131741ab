"""CLI contract fuzzer: every verb, with valid and hostile arguments.

A seeded grammar draws argv lists per verb: group specs, sequences, n values
and flags, each from valid and hostile alternatives, and cli.run(argv) runs
them in-process.  The exit code must be 0, 1 or 2; 3 is an internal error,
and an argv that gives it becomes a pinned test in test_cli.py before the
fault is mended.  On 0 or 1 the JSON envelope must be well formed and echo
the S and S' it was given.  The verify verb reads reports from the
certificate verbs, each edited by one hostile mutation.  Values that would
make a run long (a large Davenport cap, a large hunt budget, a multi-process
audit) are left out: the contract is about exit codes.  A hunt tuple length
far above |G| + 1 is in: it must be refused, exit 2, in under a second.
"""

import json
import random
import time
from collections import Counter

from subsumlab.cli import SCHEMA, run
from subsumlab.groups import InputError, parse_group
from subsumlab.sequences import parse_sequence

SEED = 27
ROUNDS = 40       # each round draws one argv per verb

GROUPS = ["2", "5", "7", "8", "12", "16", "2x2", "2x4", "4x2", "3x3", "4x4", "2x2x2"]
HOSTILE_GROUPS = ["", "0", "1", "-4", "abc", "2x", "x2", "2x0", "4x-2", "2_0", "+8",
                  "٨", " 8 ", "1000000000000000003", "64x128"]
HOSTILE_SEQS = ["", ";", "bogus", "1^", "^2", "1^0", "1^-1", "1;;2", "(1,0", "(1,2,3)",
                "99", "-1", "١", "1^٢", "1^100000000000000000000", " 1 ; 2 "]
HOSTILE_INTS = ["-1", "0", "x", "1.5", "", "100000000000", "+2", "٢"]
# one worked instance per extremal family, as random draws seldom meet the
# families' preconditions
EXAMPLES = [
    ("example", "A", "-g", "8", "--h", "4"),
    ("example", "A", "-g", "2x4", "--h", "(1,0)"),
    ("example", "B", "-g", "3x6", "--h", "(0,3)", "--k", "(0,3);(1,0)", "--gen", "(0,1)"),
    ("example", "C", "-g", "3x3x3", "--h", "(0,0,1)", "--k", "(0,0,1);(0,1,0)",
     "--gen", "(1,0,0)"),
]
# no hypothesis item holds for this S' = S at n = 2
UNMET = ("8", "0^2;4^2;1^2;5^2")
ENVELOPE_KEYS = {"schema", "command", "group", "inputs", "result", "verified",
                 "violations", "timing_ms"}


def _pick(rng, valid, hostile, p_hostile=0.15):
    return rng.choice(hostile if rng.random() < p_hostile else valid)


def _seq(rng, spec, max_mult=4):
    """A sequence literal over spec: mostly well formed, sometimes hostile."""
    if rng.random() < 0.15:
        return rng.choice(HOSTILE_SEQS)
    try:
        lits = parse_group(spec).literals()
    except InputError:
        lits = ["0", "1", "(0,1)"]
    terms = [f"{rng.choice(lits)}^{rng.randint(1, max_mult)}"
             for _ in range(rng.randint(1, 5))]
    return ";".join(terms)


def _n(rng, spec, seq):
    """n, drawn from h(S) <= n <= |S| when seq parses, else from 1..8."""
    try:
        s = parse_sequence(parse_group(spec), seq)
        lo, hi = max(1, s.max_multiplicity()), max(1, s.length)
    except InputError:
        lo, hi = 1, 8
    return _pick(rng, [str(rng.randint(lo, hi))], HOSTILE_INTS)


def _prefix(rng, seq):
    """S' as a leading run of S's terms, or a hostile literal."""
    if rng.random() < 0.15:
        return rng.choice(HOSTILE_SEQS)
    terms = seq.split(";")
    return ";".join(terms[:rng.randint(1, len(terms))])


def draw(rng, verb):
    """(argv, echo): echo maps each inputs field the envelope must echo to
    a function of the parsed group giving its expected value."""
    spec = _pick(rng, GROUPS, HOSTILE_GROUPS)
    if verb == "group":
        return ["group", "info", spec], {"given": lambda g: spec}
    if verb == "davenport":
        cap = rng.choice(["-1", "0", "4", "8"])
        return ["davenport", "-g", spec, "--cap", cap], {}
    if verb == "hunt":
        n = rng.choice(["-1", "0", "1", "2", "3", "x", "1000000", "100000000000"])
        argv = ["hunt", "-g", spec, "-n", n,
                "--budget", rng.choice(["-1", "0", "40", "300"])]
        return argv + (["--no-canonicalize"] if rng.random() < 0.3 else []), {}
    if verb == "audit":
        argv = ["audit", "--max-order", _pick(rng, ["4", "8"], ["-1", "0", "1", "65"]),
                "--group-cap", _pick(rng, ["0", "2", "3"], ["-1", "17"]),
                "--samples", _pick(rng, ["0", "3"], ["-5", "x"]),
                "--seed", rng.choice(["0", "7", "-3"])]
        if rng.random() < 0.6:
            argv += ["--len-cap", _pick(rng, ["0", "2", "3"], ["-2", "x"])]
        if rng.random() < 0.5:
            argv += ["--jobs", _pick(rng, ["1"], ["0", "-1", "100000"])]
        if rng.random() < 0.6:
            argv += ["--checkers", _pick(
                rng, ["partition", "pipeline,fullgroup", "subsum_kneser,s_star,lemma_extra"],
                ["", "bogus", "partition,partition", ",", "partition,"], 0.3)]
        return argv, {}
    if verb == "example":
        if rng.random() < 0.4:
            return list(rng.choice(EXAMPLES)), {}
        argv = ["example", rng.choice(["A", "B", "C", "D"]), "-g", spec,
                "--h", _seq(rng, spec, 1)]
        if rng.random() < 0.5:
            argv += ["--k", _seq(rng, spec, 1)]
        if rng.random() < 0.5:
            argv += ["--gen", rng.choice(["0", "1", "2", "(0,1)", "(1,0)", "x", "9"])]
        return argv, {}
    seq = _seq(rng, spec)
    if verb == "maincert" and rng.random() < 0.2:
        spec, seq = UNMET
    if verb == "sumset":
        argv = ["sumset", "-g", spec, "-s", seq]
        echo = {"A": lambda g: [g.literals()[i] for i in parse_sequence(g, seq).support_indices()]}
        if rng.random() < 0.4:
            sprime = _seq(rng, spec)
            echo["B"] = lambda g: [g.literals()[i]
                                   for i in parse_sequence(g, sprime).support_indices()]
            return argv + ["--sprime", sprime], echo
        return argv + (["-n", _pick(rng, ["2", "3", "5"], HOSTILE_INTS)] if rng.random() < 0.7 else []), echo
    echo = {"S": lambda g: parse_sequence(g, seq).format(), "n": lambda g: int(n)}
    if verb == "subsums":
        n = _n(rng, spec, seq)
        return ["subsums", "-g", spec, "-s", seq, "-n", n], echo
    sprime = _prefix(rng, seq) if verb == "maincert" or rng.random() < 0.6 else None
    n = _n(rng, spec, seq if sprime is None else sprime)
    echo["S_prime"] = lambda g: parse_sequence(g, seq if sprime is None else sprime).format()
    argv = [verb, "-g", spec, "-s", seq, "-n", n]
    if sprime is not None:
        argv += ["--sprime", sprime]
    if verb == "maincert" and rng.random() < 0.5:
        argv += ["--mode", rng.choice(["standard", "fullgroup", "full-group"])]
    return argv, echo


def _mutate(rng, envelope):
    """One hostile edit of a certificate report."""
    env = json.loads(json.dumps(envelope))
    cert = env["result"]["certificate"]
    edit = rng.randrange(10)
    if edit == 0:
        env["inputs"]["S"] = _seq(rng, env["group"])
    elif edit == 1:
        env["inputs"]["S_prime"] = _seq(rng, env["group"])
    elif edit == 2:
        env["inputs"]["n"] = rng.choice([0, -1, 1, 2, 9, True, "2", None, 1.0])
    elif edit == 3:
        env["group"] = rng.choice(GROUPS + HOSTILE_GROUPS + [None, 8])
    elif edit == 4:
        del env[rng.choice(["group", "inputs", "result", "schema"])]
    elif edit == 5:
        cert["parts"] = rng.choice([[], [[]], "0", [["0"], ["0"]], [[0]], cert["parts"][::-1]])
    elif edit == 6:
        cert[rng.choice(["case", "theorem", "mode"])] = rng.choice(["I", "II", "III", None, 1])
    elif edit == 7:
        cert[rng.choice(["e_H", "e_K", "k"])] = rng.choice([-1, 0, 1, 5, "1", None])
    elif edit == 8:
        cert[rng.choice(["H", "K", "alpha"])] = rng.choice([None, [], ["0"], "0", ["9"], 0])
    else:
        env["result"] = rng.choice([None, [], {}, {"certificate": None}])
    return env


def _check_envelope(env, verb, echo):
    assert set(env) == ENVELOPE_KEYS
    assert env["schema"] == SCHEMA and env["command"] == verb
    assert env["group"] is None or isinstance(env["group"], str)
    assert isinstance(env["inputs"], dict) and isinstance(env["result"], dict)
    assert type(env["verified"]) is bool and isinstance(env["violations"], list)
    assert type(env["timing_ms"]) is int and env["timing_ms"] >= 0
    if echo:
        g = parse_group(env["group"])
        for key, expect in echo.items():
            assert env["inputs"][key] == expect(g), key


def _run(capsys, argv, verb, echo):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if code == 2:
        return None
    env = json.loads(out)
    _check_envelope(env, verb, echo)
    assert env["verified"] is (code == 0), argv
    return env


def test_cli_contract_fuzz(tmp_path, capsys):
    rng = random.Random(SEED)
    verbs = ["group", "sumset", "subsums", "partition", "maincert", "example",
             "audit", "hunt", "davenport"]
    outcomes = Counter()      # (verb, verified), None for exit 2
    reports = []
    for _ in range(ROUNDS):
        for verb in verbs:
            argv, echo = draw(rng, verb)
            t0 = time.perf_counter()
            env = _run(capsys, argv, verb, echo)
            if verb == "hunt" and len(argv[4]) > 3:   # n >= 10^6
                assert env is None and time.perf_counter() - t0 < 1, argv
            outcomes[verb, env and env["verified"]] += 1
            if env and env["verified"] and verb in ("partition", "maincert"):
                reports.append(env)
    # every fourth report goes back unedited and must verify
    for i in range(4 * ROUNDS):
        report = reports[i % len(reports)]
        env = _mutate(rng, report) if i % 4 else report
        path = tmp_path / f"report{i}.json"
        path.write_text(json.dumps(env))
        inputs = env.get("inputs") if isinstance(env.get("inputs"), dict) else {}
        echo = {"S": lambda g: inputs["S"], "S_prime": lambda g: inputs["S_prime"]}
        got = _run(capsys, ["verify", str(path)], "verify", echo)
        outcomes["verify", got and got["verified"]] += 1
        assert i % 4 or got["verified"] is True
    # the grammar reaches success and a usage error on every verb
    for verb in [*verbs, "verify"]:
        assert outcomes[verb, True] and outcomes[verb, None], (verb, outcomes)
    assert outcomes["verify", False] and outcomes["maincert", False]
