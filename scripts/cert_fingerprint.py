#!/usr/bin/env python3
"""sha256 digests of the certify path's outputs on a fixed 63,977-instance corpus.

For each instance (G, S, S', n) the digests take, in order, the to_dict()
JSON of partition_solve(S, S', n), main_pipeline(G, S, S', n) and the
full-group main_pipeline, or the error text where a call raises.  Two trees
that print the same digests produce byte-identical certificates and errors on
the whole corpus, so a refactor of the solver or the verifiers can be checked
for unchanged behaviour by running this script in both checkouts:

    python3 scripts/cert_fingerprint.py

It prints, per slice of the corpus, one digest per call (partition,
pipeline, full-group) and then the slice's digest over all three, each
followed by its name, then the verdict digest (below), and last one overall
digest over all slices in order.
A change meant to touch one slice, or one call, can so show that the others
kept their digests: a pipeline change leaves every partition digest as it
was.  On stderr it
prints, per slice and call, how many outcomes were ok:I, ok:II or each raised
error class, so a change that alters which certificate comes out, but not
whether one does, shows as changed digests with unchanged counts.  It also
round-trips every certificate it hashes through the codec,
from_dict(G, json.loads(json.dumps(to_dict()))), and prints per slice how many
round-trips did not give back the same record apart from "verified" (a
parsed certificate is never verified), or raised; that count must be 0, and
the script exits 1 when it is not.
Per slice and pipeline mode, it counts which hypothesis item
hypothesis_check selected, over the calls that passed the preconditions
(raised no plain PartitionError); "none" counts the HypothesesUnmetError
outcomes.  These counts stay out of the digests, and so does the count, per
slice and call, of the Sigma_n DPs the call ran (calls of
sequences._subsum_rows, the DP behind nterm_subsums).  Each call starts with
nterm_subsums' one-entry memo emptied, so the count is what the call costs
on its own, whatever the script or an earlier call computed.

Last, a verdict digest checks that the verifiers still accept and reject
what they did.  For every certificate of every k-th instance of a slice
(MUTANT_STRIDE), it builds four fixed mutants of the record (a term
dropped, a term moved between parts, the case tag flipped, e_H bumped; see
mutants()), runs partition_verify and main_verify on each against the
instance, and digests each (ok, violations), or the error a verifier
raised.  It is printed as "<digest>  verdicts" on the line before the
overall digest and is not part of it; stderr gets the accepted and rejected
counts.  Two trees that print the same verdict digest give the same verdict
and the same violation list on every mutant it builds.

The corpus (fixed, seeded), one slice each:
  - criterion 8-9: the criterion 8-9 audit corpus, 56,974 instances: every
    |S| <= 6 over |G| <= 8 with every admissible n, plus 10,000 random
    instances over |G| <= 16 (S' = S);
  - S' proper: 4,000 random instances with S' a proper subsequence of S;
  - concentrated: 3,000 instances with most terms in one proper subgroup, a
    few terms outside it, n from 7 to 14;
  - pinned: three instances whose hill-climb partition fails case II until
    the solver's repair spreads its outside terms (two of them are the
    benchmark's pinned requests), so the digest covers every solver path.

It always imports subsumlab from the src/ directory next to this script.
"""

import hashlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from subsumlab import sequences  # noqa: E402
from subsumlab.groups import enumerate_subgroups, parse_group, stabilizer  # noqa: E402
from subsumlab.search import (  # noqa: E402
    AuditConfig,
    exhaustive_instances,
    groups_up_to,
    random_instance,
)
from subsumlab.sequences import GSequence, nterm_subsums, parse_sequence  # noqa: E402
from subsumlab.setpartitions import (  # noqa: E402
    Certificate,
    PartitionError,
    hypothesis_check,
    main_pipeline,
    main_verify,
    partition_solve,
    partition_verify,
)

# the criterion 8-9 audit configuration (tests/test_acceptance.py)
C89 = AuditConfig(max_group_order=16, exhaustive_group_cap=8,
                  exhaustive_len_cap=6, random_samples=10_000,
                  random_len_cap=12, seed=0, jobs=1,
                  checkers=("partition", "pipeline", "fullgroup"))
PROPER_SUBSEQUENCE = 4_000
CONCENTRATED = 3_000
CALLS = ("partition", "pipeline", "full-group")
# the hypothesis mode of each main_pipeline call
ITEM_MODES = {"pipeline": "standard", "full-group": "full-group"}
# the verdict digest mutates the certificates of every k-th instance of a
# slice, k by slice, which keeps it to a few seconds
MUTANT_STRIDE = {"criterion 8-9": 64, "S' proper": 8, "concentrated": 8, "pinned": 1}
PINNED = (
    ("2x8", "(0,0)^16;(1,0);(0,1);(1,4)^22;(1,7)", 23),
    ("4x4", "(0,0)^14;(3,1);(1,2);(2,2)^16;(2,3)", 17),
    ("4x8", "(1,1);(2,1)^4;(1,3)^3;(2,3);(0,5)^4;(3,7)^4", 4),
)


def count_dps() -> list[int]:
    """Wrap sequences._subsum_rows so that each call adds 1 to the returned
    one-element counter."""
    runs = [0]
    rows = sequences._subsum_rows

    def counted(*args):
        runs[0] += 1
        return rows(*args)
    sequences._subsum_rows = counted
    return runs


def criterion_89():
    yield from ((g, s, s, n) for g, s, n in exhaustive_instances(C89))
    groups = [g for g in groups_up_to(C89.max_group_order) if g.order >= 2]
    for i in range(C89.random_samples):
        g, s, n = random_instance(C89, i, groups)
        yield g, s, s, n


def proper_subsequence():
    cfg = AuditConfig(max_group_order=16, random_len_cap=12, seed=7)
    groups = [g for g in groups_up_to(16) if g.order >= 2]
    i = made = 0
    while made < PROPER_SUBSEQUENCE:
        g, s, _ = random_instance(cfg, i, groups)
        i += 1
        if s.length < 2:
            continue
        rng = random.Random(f"sub:{i}")
        prime = list(s.mult)
        for _ in range(rng.randint(1, s.length - 1)):
            prime[rng.choice([x for x, m in enumerate(prime) if m])] -= 1
        s_prime = GSequence(g, prime)
        made += 1
        yield g, s, s_prime, rng.randint(s_prime.max_multiplicity(), s_prime.length)


def concentrated():
    rng = random.Random("concentrated")
    choices = [(g, k) for g in groups_up_to(16)
               for k in enumerate_subgroups(g) if not (k.is_trivial or k.is_full)]
    for _ in range(CONCENTRATED):
        g, k = rng.choice(choices)
        inside = list(k.carrier.indices())
        outside = [x for x in range(g.order) if not (k.carrier.bits >> x) & 1]
        n = rng.randint(7, 14)
        mult = [0] * g.order
        for _ in range(rng.randint(n, n + 6)):
            mult[rng.choice(inside)] += 1
        for _ in range(rng.randint(0, 2)):
            mult[rng.choice(outside)] += 1
        s = GSequence(g, mult)
        yield g, s, s, max(n, s.max_multiplicity())


def pinned():
    for spec, seq, n in PINNED:
        g = parse_group(spec)
        s = parse_sequence(g, seq)
        yield g, s, s, n


def outcome(g, call) -> tuple[str, str, bool, dict | None]:
    """(class, text, round-trip ok, record): ok:I or ok:II, the certificate's
    to_dict() JSON, whether the codec gives its record back and the record,
    or the raised error's class name, its text, True and None."""
    try:
        cert = call()
    except Exception as err:  # the error text is part of the fingerprint
        return type(err).__name__, f"{type(err).__name__}: {err}", True, None
    record = cert.to_dict()
    try:
        back = Certificate.from_dict(g, json.loads(json.dumps(record))).to_dict()
    except PartitionError:
        back = None
    same = back == {**record, "verified": False}
    return f"ok:{cert.case_tag}", json.dumps(record, sort_keys=True), same, record


def mutants(record: dict) -> list[tuple[str, dict]]:
    """The fixed mutants of a certificate record, by name: the last term of
    the first part with two or more dropped; the first term of that part
    that another part lacks moved to the first such part; the case tag
    flipped; e_H bumped by one.  An edit with no such part is left out."""
    parts = record["parts"]
    out = []
    big = next((i for i, p in enumerate(parts) if len(p) >= 2), None)
    if big is not None:
        dropped = [list(p) for p in parts]
        dropped[big].pop()
        out.append(("drop", {**record, "parts": dropped}))
        move = next(((e, j) for e in parts[big] for j, p in enumerate(parts)
                     if j != big and e not in p), None)
        if move is not None:
            e, j = move
            moved = [list(p) for p in parts]
            moved[big].remove(e)
            moved[j].append(e)
            out.append(("move", {**record, "parts": moved}))
    out.append(("flip", {**record, "case": "II" if record["case"] == "I" else "I"}))
    out.append(("e_H", {**record, "e_H": record["e_H"] + 1}))
    return out


def digest_verdicts(g, s, s_prime, n, record: dict, digest, counts: Counter) -> None:
    """Add to digest one line per mutant of record and verifier: the mutant's
    name, the verifier's and its (ok, violations), or the error it raised;
    counts tallies accepted and rejected mutants per verifier."""
    for name, data in mutants(record):
        cert = Certificate.from_dict(g, data)
        for verifier, verify in (("partition", lambda: partition_verify(cert, s, s_prime, n)),
                                 ("main", lambda: main_verify(cert, g, s, s_prime, n))):
            try:
                ok, violations = verify()
                verdict = json.dumps([ok, violations])
                counts[f"{verifier} {'accepted' if ok else 'rejected'}"] += 1
            except Exception as err:  # a raising verifier is part of the digest
                verdict = f"{type(err).__name__}: {err}"
                counts[f"{verifier} raised"] += 1
            digest.update(f"{name} {verifier} {verdict}\n".encode())


def main() -> int:
    overall = hashlib.sha256()
    verdict_digest = hashlib.sha256()
    verdict_counts: Counter = Counter()
    t0 = time.perf_counter()
    total_mismatches = 0
    dp_runs = count_dps()
    for name, corpus in (("criterion 8-9", criterion_89),
                         ("S' proper", proper_subsequence),
                         ("concentrated", concentrated),
                         ("pinned", pinned)):
        digest = hashlib.sha256()
        call_digests = [hashlib.sha256() for _ in CALLS]
        count = 0
        classes = [Counter() for _ in CALLS]
        dps = [0] * len(CALLS)
        items = {call: Counter() for call in ITEM_MODES}
        mismatches = 0
        for g, s, s_prime, n in corpus():
            for j, call in enumerate((
                    lambda: partition_solve(s, s_prime, n),
                    lambda: main_pipeline(g, s, s_prime, n),
                    lambda: main_pipeline(g, s, s_prime, n, "full-group"))):
                sequences._last_nterm = (None, 0)
                before = dp_runs[0]
                cls, text, same, record = outcome(g, call)
                dps[j] += dp_runs[0] - before
                if record is not None and count % MUTANT_STRIDE[name] == 0:
                    digest_verdicts(g, s, s_prime, n, record, verdict_digest, verdict_counts)
                classes[j][cls] += 1
                mismatches += not same
                line = text.encode() + b"\n"
                call_digests[j].update(line)
                digest.update(line)
                overall.update(line)
                mode = ITEM_MODES.get(CALLS[j])
                if mode and cls != "PartitionError":
                    h = stabilizer(nterm_subsums(s, n))
                    items[CALLS[j]][hypothesis_check(g, h, n, mode)] += 1
            count += 1
        total_mismatches += mismatches
        raised = [sum(c for cls, c in counts.items() if not cls.startswith("ok:"))
                  for counts in classes]
        print(f"# {name}: {count} instances; raised: partition {raised[0]}, "
              f"pipeline {raised[1]}, full-group {raised[2]}; "
              f"round-trip mismatches {mismatches} "
              f"({time.perf_counter() - t0:.0f}s)", file=sys.stderr)
        for call, counts in zip(CALLS, classes):
            print(f"#   {call}: " + ", ".join(f"{cls} {c}" for cls, c in sorted(counts.items())),
                  file=sys.stderr)
        print("#   Sigma_n DPs: " + ", ".join(f"{call} {c}" for call, c in zip(CALLS, dps)),
              file=sys.stderr)
        for call, counts in items.items():
            print(f"#   {call} items: " + ", ".join(f"{item} {c}" for item, c in sorted(counts.items())),
                  file=sys.stderr)
        for call, call_digest in zip(CALLS, call_digests):
            print(f"{call_digest.hexdigest()}  {name} / {call}")
        print(f"{digest.hexdigest()}  {name}")
    print("# mutant verdicts: " + ", ".join(f"{key} {c}" for key, c in sorted(verdict_counts.items())),
          file=sys.stderr)
    print(f"{verdict_digest.hexdigest()}  verdicts")
    print(overall.hexdigest())
    return 1 if total_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
