#!/usr/bin/env python3
"""CI gate over the committed BENCH_*.json bench contracts.

Compares a freshly produced bench JSON against the committed baseline and
fails (exit 1) on any of:

  schema      the candidate must carry exactly the baseline's top-level
              keys, the keys of any nested object, and the baseline's row
              keys in every row, each value with the baseline's JSON type
              (number, bool, string, null, object, list);
  invariants  each bench's own claims (recall floors, bit-identity flags,
              cost orderings, ...) must hold on the candidate;
  regression  per matched row, higher-better fields may fall and
              lower-better fields may rise by at most the tolerance
              (default 20%), and exact fields must match the baseline.

Gated values are ratios and counters that are stable across machines, never
raw milliseconds. Rows are matched by a per-bench key; a candidate may cover
a subset of the baseline rows (smoke sizing), but at least one row must
match. Checking a committed baseline against itself checks its schema and
invariants.

Usage:
  check_bench_regression.py --baseline BENCH_gp_refit.json \\
      --candidate build/BENCH_gp_refit.json [--tolerance 0.20]
  check_bench_regression.py --selftest

--selftest proves the gate can fail: it injects a 25% regression, a flipped
exact field, a missing key, an extra key and a broken invariant into copies
of fabricated baselines and asserts each is rejected while the unmodified
copies pass.
"""

import argparse
import copy
import json
import sys

TOLERANCE_DEFAULT = 0.20


def rows(text, predicate):
    """An invariant every result row must satisfy."""
    return (text, "row", predicate)


def whole(text, predicate):
    """An invariant over the whole document."""
    return (text, "doc", predicate)


def field_set(doc, field):
    return {r[field] for r in doc["results"]}


def risk_le_samp(doc):
    cost = {
        (r["workload"], r["alpha"], r["beta"], r["optimizer"]):
            r["mean_cost_fraction"]
        for r in doc["results"]
    }
    return all(
        cost[(w, a, b, "RISK")] <= cost[(w, a, b, "SAMP")] + 1e-12
        for (w, a, b, o) in cost
        if o == "SAMP"
    )


# bench name -> row key, gated fields and invariants. "higher"/"lower" are
# ratio-gated at the tolerance, "exact" must equal the baseline.
CONTRACTS = {
    "micro_gp_refit": {
        "key": ("n",),
        "higher": ("refit_speedup", "predict_speedup"),
        "lower": (),
        "exact": (),
        "invariants": (),
    },
    "streaming": {
        "key": ("workload", "mode", "certifier", "shards", "order", "pairs"),
        "higher": ("reused_answers",),
        "lower": ("cost_ratio",),
        "exact": ("identical_labels",),
        "invariants": (
            whole("modes are certify_once and recertify",
                  lambda d: field_set(d, "mode")
                  == {"certify_once", "recertify"}),
            whole("certifiers are SAMP and RISK",
                  lambda d: field_set(d, "certifier") == {"SAMP", "RISK"}),
            rows("certify_once SAMP rows: identical labels, "
                 "streaming_cost <= oneshot_cost",
                 lambda r: (r["mode"], r["certifier"])
                 != ("certify_once", "SAMP")
                 or (r["identical_labels"] is True
                     and r["streaming_cost"] <= r["oneshot_cost"])),
        ),
    },
    "scale": {
        "key": ("scale",),
        "higher": ("build_speedup", "partition_speedup"),
        "lower": (),
        "exact": ("samp_cost", "block_pairs"),
        "invariants": (),
    },
    "records_scale": {
        "key": ("scale",),
        "higher": ("simd_speedup", "lsh_recall"),
        "lower": (),
        "exact": ("lsh_pairs", "samp_cost", "scores_identical"),
        "invariants": (
            rows("scores_identical == 1", lambda r: r["scores_identical"] == 1),
            rows("lsh_recall >= 0.95", lambda r: r["lsh_recall"] >= 0.95),
            whole("mmap.verified_against_ram == 1",
                  lambda d: d["mmap"]["verified_against_ram"] == 1),
        ),
    },
    "serving": {
        "key": ("workload", "pairs", "shards", "readers"),
        "higher": ("lookups_per_sec",),
        "lower": (),
        "exact": ("drained_equals_synchronous", "snapshots_consistent"),
        "invariants": (
            rows("drained_equals_synchronous",
                 lambda r: r["drained_equals_synchronous"] is True),
            rows("snapshots_consistent",
                 lambda r: r["snapshots_consistent"] is True),
            rows("lookups_per_sec >= 1000000",
                 lambda r: r["lookups_per_sec"] >= 1000000),
        ),
    },
    "entities": {
        "key": ("pairs",),
        "higher": ("cluster_mpairs_per_sec",),
        "lower": (),
        "exact": (
            "records",
            "entities",
            "disagreements_before",
            "disagreements_after",
            "exact_recovery",
            "repaired_transitive",
            "thread_invariant",
        ),
        "invariants": (
            rows("exact_recovery", lambda r: r["exact_recovery"] is True),
            rows("repaired_transitive",
                 lambda r: r["repaired_transitive"] is True),
            rows("thread_invariant", lambda r: r["thread_invariant"] is True),
            rows("disagreements_after <= disagreements_before",
                 lambda r: r["disagreements_after"]
                 <= r["disagreements_before"]),
        ),
    },
    "crowd": {
        "key": ("workload", "certifier", "pairs"),
        # DS/AB rows carry inferred_fraction 0 (degree-1 records, nothing
        # to infer); the b > 0 guard keeps them out of the ratio check and
        # the ENT rows gate at the standard 20% tolerance.
        "higher": ("inferred_fraction", "task_reduction"),
        "lower": (),
        "exact": ("tasks_le_questions", "certified", "thread_invariant"),
        "invariants": (
            whole("six rows: {DS, AB, ENT} x {SAMP, RISK}",
                  lambda d: len(d["results"]) == 6
                  and {(r["workload"], r["certifier"])
                       for r in d["results"]}
                  == {(w, c) for w in ("DS", "AB", "ENT")
                      for c in ("SAMP", "RISK")}),
            rows("certified", lambda r: r["certified"] is True),
            rows("tasks_le_questions",
                 lambda r: r["tasks_le_questions"] is True),
            rows("thread_invariant", lambda r: r["thread_invariant"] is True),
            rows("task_reduction >= 0.20",
                 lambda r: r["task_reduction"] >= 0.20),
            rows("pairs_purchased + pairs_inferred == questions",
                 lambda r: r["pairs_purchased"] + r["pairs_inferred"]
                 == r["questions"]),
            rows("DS/AB rows infer nothing (degree-1 records)",
                 lambda r: r["workload"] == "ENT" or r["pairs_inferred"] == 0),
        ),
    },
    "risk_vs_humo": {
        "key": ("workload", "alpha", "beta", "optimizer"),
        "higher": (),
        "lower": (),
        "exact": (),
        "invariants": (
            whole("all five optimizers present",
                  lambda d: field_set(d, "optimizer")
                  == {"BASE", "SAMP", "HYBR", "RISK", "HYBR_RISK"}),
            whole("RISK <= SAMP mean_cost_fraction per cell", risk_le_samp),
        ),
    },
}


def load(path):
    with open(path) as f:
        return json.load(f)


def row_key(row, fields):
    return tuple(row.get(f) for f in fields)


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return {str: "string", dict: "object", list: "list"}[type(value)]


def schema_violations(base, cand, where):
    """Key-set and JSON-type differences of `cand` against `base`."""
    if json_type(base) != json_type(cand):
        return ["%s: %s in the baseline, %s in the candidate"
                % (where, json_type(base), json_type(cand))]
    if isinstance(base, list):
        if not base:
            return []
        out = []
        for i, row in enumerate(cand):
            out += schema_violations(base[0], row, "%s[%d]" % (where, i))
        return out
    if not isinstance(base, dict):
        return []
    out = ["%s: missing key %r" % (where, k) for k in base if k not in cand]
    out += ["%s: extra key %r" % (where, k) for k in cand if k not in base]
    for k in base:
        if k in cand:
            out += schema_violations(base[k], cand[k], "%s.%s" % (where, k))
    return out


def invariant_violations(bench, contract, doc):
    out = []
    for text, scope, predicate in contract["invariants"]:
        targets = doc.get("results", []) if scope == "row" else [doc]
        for target in targets:
            try:
                holds = predicate(target)
            except (KeyError, TypeError):
                holds = False
            if not holds:
                where = ("row %s" % dict(zip(contract["key"],
                                             row_key(target, contract["key"])))
                         if scope == "row" else "document")
                out.append("%s: invariant %r broken on %s"
                           % (bench, text, where))
    return out


def compare(baseline, candidate, tolerance):
    """Returns a list of violation strings (empty = gate passes)."""
    bench = baseline.get("bench")
    if bench != candidate.get("bench"):
        return [
            "bench mismatch: baseline %r vs candidate %r"
            % (bench, candidate.get("bench"))
        ]
    contract = CONTRACTS.get(bench)
    if contract is None:
        return ["no contract registered for bench %r" % bench]

    violations = schema_violations(baseline, candidate, bench)
    if violations:
        return violations
    violations = invariant_violations(bench, contract, candidate)

    base_rows = {
        row_key(r, contract["key"]): r for r in baseline.get("results", [])
    }
    matched = 0
    for row in candidate.get("results", []):
        key = row_key(row, contract["key"])
        base = base_rows.get(key)
        if base is None:
            continue  # smoke config measuring a row the baseline lacks
        matched += 1
        label = "%s %s" % (bench, dict(zip(contract["key"], key)))
        for field in contract["higher"]:
            b, c = base[field], row[field]
            if b > 0 and c < b * (1.0 - tolerance):
                violations.append(
                    "%s: %s regressed %.3f -> %.3f (>%.0f%% below baseline)"
                    % (label, field, b, c, tolerance * 100)
                )
        for field in contract["lower"]:
            b, c = base[field], row[field]
            if c > b * (1.0 + tolerance):
                violations.append(
                    "%s: %s regressed %.3f -> %.3f (>%.0f%% above baseline)"
                    % (label, field, b, c, tolerance * 100)
                )
        for field in contract["exact"]:
            b, c = base[field], row[field]
            if b != c:
                violations.append(
                    "%s: %s changed exactly-pinned value %r -> %r"
                    % (label, field, b, c)
                )
    if matched == 0:
        violations.append(
            "no candidate row matched any baseline row (keys: %s)"
            % (contract["key"],)
        )
    return violations


def selftest():
    def passes(base, cand):
        return compare(base, cand, TOLERANCE_DEFAULT) == []

    def mutated(base, mutate):
        cand = copy.deepcopy(base)
        mutate(cand)
        return cand

    gp = {
        "bench": "micro_gp_refit",
        "threads": 1,
        "results": [
            {"n": 64, "refit_speedup": 120.0, "predict_speedup": 2.0},
            {"n": 128, "refit_speedup": 250.0, "predict_speedup": 2.6},
        ],
    }
    assert passes(gp, copy.deepcopy(gp)), "identical run must pass"

    def scale_refit(factor):
        return lambda d: d["results"][0].update(
            refit_speedup=d["results"][0]["refit_speedup"] * factor)

    assert not passes(gp, mutated(gp, scale_refit(0.75))), (
        "a 25% regression must be rejected")
    assert passes(gp, mutated(gp, scale_refit(0.85))), (
        "a 15% wobble must pass at 20% tolerance")
    assert not passes(gp, mutated(
        gp, lambda d: d["results"][1].pop("predict_speedup"))), (
        "a missing row key must be rejected")
    assert not passes(gp, mutated(gp, lambda d: d.pop("threads"))), (
        "a missing top-level key must be rejected")
    assert not passes(gp, mutated(
        gp, lambda d: d["results"][0].update(extra_ms=1.0))), (
        "an extra row key must be rejected")
    assert not passes(gp, mutated(gp, lambda d: d.update(extra=1))), (
        "an extra top-level key must be rejected")

    streaming = {
        "bench": "streaming",
        "results": [
            {
                "workload": "DS",
                "mode": mode,
                "certifier": certifier,
                "shards": 4,
                "order": "shuffled",
                "pairs": 20000,
                "oneshot_cost": 20000,
                "streaming_cost": 20000,
                "cost_ratio": 1.0,
                "reused_answers": 0,
                "identical_labels": True,
            }
            for mode in ("certify_once", "recertify")
            for certifier in ("SAMP", "RISK")
        ],
    }
    assert passes(streaming, copy.deepcopy(streaming)), (
        "clean streaming run must pass")
    assert not passes(streaming, mutated(
        streaming, lambda d: d["results"][0].update(cost_ratio=1.3))), (
        "a lower-better field rising 30% must be rejected")
    assert not passes(streaming, mutated(
        streaming, lambda d: d["results"][0].update(identical_labels=False))), (
        "an exact field flip must be rejected")
    assert not passes(streaming, mutated(
        streaming, lambda d: d["results"][0].update(identical_labels=1))), (
        "a bool field turned number must be rejected")
    overspent = mutated(streaming, lambda d: [
        r.update(streaming_cost=20001, oneshot_cost=20000)
        for r in d["results"]])
    assert not passes(overspent, copy.deepcopy(overspent)), (
        "a broken invariant must be rejected even against itself")

    risk = {
        "bench": "risk_vs_humo",
        "results": [
            {"workload": "DS", "alpha": 0.9, "beta": 0.9, "optimizer": o,
             "mean_cost_fraction": c}
            for o, c in (("BASE", 0.2), ("SAMP", 1.0), ("HYBR", 0.5),
                         ("RISK", 0.4), ("HYBR_RISK", 0.45))
        ],
    }
    assert passes(risk, copy.deepcopy(risk)), "clean risk run must pass"
    assert not passes(risk, mutated(
        risk, lambda d: d["results"][3].update(mean_cost_fraction=1.01))), (
        "RISK costing more than SAMP must be rejected")
    assert not passes(risk, mutated(
        risk, lambda d: d["results"].pop(4))), (
        "a missing optimizer must be rejected")

    print("selftest OK: gate rejects injected regressions, schema drift and "
          "broken invariants, and passes clean runs")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_*.json")
    parser.add_argument("--candidate", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE_DEFAULT,
        help="allowed relative regression (default 0.20)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="verify the gate rejects injected regressions and schema drift",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required")

    violations = compare(load(args.baseline), load(args.candidate),
                         args.tolerance)
    if violations:
        print("BENCH CONTRACT GATE FAILED (%d violation%s):"
              % (len(violations), "s" if len(violations) != 1 else ""))
        for v in violations:
            print("  - " + v)
        return 1
    print(
        "perf gate OK: %s within %.0f%% of baseline %s"
        % (args.candidate, args.tolerance * 100, args.baseline)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
