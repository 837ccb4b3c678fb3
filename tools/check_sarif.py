#!/usr/bin/env python3
"""Structural validator for the SARIF 2.1.0 files cnd_analyze emits
(docs/STATIC_ANALYSIS.md).

Stdlib-only on purpose: CI and the ctest `lint` label run it with a bare
python3, no jsonschema install. It checks the subset of the SARIF 2.1.0
schema the emitter uses — the fields GitHub code scanning actually
requires to render a finding — so a malformed writer fails the selftests
here instead of silently uploading an empty report.

Usage:
  check_sarif.py <file.sarif> [--require-results]

Exit codes: 0 valid; 1 structurally invalid (problems listed on stderr);
2 unreadable file / not JSON.
"""

from __future__ import annotations

import argparse
import json
import sys


def fail(problems: list[str], path: str) -> int:
    for p in problems:
        print(f"check_sarif: {path}: {p}", file=sys.stderr)
    return 1


def validate(doc: object, require_results: bool) -> list[str]:
    problems: list[str] = []

    def need(cond: bool, what: str) -> bool:
        if not cond:
            problems.append(what)
        return cond

    if not need(isinstance(doc, dict), "top level is not an object"):
        return problems
    need(doc.get("version") == "2.1.0",
         f"version is {doc.get('version')!r}, expected '2.1.0'")
    need(isinstance(doc.get("$schema"), str) and "sarif-2.1.0" in doc["$schema"],
         "$schema missing or not the SARIF 2.1.0 schema")
    runs = doc.get("runs")
    if not need(isinstance(runs, list) and runs, "runs is not a non-empty array"):
        return problems

    total_results = 0
    for ri, run in enumerate(runs):
        where = f"runs[{ri}]"
        if not need(isinstance(run, dict), f"{where} is not an object"):
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(run.get("tool"), dict) else None
        if need(isinstance(driver, dict), f"{where}.tool.driver missing"):
            need(isinstance(driver.get("name"), str) and driver["name"],
                 f"{where}.tool.driver.name missing")
            rules = driver.get("rules", [])
            need(isinstance(rules, list), f"{where}.tool.driver.rules is not an array")
            rule_ids = set()
            for pi, rule in enumerate(rules if isinstance(rules, list) else []):
                rw = f"{where}.tool.driver.rules[{pi}]"
                if not need(isinstance(rule, dict) and isinstance(rule.get("id"), str),
                            f"{rw}.id missing"):
                    continue
                rule_ids.add(rule["id"])
                short = rule.get("shortDescription")
                need(isinstance(short, dict) and isinstance(short.get("text"), str),
                     f"{rw}.shortDescription.text missing")
        else:
            rule_ids = set()

        results = run.get("results")
        if not need(isinstance(results, list), f"{where}.results is not an array"):
            continue
        total_results += len(results)
        for si, res in enumerate(results):
            sw = f"{where}.results[{si}]"
            if not need(isinstance(res, dict), f"{sw} is not an object"):
                continue
            need(isinstance(res.get("ruleId"), str) and res["ruleId"],
                 f"{sw}.ruleId missing")
            if rule_ids and isinstance(res.get("ruleId"), str):
                need(res["ruleId"] in rule_ids,
                     f"{sw}.ruleId {res['ruleId']!r} is not in the driver's rules")
            need(res.get("level") in ("error", "warning", "note", "none"),
                 f"{sw}.level {res.get('level')!r} is not a SARIF level")
            msg = res.get("message")
            need(isinstance(msg, dict) and isinstance(msg.get("text"), str)
                 and msg["text"], f"{sw}.message.text missing")
            locs = res.get("locations")
            if not need(isinstance(locs, list) and locs,
                        f"{sw}.locations is not a non-empty array"):
                continue
            phys = locs[0].get("physicalLocation") if isinstance(locs[0], dict) else None
            if need(isinstance(phys, dict), f"{sw}.locations[0].physicalLocation missing"):
                art = phys.get("artifactLocation")
                need(isinstance(art, dict) and isinstance(art.get("uri"), str)
                     and art["uri"], f"{sw}...artifactLocation.uri missing")
                region = phys.get("region")
                need(isinstance(region, dict)
                     and isinstance(region.get("startLine"), int)
                     and region["startLine"] >= 1,
                     f"{sw}...region.startLine missing or < 1")

    if require_results:
        need(total_results > 0,
             "--require-results: no results in any run (emitter produced an "
             "empty report?)")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sarif", help="SARIF file to validate")
    ap.add_argument("--require-results", action="store_true",
                    help="fail unless at least one result is present "
                    "(for selftest corpora, which always have findings)")
    args = ap.parse_args()

    try:
        with open(args.sarif, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_sarif: {args.sarif}: {e}", file=sys.stderr)
        return 2

    problems = validate(doc, args.require_results)
    if problems:
        return fail(problems, args.sarif)
    runs = doc["runs"]
    names = ", ".join(r["tool"]["driver"]["name"] for r in runs)
    results = sum(len(r["results"]) for r in runs)
    print(f"check_sarif: {args.sarif}: valid ({len(runs)} run(s) [{names}], "
          f"{results} result(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
