"""Output checks.

Every job must reproduce the SHA-256 of stdout and the exit code pinned in
expected.json.  A seeded graph is a fixed pool graph under a seeded
relabeling, and a verify report does not change under relabeling, so its
pin holds for every seed.  Seeded jobs print JSON verify reports, which are
also checked by invariants that hold for any input graph:

* blocks * stabilizer_order = |K| = m! n! for D, and |G| = 2 (m!)^2 for Dhat;
* lambda_t * C(v, t) = blocks * C(k, t) for every positive verdict;
* the exit code is the verdict the report states;
* with --with-oracle, the oracle's is_design equals the criteria verdict for
  each group, its block count equals the criteria's, and its histogram
  covers all C(v, t) t-subsets, Σ coverage = blocks * C(k, t) times.
"""

from __future__ import annotations

import json
from math import comb, factorial

T = 3  # every seeded job verifies t = 3


def check(job, code: int, sha256: str, stdout: str | None, pinned: dict) -> str | None:
    """None when the output is right, else what is wrong.  stdout is needed
    only for seeded jobs; fixed jobs are judged by its SHA-256 alone."""
    want = pinned.get(job.id)
    if want is None:
        return "no pinned output for this job"
    got = {"code": code, "sha256": sha256}
    if got != want:
        return f"got {got}, pinned {want}"
    if job.check == "fixed":
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    return _check_report(job, code, report)


def _check_report(job, code: int, rep: dict) -> str | None:
    m, n, k = job.shape
    if (rep["m"], rep["n"], rep["k"]) != (m, n, k):
        return f"report is for {rep['m']}x{rep['n']} k={rep['k']}, graph is {m}x{n} k={k}"
    v = m * n
    designs = {"K": (rep["d"], factorial(m) * factorial(n))}
    if "dhat" in rep:
        designs["G"] = (rep["dhat"], 2 * factorial(m) ** 2)
    for group, (part, order) in designs.items():
        blocks = int(part["blocks"])
        if blocks * int(part["stabilizer_order"]) != order:
            return f"{group}: blocks * stabilizer_order != {order}"
        for t in (2, 3):
            lam = part[f"lambda_{t}"]
            if part[f"is_{t}design"] != (lam is not None):
                return f"{group}: lambda_{t} present iff {t}-design fails"
            if lam is not None and int(lam) * comb(v, t) != blocks * comb(k, t):
                return f"{group}: lambda_{t} * C(v,{t}) != blocks * C(k,{t})"
    verdict = designs["K"][0][f"is_{T}design"]
    if job.group == "both":
        verdict = verdict or designs["G"][0][f"is_{T}design"]
    if code != (0 if verdict else 1):
        return f"exit code {code} disagrees with the reported verdict"
    if job.check == "crosscheck":
        groups = ["K", "G"] if job.group == "both" else [job.group]
        if sorted(rep.get("oracle", {})) != sorted(groups):
            return f"oracle ran for {sorted(rep.get('oracle', {}))}, expected {groups}"
        for group in groups:
            part = designs[group][0]
            orc = rep["oracle"][group]
            if orc["is_design"] != part[f"is_{T}design"]:
                return f"{group}: oracle is_design != criteria is_{T}design"
            blocks = int(part["blocks"])
            if orc["blocks"] != blocks:
                return f"{group}: oracle has {orc['blocks']} blocks, criteria {blocks}"
            hist = {int(c): num for c, num in orc["histogram"].items()}
            if sum(hist.values()) != comb(v, T):
                return f"{group}: histogram does not cover C(v,{T}) subsets"
            if sum(c * num for c, num in hist.items()) != blocks * comb(k, T):
                return f"{group}: coverage sum != blocks * C(k,{T})"
    return None
