"""Correctness checks: ground truth from the simulator, identities between paths.

Every check returns a list of problems (empty when it holds), so one run
reports everything that is wrong instead of the first thing.  Ground
truth comes from :class:`perfbench.inputs.Truth`, never from LogDiver.
"""

from __future__ import annotations

from collections import Counter

from repro.validation.goldens import canonical_json
from repro.validation.oracle import check_summary

__all__ = ["FLOORS", "confusion_problems", "window_truth",
           "window_problems", "validate_problems", "same_json"]

#: Floors on the confusion matrix of ground-truth outcome against
#: diagnosis: the share of each true outcome that must get an accepted
#: verdict, and the share of system-caused runs (system kills and launch
#: failures) whose diagnosed cause category is the true one.  Measured
#: today over seeds 0-14 and 2015: every floor of 1.0 holds exactly,
#: user failures are 0.988-1.0 diagnosed "user", cause recall 0.949-1.0.
FLOORS = {
    "completed": ({"success"}, 1.0),
    "walltime": ({"walltime"}, 1.0),
    "system_failure": ({"system", "unknown"}, 1.0),
    "launch_failure": ({"system"}, 1.0),
    "user_failure": ({"user"}, 0.95),
}
CAUSE_RECALL_FLOOR = 0.90


def confusion_problems(truth, diagnosed) -> list[str]:
    """Per-run verdicts against the truth: same runs, floors, recall."""
    problems = []
    by_apid = {d.apid: d for d in diagnosed}
    if set(by_apid) != set(truth.apid) or len(diagnosed) != len(truth):
        problems.append(f"diagnosed {len(diagnosed)} runs "
                        f"({len(set(by_apid) - set(truth.apid))} unknown "
                        f"apids), the simulator ran {len(truth)}")
    counts: Counter = Counter()
    system_caused = recalled = 0
    for apid, outcome, cause in zip(truth.apid, truth.outcome, truth.cause):
        verdict = by_apid.get(apid)
        if verdict is None:
            continue
        counts[(outcome, verdict.outcome.value)] += 1
        if outcome in ("system_failure", "launch_failure"):
            system_caused += 1
            category = verdict.category
            recalled += category is not None and category.value == cause
    for outcome, (accepted, floor) in FLOORS.items():
        total = sum(n for (o, _), n in counts.items() if o == outcome)
        good = sum(n for (o, v), n in counts.items()
                   if o == outcome and v in accepted)
        if total and good / total < floor:
            problems.append(f"{outcome}: {good}/{total} diagnosed as "
                            f"{sorted(accepted)}, floor {floor}")
    recall = recalled / system_caused if system_caused else 1.0
    if recall < CAUSE_RECALL_FLOOR:
        problems.append(f"cause recall {recall:.3f} below "
                        f"{CAUSE_RECALL_FLOOR}")
    return problems


def window_truth(truth, lo: float, hi: float) -> dict[str, int]:
    """What a windowed analyze of ``[lo, hi]`` must count, from the truth.

    A run is in the window when its end (a failed launch's only record)
    is; it is an unpaired end when it started before ``lo``, and a
    censored start when it started inside and ended after ``hi``.
    """
    runs = unpaired = censored = 0
    for start, end, outcome in zip(truth.start, truth.end, truth.outcome):
        if outcome == "launch_failure":
            runs += lo <= start <= hi
            continue
        if lo <= end <= hi:
            runs += 1
            unpaired += start < lo
        elif lo <= start <= hi and end > hi:
            censored += 1
    return {"runs": runs, "unpaired_end_runs": unpaired,
            "censored_start_runs": censored}


def window_problems(truth, window, document: dict) -> list[str]:
    expected = window_truth(truth, *window)
    result = document["result"]
    seen = {"runs": int(result["summary"]["runs"]),
            "unpaired_end_runs": result["ingest"]["unpaired_end_runs"],
            "censored_start_runs": result["ingest"]["censored_start_runs"]}
    return [f"window [{window[0]:.1f}, {window[1]:.1f}] {key}: "
            f"{seen[key]} != truth {expected[key]}"
            for key in expected if seen[key] != expected[key]]


def validate_problems(window, validate_doc: dict,
                      analyze_doc: dict) -> list[str]:
    """``/validate`` must equal the oracle applied to ``/analyze``."""
    summary = analyze_doc["result"]["summary"]
    problems = []
    if not same_json(validate_doc["summary"], summary):
        problems.append(f"window {window}: /validate summary differs "
                        f"from /analyze")
    report = check_summary(summary)
    expected = [(c.band.key, c.status) for c in report.checks]
    served = [(c["key"], c["status"]) for c in validate_doc["oracle"]["checks"]]
    if served != expected or validate_doc["oracle"]["passed"] != report.passed:
        problems.append(f"window {window}: /validate verdicts {served} "
                        f"!= check_summary {expected}")
    return problems


def same_json(a, b) -> bool:
    """Equality as canonical JSON (NaN growth factors compare equal)."""
    return canonical_json(a) == canonical_json(b)
