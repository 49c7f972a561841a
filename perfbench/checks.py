"""Correctness checks on workload outputs.

Every checker returns a list of problems; an empty list means the output
is correct. Each problem makes its operation count as failed.
"""

from __future__ import annotations

import json
import math

GRADCHECK_LIMIT = 1e-5
MASS_TOLERANCE = 1e-9
# The estimator's squared error norm has expectation se_norm**2, so a
# correct estimator rarely lands beyond four standard errors (Markov's
# inequality caps it at 1/16; near-normal errors at about 1e-4).
MC_SE_MULTIPLE = 4.0
# Fields of the training log that are absent (null) in modes without a reward.
OPTIONAL_LOG_FIELDS = ("mean_reward", "train_reward", "val_reward")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_exit(step: str, rc: int, stderr: str = "") -> list[str]:
    if rc == 0:
        return []
    return [f"{step}: exit code {rc}: {stderr.strip()[-300:]}"]


def check_train_log(name: str, text: str) -> list[str]:
    """Every numeric value of a training log (update and epoch lines) is finite."""
    problems = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return [f"{name}: empty training log"]
    for n, line in enumerate(lines, start=1):
        record = json.loads(line)
        for key, value in record.items():
            if key == "type" or (value is None and key in OPTIONAL_LOG_FIELDS):
                continue
            if not _finite(value):
                problems.append(f"{name}:{n}: {key}={value!r} is not finite")
    return problems


def check_report_rows(rows: list[dict], num_classes: int, models) -> list[str]:
    """Evaluation rows are present for every model and in range."""
    problems = []
    found = {row.get("model") for row in rows}
    problems += [f"report: no row for model {m}" for m in models if m not in found]
    for row in rows:
        name = row.get("model")
        missing = [key for key in ("cider", "class_similarity", "class_rank", "classifier_accuracy")
                   if not _finite(row.get(key))]
        problems += [f"report {name}: {key}={row.get(key)!r} is not finite" for key in missing]
        if missing:
            continue
        if not 1 <= row["class_rank"] <= num_classes:
            problems.append(f"report {name}: class rank {row['class_rank']} outside [1, {num_classes}]")
        if not 0 <= row["classifier_accuracy"] <= 1:
            problems.append(f"report {name}: accuracy {row['classifier_accuracy']} outside [0, 1]")
        for key in ("cider", "class_similarity"):
            if row[key] < 0:
                problems.append(f"report {name}: {key} {row[key]} is negative")
    return problems


def criterion5_orderings(rows: list[dict]) -> dict[str, bool]:
    """The acceptance-criterion-5 orderings that the walkthrough's two
    models allow. Information only: they are known to fail on some seeds."""
    by_model = {row["model"]: row for row in rows}
    expl, desc = by_model.get("explanation"), by_model.get("description")
    if expl is None or desc is None:
        return {}
    return {
        "explanation_rank_le_description": expl["class_rank"] <= desc["class_rank"],
        "explanation_similarity_ge_description":
            expl["class_similarity"] >= desc["class_similarity"],
        "explanation_accuracy_ge_description":
            expl["classifier_accuracy"] >= desc["classifier_accuracy"],
    }


def check_gradcheck(errors: list[float], expected: int = 2) -> list[str]:
    problems = []
    if len(errors) != expected:
        problems.append(f"gradcheck: expected {expected} reported errors, got {len(errors)}")
    for err in errors:
        if not (_finite(err) and err < GRADCHECK_LIMIT):
            problems.append(f"gradcheck: max relative error {err!r} not below {GRADCHECK_LIMIT}")
    return problems


def check_oracle(mass: float) -> list[str]:
    if _finite(mass) and abs(mass - 1.0) <= MASS_TOLERANCE:
        return []
    return [f"oracle: probability mass {mass!r} not within {MASS_TOLERANCE} of 1"]


def check_monte_carlo(error_norm: float, se_norm: float) -> list[str]:
    """The estimate's distance from the exact gradient is within a multiple
    of the estimator's own standard error."""
    if not (_finite(error_norm) and _finite(se_norm) and se_norm > 0):
        return [f"monte carlo: error {error_norm!r} or standard error {se_norm!r} invalid"]
    if error_norm <= MC_SE_MULTIPLE * se_norm:
        return []
    return [f"monte carlo: error norm {error_norm:.3e} exceeds "
            f"{MC_SE_MULTIPLE} x standard error {se_norm:.3e}"]


def check_score(candidate: str, cider: float, similarity: float, rank: int) -> list[str]:
    """A held-out reference scores finite, non-negative CIDEr and ranks its
    own class first."""
    problems = []
    for key, value in (("cider", cider), ("class_similarity", similarity)):
        if not (_finite(value) and value >= 0):
            problems.append(f"score '{candidate}': {key}={value!r}")
    if rank != 1:
        problems.append(f"score '{candidate}': own class ranked {rank}, expected 1")
    return problems
