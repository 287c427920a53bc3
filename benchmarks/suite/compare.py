"""Compare two result files of the suite: ``run.py --compare A B``.

One row per workload x end-to-end metric with both medians, the ratio
(base: A) and a verdict from the bound fixed in ``BENCHMARK.json``:

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``unresolved`` — not regressed, but either side's min-max spread
  exceeds the bound and the two ranges overlap, so the runs cannot tell
  "unchanged" from "changed by about the bound";
- ``ok``         — otherwise.

``fail_share`` regresses on any increase. Simulated statistics must not
move at all between two runs of the same seed: every ``sim_digest`` and
exact count that differs is listed (a change that only speeds the
simulator up must leave this list empty).
"""

from __future__ import annotations

__all__ = ["compare", "render"]

#: Units of per-layer metrics that are simulated or structural, hence
#: identical between two runs of one seed on one commit.
EXACT_UNITS = ("count", "sim_s", "B")


def _verdict(a: dict, b: dict, bound: float) -> tuple[float, str]:
    """Ratio B/A and verdict for a lower-is-better metric."""
    ratio = b["median"] / a["median"]
    if ratio > 1.0 + bound:
        return ratio, "regressed"
    wide = any(
        (side["max"] - side["min"]) / side["median"] > bound
        for side in (a, b)
    )
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if wide and overlap:
        return ratio, "unresolved"
    return ratio, "ok"


def _fail_share(entry: dict) -> float:
    return entry["failed"] / max(entry["attempted"], 1)


def compare(a: dict, b: dict, spec: dict) -> dict:
    """Rows, moved simulated statistics and the exit code."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    moved = []
    if a["manifest"]["seed"] != b["manifest"]["seed"]:
        moved.append(
            f"seeds differ ({a['manifest']['seed']} vs "
            f"{b['manifest']['seed']}): digests are not comparable"
        )
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            moved.append(f"{name}: missing from B")
            continue
        for metric, bound in bounds.items():
            side_a = entry_a["end_to_end"][metric]
            side_b = entry_b["end_to_end"][metric]
            ratio, verdict = _verdict(side_a, side_b, bound)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "a": side_a["median"],
                    "b": side_b["median"],
                    "ratio": ratio,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
        share_a, share_b = _fail_share(entry_a), _fail_share(entry_b)
        rows.append(
            {
                "workload": name,
                "metric": "fail_share",
                "a": share_a,
                "b": share_b,
                "ratio": None,
                "bound": 0.0,
                "verdict": "regressed" if share_b > share_a else "ok",
            }
        )
        for kind in ("sim_digest", "exact_counts"):
            for job in sorted(set(entry_a[kind]) | set(entry_b[kind])):
                was = entry_a[kind].get(job)
                now = entry_b[kind].get(job)
                if was != now:
                    moved.append(f"{name}/{job} {kind}: {was} -> {now}")
    exact = {
        m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS
    }
    layer_a = a.get("per_layer", {})
    layer_b = b.get("per_layer", {})
    for metric in sorted(exact & set(layer_a) & set(layer_b)):
        if layer_a[metric]["value"] != layer_b[metric]["value"]:
            moved.append(
                f"{metric}: {layer_a[metric]['value']} -> "
                f"{layer_b[metric]['value']}"
            )
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return {"rows": rows, "moved": moved, "exit_code": int(regressed)}


def render(result: dict) -> str:
    """The comparison as an aligned text table."""
    lines = [
        f"{'workload':15s} {'metric':12s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'bound':>6s}  verdict"
    ]
    for row in result["rows"]:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(
            f"{row['workload']:15s} {row['metric']:12s} "
            f"{row['a']:12.4f} {row['b']:12.4f} {ratio:>7s} "
            f"{row['bound']:6.2f}  {row['verdict']}"
        )
    counts = {
        verdict: sum(1 for row in result["rows"] if row["verdict"] == verdict)
        for verdict in ("ok", "unresolved", "regressed")
    }
    lines.append(
        f"{counts['ok']} ok, {counts['unresolved']} unresolved, "
        f"{counts['regressed']} regressed (ratios are B over A)"
    )
    if result["moved"]:
        lines.append("simulated statistics that moved:")
        lines.extend(f"  {item}" for item in result["moved"])
    else:
        lines.append("every sim_digest and exact count is unchanged")
    return "\n".join(lines)
