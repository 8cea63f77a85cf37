"""PSI smoke verifier for the CI ``observe-smoke`` job.

Checks three contracts over a pair of fleet sinks produced by
``python -m repro.fleet run`` (one PSI-off, one PSI-on, same cell):

1. **Baseline byte-identity** — the PSI-off sink must equal the
   committed ``tests/data/psi_smoke_baseline.jsonl`` byte for byte
   (the sim is machine-independent and the sink header carries no
   timestamps, so any diff is a real behavior change).
2. **Observer purity** — every PSI-on row, minus its ``psi``
   sections, must equal the corresponding PSI-off row.
3. **Pressure invariants** — per PSI-on row: the sampled
   ``some/full`` totals are non-decreasing, ``full <= some`` at every
   tick and in the trial-end snapshot, ``avg10`` values are
   percentages in [0, 100], and each tenant's violation-stall overlap
   is bounded by both of its operands.

Exits non-zero with a list of violations on any failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.fleet.sink import load_rows  # noqa: E402


def _strip_psi(row: dict) -> dict:
    out = {k: v for k, v in row.items() if k != "psi"}
    out["tenants"] = [
        {k: v for k, v in t.items() if k != "psi"} for t in row["tenants"]
    ]
    return out


def check_baseline(off_path: str, baseline_path: str) -> List[str]:
    off_bytes = pathlib.Path(off_path).read_bytes()
    base_bytes = pathlib.Path(baseline_path).read_bytes()
    if off_bytes != base_bytes:
        return [
            f"PSI-off sink {off_path} differs from committed baseline "
            f"{baseline_path} ({len(off_bytes)} vs {len(base_bytes)} "
            "bytes) — PSI-off behavior changed"
        ]
    return []


def check_purity(off_rows: list, on_rows: list) -> List[str]:
    failures: List[str] = []
    key = lambda r: (r["policy"], r["seed"])  # noqa: E731
    off_by_key = {key(r): r for r in off_rows}
    for row in on_rows:
        if "psi" not in row:
            failures.append(
                f"{key(row)}: PSI-on row carries no psi section"
            )
            continue
        off = off_by_key.get(key(row))
        if off is None:
            failures.append(f"{key(row)}: no matching PSI-off row")
            continue
        if json.dumps(_strip_psi(row), sort_keys=True) != json.dumps(
            off, sort_keys=True
        ):
            failures.append(
                f"{key(row)}: PSI-on row minus psi sections differs "
                "from the PSI-off row"
            )
    return failures


def check_invariants(on_rows: list) -> List[str]:
    failures: List[str] = []
    for row in on_rows:
        tag = (row["policy"], row["seed"])
        psi = row.get("psi")
        if not psi:
            continue
        prev_t = prev_some = prev_full = -1
        for t, some_ns, full_ns, avg10, favg10 in psi["samples"]:
            if t <= prev_t:
                failures.append(f"{tag}: sample times not increasing")
                break
            if some_ns < prev_some or full_ns < prev_full:
                failures.append(f"{tag}: stall totals decreased")
                break
            if full_ns > some_ns:
                failures.append(f"{tag}: full stall exceeds some")
                break
            if not (0.0 <= avg10 <= 100.0 and 0.0 <= favg10 <= 100.0):
                failures.append(f"{tag}: avg10 outside [0, 100]")
                break
            prev_t, prev_some, prev_full = t, some_ns, full_ns
        system = psi["system"]
        if system["full_total_us"] > system["some_total_us"]:
            failures.append(f"{tag}: final full total exceeds some")
        for t in row["tenants"]:
            tp = t.get("psi")
            if tp is None:
                failures.append(f"{tag}: tenant {t['tenant']} lacks psi")
                continue
            if not (0 <= tp["viol_stall_ns"] <= tp["viol_ns"]):
                failures.append(
                    f"{tag}: tenant {t['tenant']} viol_stall_ns outside "
                    "[0, viol_ns]"
                )
            if tp["viol_stall_ns"] > tp["stall_ns"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} viol_stall_ns exceeds "
                    "stall_ns"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--off", required=True, help="PSI-off sink path")
    parser.add_argument("--on", required=True, help="PSI-on sink path")
    parser.add_argument(
        "--baseline",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "tests"
            / "data"
            / "psi_smoke_baseline.jsonl"
        ),
    )
    args = parser.parse_args(argv)

    failures = check_baseline(args.off, args.baseline)
    _, off_rows = load_rows(args.off)
    _, on_rows = load_rows(args.on)
    failures += check_purity(off_rows, on_rows)
    failures += check_invariants(on_rows)

    n_samples = sum(len(r.get("psi", {}).get("samples", []))
                    for r in on_rows)
    if failures:
        print("PSI SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"psi smoke OK: {len(on_rows)} PSI-on rows, {n_samples} sampler "
        "ticks, baseline byte-identical, purity + invariants hold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
