"""Spans smoke verifier for the CI ``observe-smoke`` job.

Checks three contracts over a pair of fleet sinks produced by
``python -m repro.fleet run`` (one spans-off, one spans-on, same cell):

1. **Baseline byte-identity** — the spans-off sink must equal the
   committed ``tests/data/psi_smoke_baseline.jsonl`` byte for byte
   (the same cell the PSI smoke runs; with every observer off the two
   jobs must produce the identical sink, so any diff is a real
   behavior change).
2. **Observer purity** — every spans-on row, minus its ``spans``
   sections, must equal the corresponding spans-off row.
3. **Exactness invariants** — per spans-on row: each tenant's span
   total equals its fault histogram's exact nanosecond sum (and the
   fault counts match), the per-segment nanoseconds sum to the total,
   and the row-level table partitions into the tenant sections.

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


def _strip_spans(row: dict) -> dict:
    out = {k: v for k, v in row.items() if k != "spans"}
    out["tenants"] = [
        {k: v for k, v in t.items() if k != "spans"} for t in row["tenants"]
    ]
    return out


def check_baseline(off_path: str, baseline_path: str) -> List[str]:
    off_bytes = pathlib.Path(off_path).read_bytes()
    base_bytes = pathlib.Path(baseline_path).read_bytes()
    if off_bytes != base_bytes:
        return [
            f"spans-off sink {off_path} differs from committed baseline "
            f"{baseline_path} ({len(off_bytes)} vs {len(base_bytes)} "
            "bytes) — spans-off behavior changed"
        ]
    return []


def check_purity(off_rows: list, on_rows: list) -> List[str]:
    failures: List[str] = []
    key = lambda r: (r["policy"], r["seed"])  # noqa: E731
    off_by_key = {key(r): r for r in off_rows}
    for row in on_rows:
        if "spans" not in row:
            failures.append(
                f"{key(row)}: spans-on row carries no spans section"
            )
            continue
        off = off_by_key.get(key(row))
        if off is None:
            failures.append(f"{key(row)}: no matching spans-off row")
            continue
        if json.dumps(_strip_spans(row), sort_keys=True) != json.dumps(
            off, sort_keys=True
        ):
            failures.append(
                f"{key(row)}: spans-on row minus spans sections differs "
                "from the spans-off row"
            )
    return failures


def check_exactness(on_rows: list) -> List[str]:
    failures: List[str] = []
    for row in on_rows:
        tag = (row["policy"], row["seed"])
        table = row.get("spans")
        if not table:
            continue
        group_total = {}
        group_faults = {}
        for t in row["tenants"]:
            ts = t.get("spans")
            if ts is None:
                failures.append(f"{tag}: tenant {t['tenant']} lacks spans")
                continue
            hist = t["fault_hist"]
            if ts["total_ns"] != hist["sum"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} span total "
                    f"{ts['total_ns']}ns != fault-histogram sum "
                    f"{hist['sum']}ns"
                )
            if ts["faults"] != hist["count"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} span fault count "
                    f"{ts['faults']} != histogram count {hist['count']}"
                )
            if sum(ts["seg_ns"].values()) != ts["total_ns"]:
                failures.append(
                    f"{tag}: tenant {t['tenant']} segment nanoseconds "
                    "do not sum to the span total"
                )
            group_total[f"t{t['tenant']}"] = ts["total_ns"]
            group_faults[f"t{t['tenant']}"] = ts["faults"]
        for name, total in group_total.items():
            if table["group_total_ns"].get(name, 0) != total:
                failures.append(
                    f"{tag}: row table group {name} total differs from "
                    "the tenant section"
                )
            if table["group_faults"].get(name, 0) != group_faults[name]:
                failures.append(
                    f"{tag}: row table group {name} fault count differs "
                    "from the tenant section"
                )
        for record in table.get("records", []):
            if sum(record["segs"].values()) != record["total_ns"]:
                failures.append(
                    f"{tag}: retained record (vpn {record['vpn']}) "
                    "segments do not sum to its total"
                )
                break
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--off", required=True, help="spans-off sink path")
    parser.add_argument("--on", required=True, help="spans-on sink path")
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
    failures += check_exactness(on_rows)

    n_faults = sum(
        r.get("spans", {}).get("n_faults", 0) for r in on_rows
    )
    if failures:
        print("SPANS SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"spans smoke OK: {len(on_rows)} spans-on rows, {n_faults} fault "
        "spans, baseline byte-identical, purity + exactness hold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
