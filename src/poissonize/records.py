"""Deterministic result files: trial CSVs and run summaries.

Floats are written with repr (shortest round-trip form), bools as
true/false, and rows in the order given, so identical inputs produce
byte-identical CSV files across reruns and platforms.
"""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["format_value", "write_records", "write_summary"]


def format_value(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def write_records(path, records):
    """CSV writer; every record is a column -> value mapping with the same
    column set, and the first record's order is the header's."""
    records = list(records)
    if not records:
        raise ValueError("need at least one record for the header")
    columns = list(records[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            if set(record.keys()) != set(columns):
                raise ValueError("record columns do not match the header")
            writer.writerow([format_value(record[c]) for c in columns])


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_summary(path, payload):
    """Sorted-keys JSON summary; a summary may embed timings, so only the
    CSVs carry the byte-identical rerun guarantee."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=_json_default)
        handle.write("\n")
