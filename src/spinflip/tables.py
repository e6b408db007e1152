"""Deterministic tabular output.

A table is built once from whole columns, ``OutputTable.of({name: values},
meta)``, and rendered as CSV or JSON; the JSON ``rows`` hold the same values
as the CSV rows.  Tables carry their configuration in the header (echo +
content hash) so any output file can be reproduced exactly; numbers are
serialized with 17 significant digits, making CSV round trips bit-exact.  No
timestamps: equal configs must give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


def config_hash(config: dict) -> str:
    """Git-style content hash (sha1 over a canonical blob) of a config tree."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


@dataclass
class OutputTable:
    """Named columns, row-major records, '#'-prefixed header metadata."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @classmethod
    def of(cls, columns: dict, meta: dict | None = None) -> OutputTable:
        """The table of columns, {name: values}; ValueError if their lengths differ."""
        return cls(list(columns), list(zip(*columns.values(), strict=True)), meta or {})

    def to_csv(self) -> str:
        lines = [f"# {k}: {v}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        # one %-template per tuple of value types: "%.17g" % x formats a
        # float (numpy's float64 too) as format(x, ".17g") does, "%s" as str
        templates = {}
        for row in self.rows:
            kinds = tuple(map(type, row))
            if kinds not in templates:
                templates[kinds] = ",".join(
                    "%.17g" if issubclass(k, float) else "%s" for k in kinds)
            lines.append(templates[kinds] % tuple(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {"meta": self.meta, "columns": self.columns, "rows": self.rows}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")
