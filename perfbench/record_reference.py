"""Record reference.json: the header and (row key, bound_value) of every checked command.

Run from the repository root, only when the expected outputs change on
purpose:

    PYTHONPATH=src python3 perfbench/record_reference.py

Bound values do not depend on the simulation seed, so the seeded validate
command is recorded at seed 1.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json

import checks
import workloads
from sncalc.cli import main as cli_main
from sncalc.scenario import CSV_HEADER


def main() -> None:
    commands = {}
    for workload in workloads.WORKLOADS.values():
        for command in workload.commands(1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(list(command.argv))
            if code != 0:
                raise SystemExit(f"{command.ref}: exit code {code}")
            commands[command.ref] = [
                {"key": checks.row_key(row), "bound_value": float(row["bound_value"])}
                for row in csv.DictReader(io.StringIO(out.getvalue()))
            ]
    blocks = [f" {json.dumps(ref)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
              for ref, rows in commands.items()]
    text = (f'{{"header": {json.dumps(",".join(CSV_HEADER))},\n"commands": {{\n'
            + ",\n".join(blocks) + "\n}}\n")
    checks.REFERENCE_FILE.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
