"""Check that two charvol source trees give the same outputs.

    python tools/same_outputs.py PARENT CHANGE [COMMAND ...]

PARENT and CHANGE are checkouts (each with a `src/charvol`).  Each command
line (default: `COMMANDS`) runs as `python -m charvol.cli COMMAND --out out`
in a fresh process with `PYTHONPATH=<tree>/src`, in its own temporary
working directory, so the report paths printed on stdout match.  The two
sides must agree on the exit code, stdout, stderr, the set of written
files, every CSV byte for byte, and every JSON report without its
`timings` block (`charvol.cli.report_bytes_without_timings` of this
checkout).  Prints one line per command, and under a command whose JSON
reports differ, up to `SHOWN` differing key paths of each report with both
values (`differing_paths`).  Exits 1 on any difference.
"""

from __future__ import annotations

import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from charvol.cli import report_bytes_without_timings  # noqa: E402

COMMANDS = [
    "complete --spec fig8",
    "complete --spec nonhyp",
    "h1z2 --spec wlink",
    "h1z2 --spec fig8",
    "apoly --spec fig8",
    "apoly --spec wlink",
    "apoly --spec abelian",
    "apoly --spec nonhyp",
    "apoly --spec wlink --kappa '1,5;inf'",
    "apoly --spec fig8 --kappa 2,5",
    "apoly --spec wlink --kappa '1,5;1,5'",
    "fill --spec fig8 --kappa 1,5 --csv",
    "fill --spec fig8 --kappa 5,1",
    "fill --spec fig8 --kappa inf",
    "track --spec fig8 --seed 3 --csv",
    "loops --spec fig8 --loops 3 --seed 5",
    "loops --spec wlink --loops 3 --seed 5",
    "fiber --spec fig8 --kappa 1,5",
    "fiber --spec wlink --kappa '1,5;1,7'",
    "certify --spec fig8 --seed 0",
    "certify --spec fig8 --seed 7919",
    "certify --spec wlink --seed 0",
    "certify --spec wlink --seed 7919",
    "certify --spec fig8 --seed 1",
    "certify --spec nonhyp",
]

# the differing key paths shown per JSON report
SHOWN = 5

_MISSING = object()


def outputs(tree: Path, command: str) -> dict:
    """Exit code, stdout, stderr and written files of one command line."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "charvol.cli", *shlex.split(command), "--out", "out"],
            cwd=cwd, env=env, capture_output=True)
        files = {}
        for path in sorted((Path(cwd) / "out").glob("*")):
            files[path.name] = (report_bytes_without_timings(path)
                                if path.suffix == ".json" else path.read_bytes())
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def differences(a: dict, b: dict) -> list[str]:
    out = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    if a["files"].keys() != b["files"].keys():
        out.append(f"files {sorted(a['files'])} vs {sorted(b['files'])}")
    out += [name for name in a["files"]
            if name in b["files"] and a["files"][name] != b["files"][name]]
    return out


def differing_paths(a, b, path: str = ""):
    """Yield (key path, value in a, value in b) at each leaf where the JSON
    documents a and b differ, in key and index order, as in
    `report.checks[4].value`.  A key or index on one side only yields
    `_MISSING` for the other."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from differing_paths(a.get(key, _MISSING), b.get(key, _MISSING),
                                       f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue=_MISSING)):
            yield from differing_paths(x, y, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield path, a, b


def _shown(value) -> str:
    return "(missing)" if value is _MISSING else repr(value)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = Path(argv[0]), Path(argv[1])
    commands = argv[2:] or COMMANDS
    failed = 0
    for command in commands:
        a, b = outputs(parent, command), outputs(change, command)
        diff = differences(a, b)
        failed += bool(diff)
        print(f"{'DIFFERS' if diff else 'same'}  {command}"
              + (f"  ({', '.join(diff)})" if diff else ""), flush=True)
        for name in diff:
            if name.endswith(".json"):
                paths = differing_paths(json.loads(a["files"][name]), json.loads(b["files"][name]))
                for key, x, y in itertools.islice(paths, SHOWN):
                    print(f"    {name} {key}: {_shown(x)} vs {_shown(y)}", flush=True)
    print(f"{failed} of {len(commands)} command lines differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
