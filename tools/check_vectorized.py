#!/usr/bin/env python3
"""Fail unless the marked lane loops vectorize at the shipped flags.

Each SOURCE:COUNT argument names a translation unit with exactly one loop
marked `// vector loop` and how many instantiations of it must report
"loop vectorized" (a loop inside a function template reports once per
instantiation).  The unit is recompiled with its own command from the
build's compile_commands.json (configure with
-DCMAKE_EXPORT_COMPILE_COMMANDS=ON) plus -fopt-info-vec-optimized, so the
check sees exactly the flags the build ships.  GCC only.

    python3 tools/check_vectorized.py build \\
        src/batch/lane_accounting.cpp:2 src/batch/server_batch.cpp:1
"""
import json
import os
import re
import shlex
import subprocess
import sys

MARKER = "// vector loop"


def check(entries, spec):
    source, _, count = spec.rpartition(":")
    want = int(count)
    path = os.path.abspath(source)
    entry = next((e for e in entries if os.path.abspath(e["file"]) == path), None)
    if entry is None:
        return f"{source}: not in compile_commands.json"
    with open(path, encoding="utf-8") as f:
        lines = [n for n, text in enumerate(f, 1) if MARKER in text]
    if len(lines) != 1:
        return f"{source}: expected one '{MARKER}' line, found {len(lines)}"
    command = shlex.split(entry["command"]) + ["-fopt-info-vec-optimized"]
    result = subprocess.run(command, cwd=entry["directory"], text=True,
                            capture_output=True, check=False)
    if result.returncode != 0:
        return f"{source}: compile failed\n{result.stderr}"
    at_line = re.compile(
        re.escape(os.path.basename(source)) + rf":{lines[0]}:\d+: "
        r"optimized: loop vectorized")
    got = sum(1 for text in result.stderr.splitlines() if at_line.search(text))
    print(f"{source}:{lines[0]}: loop vectorized x{got} (need {want})")
    if got < want:
        return f"{source}:{lines[0]}: the marked loop no longer vectorizes"
    return None


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(argv[1], "compile_commands.json"),
              encoding="utf-8") as f:
        entries = json.load(f)
    errors = [e for e in (check(entries, spec) for spec in argv[2:]) if e]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
