#!/usr/bin/env python3
"""Fail unless the marked lane loops vectorize at the shipped flags.

Each SOURCE:NAME:COUNT argument names a translation unit, the loop in it
marked `// vector loop: NAME`, and how many instantiations of that loop
must report "loop vectorized" (a loop inside a function template reports
once per instantiation).  Each unit is recompiled with its own command from
the build's compile_commands.json (configure with
-DCMAKE_EXPORT_COMPILE_COMMANDS=ON) plus -fopt-info-vec-optimized, so the
check sees exactly the flags the build ships.  GCC only.

    python3 tools/check_vectorized.py build \\
        src/batch/lane_accounting.cpp:fused-lanes:2 \\
        src/batch/server_batch.cpp:plant-lanes:1
"""
import json
import os
import re
import shlex
import subprocess
import sys

MARKER = re.compile(r"// vector loop: (\S+)")


def compile_report(entries, source):
    """Stderr of one -fopt-info-vec-optimized compile, or an error string."""
    path = os.path.abspath(source)
    entry = next((e for e in entries if os.path.abspath(e["file"]) == path), None)
    if entry is None:
        return None, f"{source}: not in compile_commands.json"
    command = shlex.split(entry["command"]) + ["-fopt-info-vec-optimized"]
    result = subprocess.run(command, cwd=entry["directory"], text=True,
                            capture_output=True, check=False)
    if result.returncode != 0:
        return None, f"{source}: compile failed\n{result.stderr}"
    return result.stderr, None


def marked_line(source, name):
    """The line of the loop marked `// vector loop: NAME`."""
    with open(source, encoding="utf-8") as f:
        lines = [n for n, text in enumerate(f, 1)
                 for m in [MARKER.search(text)] if m and m.group(1) == name]
    if len(lines) != 1:
        return None, (f"{source}: expected one '// vector loop: {name}' "
                      f"line, found {len(lines)}")
    return lines[0], None


def check(entries, spec):
    parts = spec.split(":")
    if len(parts) != 3:
        return f"{spec}: expected SOURCE:NAME:COUNT"
    source, name, count = parts
    line, error = marked_line(source, name)
    if error:
        return error
    report, error = compile_report(entries, source)
    if error:
        return error
    at_line = re.compile(
        re.escape(os.path.basename(source)) + rf":{line}:\d+: "
        r"optimized: loop vectorized")
    got = sum(1 for text in report.splitlines() if at_line.search(text))
    label = f"{source}:{line} ({name})"
    print(f"{label}: loop vectorized x{got} (need {count})")
    if got < int(count):
        return f"{label}: the marked loop no longer vectorizes"
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
