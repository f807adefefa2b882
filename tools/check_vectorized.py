#!/usr/bin/env python3
"""Fail unless the marked lane loops vectorize at the shipped flags.

Each SOURCE:NAME:REQ[,REQ...] argument names a translation unit, the loop
in it marked `// vector loop: NAME`, and the vectorizations it must show.
A REQ is BYTES (some function vectorized the loop with BYTES-byte vectors)
or CLONE=BYTES (the function's target_clones clone CLONE did, e.g.
avx2=32).  A loop counts as vectorized when GCC reports "loop vectorized"
or, for straight-line code, "basic block vectorized" anywhere inside the
marked loop's braces.

Each unit is recompiled with its own command from the build's
compile_commands.json (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
plus -fsave-optimization-record, whose records name the function — and so
the clone — each vectorization happened in.  GCC only.

    python3 tools/check_vectorized.py build \\
        src/batch/lane_accounting.cpp:fused-lanes:avx2=32,default=16 \\
        src/batch/lane_accounting.cpp:settled-block:avx2=32,default=16 \\
        src/batch/server_batch.cpp:plant-lanes:16
"""
import glob
import gzip
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

MARKER = re.compile(r"// vector loop: (\S+)")
VECTORIZED = re.compile(
    r"^(loop|basic block( part)?) vectorized using (\d+) byte vectors")


def marked_span(source, name):
    """First and last line of the loop marked `// vector loop: NAME`."""
    with open(source, encoding="utf-8") as f:
        lines = f.readlines()
    starts = [n for n, text in enumerate(lines)
              for m in [MARKER.search(text)] if m and m.group(1) == name]
    if len(starts) != 1:
        return None, (f"{source}: expected one '// vector loop: {name}' "
                      f"line, found {len(starts)}")
    depth, opened = 0, False
    for n in range(starts[0], len(lines)):
        code = lines[n].split("//")[0]
        depth += code.count("{") - code.count("}")
        opened = opened or "{" in code
        if opened and depth <= 0:
            return (starts[0] + 1, n + 1), None
    return None, f"{source}: the loop marked '{name}' has no closing brace"


def records(node):
    """Every optimization record in a -fsave-optimization-record tree."""
    if isinstance(node, dict):
        if "location" in node and "message" in node:
            yield node
        for child in node.get("children", []):
            yield from records(child)
    elif isinstance(node, list):
        for child in node:
            yield from records(child)


def vectorizations(entries, source):
    """(function, line, bytes) of each vectorization GCC made in `source`."""
    path = os.path.abspath(source)
    entry = next((e for e in entries if os.path.abspath(e["file"]) == path),
                 None)
    if entry is None:
        return None, f"{source}: not in compile_commands.json"
    with tempfile.TemporaryDirectory() as out:
        command = shlex.split(entry["command"])
        command[command.index("-o") + 1] = os.path.join(out, "unit.o")
        command += ["-fsave-optimization-record", "-dumpdir", out + "/"]
        result = subprocess.run(command, cwd=entry["directory"], text=True,
                                capture_output=True, check=False)
        if result.returncode != 0:
            return None, f"{source}: compile failed\n{result.stderr}"
        found = glob.glob(os.path.join(out, "*.opt-record.json.gz"))
        if len(found) != 1:
            return None, f"{source}: no optimization record written"
        with gzip.open(found[0], "rt", encoding="utf-8") as f:
            tree = json.load(f)
    done = []
    for record in records(tree):
        location = record["location"]
        if os.path.abspath(os.path.join(entry["directory"],
                                        location["file"])) != path:
            continue
        message = "".join(part for part in record["message"]
                          if isinstance(part, str))
        m = VECTORIZED.match(message)
        if m:
            done.append((record.get("function", "?"), location["line"],
                         int(m.group(3))))
    return done, None


def clone_of(function):
    """The target_clones suffix of a function (`avx2`), or None."""
    base, dot, suffix = function.rpartition(".")
    return suffix if dot and base else None


def check(entries, spec):
    parts = spec.split(":")
    if len(parts) != 3:
        return f"{spec}: expected SOURCE:NAME:REQ[,REQ...]"
    source, name, wanted = parts
    span, error = marked_span(source, name)
    if error:
        return error
    done, error = vectorizations(entries, source)
    if error:
        return error
    inside = sorted({(clone_of(f) or "-", b) for f, line, b in done
                     if span[0] <= line <= span[1]})
    label = f"{source}:{span[0]}-{span[1]} ({name})"
    shown = ", ".join(f"{c}={b}" if c != "-" else str(b) for c, b in inside)
    print(f"{label}: vectorized {shown or 'nowhere'} (need {wanted})")
    missing = []
    for req in wanted.split(","):
        clone, _, width = req.rpartition("=")
        if not any(b == int(width) and (not clone or c == clone)
                   for c, b in inside):
            missing.append(req)
    if missing:
        return f"{label}: no vectorization for {', '.join(missing)}"
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
