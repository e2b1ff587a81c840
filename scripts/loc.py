#!/usr/bin/env python3
"""Counts the repository's non-test Rust lines.

usage (from anywhere in the repository):
    python3 scripts/loc.py [--rev REV]

Prints two lines: the count over `crates/`, `src/` and `examples/`
(benches included), then the same count over `compat/`. A line counts
when it belongs to a `.rs` file outside any `tests/` directory and
outside every `#[cfg(test)]` item; a file pulled in by
`#[cfg(test)] mod name;` is skipped whole. Blank and comment lines
count like any other.

Items are found by rustfmt layout, which ci.sh enforces: a
`#[cfg(test)]` item ends at the first later line that is its
indentation plus `}`, or on its own line when that line ends with `;`.

Without `--rev` the working tree is counted (tracked and untracked,
unignored files); with `--rev` the files of that git revision are read
through `git show`.
"""
import argparse
import os
import subprocess
import sys

ROOTS = ("crates/", "src/", "examples/")
COMPAT = ("compat/",)


def git(*args):
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout


def list_files(rev):
    if rev:
        out = git("ls-tree", "-r", "--name-only", rev)
    else:
        out = git("ls-files", "--cached", "--others", "--exclude-standard")
    return sorted(p for p in out.splitlines() if p.endswith(".rs"))


def read(rev, path):
    if rev:
        return git("show", f"{rev}:{path}")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return f.read()


def test_module_path(path, name):
    """The file `mod name;` declared in `path` resolves to, both forms."""
    base, stem = os.path.split(path)
    if stem not in ("lib.rs", "main.rs", "mod.rs"):
        base = os.path.join(base, stem[:-3])
    return (os.path.join(base, f"{name}.rs"),
            os.path.join(base, name, "mod.rs"))


def count(text, path, skipped):
    """Non-test lines of one file; adds `#[cfg(test)] mod name;` files
    to `skipped`."""
    lines = text.splitlines()
    kept = 0
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.strip() != "#[cfg(test)]":
            kept += 1
            i += 1
            continue
        indent = line[: len(line) - len(line.lstrip())]
        i += 1
        while i < len(lines) and lines[i].strip().startswith("#["):
            i += 1
        if i >= len(lines):
            break
        item = lines[i].strip()
        if item.endswith(";"):
            if item.startswith("mod ") or item.startswith("pub mod "):
                name = item.split()[-1].rstrip(";")
                skipped.update(test_module_path(path, name))
            i += 1
            continue
        i += 1
        while i < len(lines) and not lines[i].startswith(indent + "}"):
            i += 1
        i += 1
    return kept


def total(rev, files, roots):
    texts = {}
    for path in files:
        if not path.startswith(roots) or "tests" in path.split("/")[:-1]:
            continue
        text = read(rev, path)
        if text is not None:
            texts[path] = text
    skipped = set()
    counts = {path: count(text, path, skipped) for path, text in texts.items()}
    return sum(n for path, n in counts.items() if path not in skipped)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", help="count this git revision instead of the working tree")
    args = ap.parse_args()
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    files = list_files(args.rev)
    print(f"non-test lines (crates/, src/, examples/): {total(args.rev, files, ROOTS):,}")
    print(f"non-test lines (compat/): {total(args.rev, files, COMPAT):,}")


if __name__ == "__main__":
    sys.exit(main())
