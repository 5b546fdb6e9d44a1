#!/usr/bin/env python3
"""Checks that relative links in the repo's markdown files resolve.

Scope is deliberately narrow so CI needs no network: only inline links
and images whose target is a relative path are verified against the
working tree. http(s)/mailto targets and pure #fragment anchors are
skipped.

Additionally cross-checks EXPERIMENTS.md against the bench binaries:
every `.../bench/bench_<name>` command mentioned must correspond to a
`bench/bench_<name>.cc` source (the binary name equals the source stem),
and every bench source must be mentioned at least once — so the command
index can neither drift ahead of the build nor silently omit a bench.

Finally, every backticked `Type::member` and every backticked snake_case
identifier (one containing an underscore) in the design docs must name
code that exists: each of its `::`-separated parts must occur as a whole
word under src/, bench/, tests/, examples/, perfbench/ or tools/, or in
ci.sh or the top-level CMake files. A doc that still names a retired
option field or helper therefore fails.

Exit status is the number of problems (capped at 1).
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {".git", "build", "build-asan", "build-noobs", "third_party"}

# Inline [text](target) / ![alt](target); target ends at the first
# unescaped ')' or whitespace (titles like (file.md "x") are handled).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# Fenced code blocks are stripped before link extraction.
FENCE_RE = re.compile(r"^(```|~~~)")
# Bench invocations: `./build/bench/bench_foo`, `build-asan/bench/bench_foo`.
# These appear in tables AND fenced command blocks, so the whole file is
# scanned (unlike links, where fences are skipped).
BENCH_RE = re.compile(r"[\w.-]*build[\w-]*/bench/(bench_\w+)")
# Docs whose backticked identifiers must name existing code, and where
# that code may live.
IDENT_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
              os.path.join(".claude", "skills", "verify", "SKILL.md")]
IDENT_DIRS = ["src", "bench", "tests", "examples", "perfbench", "tools"]
IDENT_FILES = ["ci.sh", "CMakeLists.txt", "CMakePresets.json"]
# A whole backtick span that is `Type::member` or snake_case with an
# underscore.
SPAN_RE = re.compile(r"`([^`]+)`")
IDENT_RE = re.compile(r"[A-Za-z_]\w*::\w+|[a-z0-9]*_[a-z0-9_]*")


def markdown_files():
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def links_in(path):
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for m in LINK_RE.finditer(line):
                yield lineno, m.group(1)


def check_bench_index():
    """EXPERIMENTS.md command-index entries <-> bench/*.cc sources."""
    problems = []
    experiments = os.path.join(ROOT, "EXPERIMENTS.md")
    bench_dir = os.path.join(ROOT, "bench")
    if not os.path.exists(experiments) or not os.path.isdir(bench_dir):
        return problems
    sources = {
        name[:-len(".cc")]
        for name in os.listdir(bench_dir)
        if name.startswith("bench_") and name.endswith(".cc")
    }
    mentioned = {}
    with open(experiments, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for m in BENCH_RE.finditer(line):
                mentioned.setdefault(m.group(1), lineno)
    for name, lineno in sorted(mentioned.items()):
        if name not in sources:
            problems.append(
                f"EXPERIMENTS.md:{lineno}: references {name} but "
                f"bench/{name}.cc does not exist")
    for name in sorted(sources - set(mentioned)):
        problems.append(
            f"EXPERIMENTS.md: bench/{name}.cc has no command-index entry "
            f"(no build/bench/{name} mention)")
    return problems


def code_words():
    """Every \\w+ word of the files doc identifiers may name."""
    paths = [os.path.join(ROOT, name) for name in IDENT_FILES]
    for top in IDENT_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            paths.extend(os.path.join(dirpath, name) for name in filenames)
    words = set()
    for path in paths:
        if os.path.exists(path):
            with open(path, encoding="utf-8", errors="replace") as f:
                words.update(re.findall(r"\w+", f.read()))
    return words


def check_doc_identifiers():
    """Backticked identifiers in IDENT_DOCS <-> words of the code."""
    problems = []
    words = code_words()
    checked = set()
    for doc in IDENT_DOCS:
        path = os.path.join(ROOT, doc)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for m in SPAN_RE.finditer(line):
                    token = m.group(1)
                    if not IDENT_RE.fullmatch(token):
                        continue
                    checked.add(token)
                    missing = [p for p in token.split("::") if p not in words]
                    if missing:
                        problems.append(
                            f"{doc}:{lineno}: `{token}` names no code "
                            f"('{missing[0]}' is in no source tree, "
                            f"ci.sh or CMake file)")
    return problems, len(checked)


def main():
    broken = []
    for md in markdown_files():
        for lineno, target in links_in(md):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            # Strip a trailing #section anchor from file targets.
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(md), file_part))
            if not os.path.exists(resolved):
                rel_md = os.path.relpath(md, ROOT)
                broken.append(f"{rel_md}:{lineno}: broken link -> {target}")
    bench_problems = check_bench_index()
    ident_problems, idents = check_doc_identifiers()
    for b in broken + bench_problems + ident_problems:
        print(b)
    count = sum(1 for md in markdown_files())
    print(f"checked {count} markdown files, {len(broken)} broken links, "
          f"{len(bench_problems)} bench-index problems, "
          f"{len(ident_problems)} stale identifiers of {idents} checked")
    return 1 if (broken or bench_problems or ident_problems) else 0


if __name__ == "__main__":
    sys.exit(main())
