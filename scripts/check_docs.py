#!/usr/bin/env python3
"""Check that README.md, DESIGN.md and EXPERIMENTS.md name only what exists.

Reads the backticked spans and the fenced code blocks of the three docs and
fails when one of them names
  * a path (globs and {a,b} allowed) that no tracked file or directory
    matches, from the repo root or from src/;
  * a bench, tool or example binary, or a library, that is not a CMake
    target;
  * a ctest test that tests/CMakeLists.txt does not define, or a gtest
    case (Suite.Name, globs allowed) that no TEST macro defines;
  * a `Type::member` or `function()` that src/, tests/, bench/ and tools/
    do not contain;
  * a ROADMAP item number that is not in ROADMAP.md's list of open items.

Paths that a documented command writes, rather than the repo tracking
them, are in WRITTEN. Usage, from anywhere in the checkout:

    python3 scripts/check_docs.py

Prints one line per problem and exits 1 if there is any, else exits 0.
"""

import fnmatch
import itertools
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
CODE_DIRS = ("src/", "tests/", "bench/", "tools/")
# Paths a documented command writes (fnmatch patterns).
WRITTEN = [
    "results/verify_failures/*",
    "results/fig1*",
    "results/fig2*",
    "BENCH_*.json",
]
# Namespaces of libraries, not of this repo.
FOREIGN = {"std", "benchmark", "testing"}


def read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        return f.read()


def tracked_files():
    out = subprocess.run(["git", "ls-files"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return [p for p in out.splitlines()
            if os.path.exists(os.path.join(ROOT, p))]


class Tree:
    def __init__(self):
        self.files = tracked_files()
        self.dirs = {os.path.dirname(p) for p in self.files}
        for d in list(self.dirs):
            while d:
                d = os.path.dirname(d)
                self.dirs.add(d)
        self.basenames = {os.path.basename(p) for p in self.files}
        self.code = {p: read(p) for p in self.files
                     if p.startswith(CODE_DIRS) and
                     p.endswith((".h", ".cpp", ".inc"))}
        cmake = "\n".join(read(p) for p in self.files
                          if os.path.basename(p) == "CMakeLists.txt")
        self.targets = set(re.findall(
            r"\b(?:add_executable|add_library|qfab_add_bench|"
            r"qfab_add_example|qfab_add_test)\(\s*([\w-]+)", cmake))
        self.targets.discard("${name}")
        self.targets |= set(re.findall(r"OUTPUT_NAME\s+([\w-]+)", cmake))
        self.ctests = set(re.findall(r"add_test\(NAME\s+([\w-]+)", cmake))
        self.ctests |= set(re.findall(r"qfab_add_test\(\s*([\w-]+)", cmake))
        self.ctests.discard("${name}")
        self.pytests = set()
        for p in self.files:
            if p.endswith(".py"):
                self.pytests |= set(re.findall(r"def (test_\w+)", read(p)))
        self.gtests = set()
        for p in self.files:
            if p.startswith(("tests/", "panelbench/tests/")) and \
                    p.endswith(".cpp"):
                self.gtests |= {f"{s}.{n}" for s, n in re.findall(
                    r"\bTEST(?:_F|_P)?\(\s*(\w+),\s*(\w+)\)", read(p))}
        roadmap = read("ROADMAP.md")
        open_items = roadmap[roadmap.index("## Open items"):]
        self.items = {int(n) for n in
                      re.findall(r"^(\d+)\. \*\*", open_items, re.M)}

    def path_exists(self, path):
        for p in expand_braces(path):
            p = p.rstrip("/")
            for base in ("", "src/"):
                q = base + p
                if any(c in q for c in "*?["):
                    if fnmatch.filter(self.files, q) or \
                            fnmatch.filter(self.dirs, q):
                        break
                elif q in self.dirs or q in self.files or any(
                        f.startswith(q + ".") for f in self.files):
                    break
            else:
                return False
        return True

    def code_has(self, word, near=None):
        pattern = re.compile(r"\b" + re.escape(word) + r"\b")
        anchor = re.compile(r"\b" + re.escape(near) + r"\b") if near else None
        return any(pattern.search(text) and (not anchor or anchor.search(text))
                   for text in self.code.values())


def expand_braces(path):
    parts = re.split(r"\{([^{}]*)\}", path)
    choices = [[p] if i % 2 == 0 else p.split(",")
               for i, p in enumerate(parts)]
    return ["".join(c) for c in itertools.product(*choices)]


def spans(text):
    """(line, span) for every backticked span and fenced-block line."""
    out = []
    fenced = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            out.append((lineno, line))
    # Inline spans may wrap across one line break.
    prose = re.sub(r"```.*?```", lambda m: "\n" * m.group(0).count("\n"),
                   text, flags=re.S)
    for m in re.finditer(r"`([^`]+)`", prose):
        out.append((prose.count("\n", 0, m.start()) + 1,
                    " ".join(m.group(1).split())))
    return out


PATH = re.compile(r"^[\w.{},*<>-]+(?:/[\w.{},*<>-]*)+$")
FILE = re.compile(r"^[\w.-]+\.(?:cpp|h|inc|md|json|csv|py|sh|txt|qasm)$")
BUILD = re.compile(r"^(?:\./)?build[\w-]*/(?:bench|tools|examples|tests)/"
                   r"([\w-]+)$")
BINARY = re.compile(r"^(?:bench|fig\d|ablation|ext|qfab|micro|table\d)_\w+$")
CTEST = re.compile(r"^(?:test_\w+|verify_smoke\w*)$")
GTEST = re.compile(r"^[A-Z][\w{},]*\.[A-Z*{][\w*{},]*$")
SCOPED = re.compile(r"^(\w+)((?:::\w+)+)(?:\(.*\))?$")
CALL = re.compile(r"^([a-z_]\w*)\(\)$")
ITEMS = re.compile(r"ROADMAP(?:\.md)?(?:'s)?\s+items?\s+"
                   r"(\d+(?:(?:,\s*|\s+and\s+|\s+or\s+|\s*[–-]\s*)\d+)*)")


def check_token(tree, tok, top_dirs):
    """The problem with one token, or None."""
    tok = tok.strip("'\"").rstrip(",;:.").lstrip("(")
    if tok.endswith(")") and "(" not in tok:
        tok = tok[:-1]
    if not tok or tok.startswith(("-", "/", "$", "~")):
        return None
    m = BUILD.match(tok)
    if m:
        return None if m.group(1) in tree.targets else \
            f"binary {m.group(1)} is not a CMake target"
    if PATH.match(tok) and tok.split("/")[0] in top_dirs:
        if any(fnmatch.fnmatch(tok, w) for w in WRITTEN):
            return None
        head, _, name = tok.partition("/")
        if head in ("bench", "tools", "examples") and "." not in name and \
                "/" not in name and name:
            return None if name in tree.targets else \
                f"binary {name} is not a CMake target"
        return None if tree.path_exists(tok) else f"no tracked path {tok}"
    if FILE.match(tok):
        if any(fnmatch.fnmatch(tok, w) for w in WRITTEN):
            return None
        return None if tok in tree.basenames else f"no tracked file {tok}"
    if BINARY.match(tok):
        return None if tok in tree.targets else \
            f"{tok} is not a CMake target"
    if CTEST.match(tok):
        return None if tok in tree.ctests or tok in tree.pytests else \
            f"no ctest test {tok}"
    if GTEST.match(tok):
        for case in expand_braces(tok):
            if not fnmatch.filter(tree.gtests, case):
                return f"no gtest case {case}"
        return None
    m = SCOPED.match(tok)
    if m and m.group(1) not in FOREIGN:
        names = [m.group(1)] + m.group(2).split("::")[1:]
        for name in names[1:]:
            if not tree.code_has(name, near=names[0]):
                return f"{tok}: no {name} beside {names[0]} in the code"
        return None
    m = CALL.match(tok)
    if m and not tree.code_has(m.group(1)):
        return f"{tok}: no {m.group(1)} in the code"
    return None


def main():
    tree = Tree()
    top_dirs = {p.split("/")[0] for p in tree.files if "/" in p}
    top_dirs |= {d.split("/")[1] for d in tree.dirs if d.startswith("src/")}
    problems = []
    for doc in DOCS:
        text = read(doc)
        for lineno, span in spans(text):
            for tok in span.split():
                pieces = (re.split(r"[:='\"]", tok)
                          if "gtest_filter" in tok else [tok])
                for piece in pieces:
                    problem = check_token(tree, piece, top_dirs)
                    if problem:
                        problems.append(f"{doc}:{lineno}: {problem}")
        flat = " ".join(text.split())
        for m in ITEMS.finditer(flat):
            for n in re.findall(r"\d+", m.group(1)):
                if int(n) not in tree.items:
                    problems.append(f"{doc}: ROADMAP item {n} is not in "
                                    f"ROADMAP.md's list")
    for p in sorted(set(problems)):
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
