#!/usr/bin/env python3
"""kav-lint: enforce kav repository invariants that the compiler cannot.

Rules (ids in parentheses; docs/STATIC_ANALYSIS.md has the catalog):

  wire-encoding        Multi-byte little-endian encoding in src/store and
                       src/ingest goes through the ingest/wire.h codec
                       helpers -- no raw memcpy of integers into buffers.
  naked-new            No naked `new` / malloc-family calls outside
                       src/core/detail/arena.h (placement new is fine;
                       the arena is the sanctioned allocator seam).
  metric-names         Metric names registered via .counter()/.gauge()/
                       .histogram() follow the docs/OBSERVABILITY.md
                       grammar: kav_ prefix, lower_snake_case, counters
                       end in _total, histograms in _seconds or _bytes,
                       gauges in neither; the _rate suffix is reserved
                       for gauges (rolling rates over counters).
  include-guard        Every header under src/ carries the canonical
                       include guard derived from its path
                       (src/a/b.h -> KAV_A_B_H).
  raw-sync-primitives  std::mutex / std::lock_guard & friends appear
                       only inside src/util/thread_safety.h; everything
                       else uses the annotated kav::util wrappers so the
                       Clang thread-safety analysis sees every lock.
  operations-view      History::operations() returns a fresh vector on
                       every call, so it is never treated as a view:
                       no .begin()/.end()/.data() or [i] on the call
                       itself (two calls are two vectors; indexing
                       copies the whole history per element), and no
                       std::span bound to it (the vector dies at the
                       end of the statement). Bind it to a vector, or
                       read one op with op(id).
  one-ladder           In src/, only core/verify.cpp's decider ladder
                       (detail::decide), the deciders' own files
                       (core/{gk,lbt,fzf,greedy,oracle}.*) and k-WAV's
                       weighted oracle (core/kwav.cpp) call a decider
                       (check_1atomicity_gk, check_2atomicity_lbt,
                       check_2atomicity_fzf, check_k_atomicity_greedy,
                       oracle_is_k_atomic); everything else asks
                       verify_k_atomicity or detail::decide, so every
                       query runs one gate and one ladder.

Suppressions (each needs a justifying reason after the marker):

    code();  // kav-lint: allow(naked-new) reason
    // kav-lint: allow-next-line(naked-new) reason
    code();

Exit status: 0 clean, 1 findings, 2 bad invocation / internal error.
`--self-test` runs the rule engine over tools/lint_fixtures/ and checks
every pass_* fixture is clean and every fail_* fixture trips exactly
its directory's rule.
"""

import argparse
import os
import re
import sys

RULES = (
    "wire-encoding",
    "naked-new",
    "metric-names",
    "include-guard",
    "raw-sync-primitives",
    "operations-view",
    "one-ladder",
)

# Directories scanned during a repo run, relative to --root.
SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_EXTENSIONS = (".h", ".cpp")

SUPPRESS_RE = re.compile(
    r"kav-lint:\s*allow(?P<next>-next-line)?\((?P<rule>[a-z-]+)\)")
FIXTURE_PATH_RE = re.compile(r"kav-lint-fixture-path:\s*(?P<path>\S+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


NUMBER_TOKEN_CHARS = frozenset(
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_'.")


def is_digit_separator(text, i):
    """Whether the quote at text[i] is a C++14 digit separator (4'000),
    not the start of a character literal: the token it continues starts
    with a digit (a literal prefix like u8'x' or L'x' does not)."""
    j = i
    while j > 0 and text[j - 1] in NUMBER_TOKEN_CHARS:
        j -= 1
    return j < i and text[j].isdigit()


def mask_comments_and_strings(text, keep_strings):
    """Blank out comments (and string/char contents unless keep_strings)
    with spaces, preserving every offset and newline so regex match
    positions map straight back to source lines."""
    out = list(text)
    n = len(text)

    def blank(a, b):
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    i = 0
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == '"' and i >= 1 and text[i - 1] == "R":
            # Raw string literal R"delim( ... )delim".
            m = re.match(r'"([^()\\\s]{0,16})\(', text[i:])
            if m is None:
                i += 1
                continue
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, i + m.end())
            j = n if j < 0 else j + len(closer)
            if not keep_strings:
                blank(i + 1, j - 1)
            i = j
        elif c == "'" and is_digit_separator(text, i):
            i += 1
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if not keep_strings:
                blank(i + 1, j - 1)
            i = j
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def parse_suppressions(text):
    """Map line number -> set of rule ids allowed on that line."""
    allowed = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in SUPPRESS_RE.finditer(line):
            target = lineno + 1 if m.group("next") else lineno
            allowed.setdefault(target, set()).add(m.group("rule"))
    return allowed


def expected_guard(relpath):
    stem = relpath[len("src/"):] if relpath.startswith("src/") else relpath
    return "KAV_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper()


# --- rules -----------------------------------------------------------------

MEMCPY_RE = re.compile(r"\b(?:__builtin_)?memcpy\s*\(")
NAKED_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
ALLOC_RE = re.compile(r"(?<![\w.])(?:malloc|calloc|realloc|strdup)\s*\(")
FREE_RE = re.compile(r"(?<![\w.>])free\s*\(")
METRIC_CALL_RE = re.compile(
    r"[.>](?P<kind>counter|gauge|histogram)\s*\(\s*\"(?P<name>[^\"]*)\"")
METRIC_NAME_RE = re.compile(r"kav_[a-z0-9]+(?:_[a-z0-9]+)*")
RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any|lock_guard|unique_lock|shared_lock"
    r"|scoped_lock)\b")
OPERATIONS_CALL = r"(?:\.|->)\s*operations\s*\(\s*\)"
OPERATIONS_AS_VIEW_RE = re.compile(
    OPERATIONS_CALL
    + r"\s*(?:\[|\.\s*(?:c?r?begin|c?r?end|data)\s*\()")
SPAN_OF_OPERATIONS_RE = re.compile(
    r"std\s*::\s*span\s*<[^;{}]*?>\s*\w+\s*[=({][^;]*?" + OPERATIONS_CALL)
DECIDER_CALL_RE = re.compile(
    r"\b(?:check_1atomicity_gk|check_2atomicity_lbt|check_2atomicity_fzf"
    r"|check_k_atomicity_greedy|oracle_is_k_atomic)\s*\(")
LADDER_FILES_RE = re.compile(
    r"src/core/(?:verify\.cpp|kwav\.cpp"
    r"|(?:gk|lbt|fzf|greedy|oracle)\.(?:h|cpp))")


def rule_wire_encoding(relpath, _text, bare, findings):
    if not (relpath.startswith("src/store/")
            or relpath.startswith("src/ingest/")):
        return
    if relpath == "src/ingest/wire.h":
        return
    for m in MEMCPY_RE.finditer(bare):
        findings.append((m.start(), "wire-encoding",
                         "raw memcpy in a serialization layer; encode/decode "
                         "multi-byte integers via the ingest/wire.h helpers"))


def rule_naked_new(relpath, _text, bare, findings):
    if not relpath.startswith("src/"):
        return
    if relpath == "src/core/detail/arena.h":
        return
    for m in NAKED_NEW_RE.finditer(bare):
        findings.append((m.start(), "naked-new",
                         "naked `new`; allocate through the owning container, "
                         "make_unique/make_shared, or core/detail/arena.h"))
    for m in ALLOC_RE.finditer(bare):
        findings.append((m.start(), "naked-new",
                         "malloc-family call; use core/detail/arena.h or an "
                         "owning container"))
    for m in FREE_RE.finditer(bare):
        findings.append((m.start(), "naked-new",
                         "raw free(); ownership must be RAII-managed"))


def rule_metric_names(relpath, text, _bare, findings):
    if not relpath.startswith("src/"):
        return
    for m in METRIC_CALL_RE.finditer(text):
        kind, name = m.group("kind"), m.group("name")
        problems = []
        if METRIC_NAME_RE.fullmatch(name) is None:
            problems.append("must match kav_[a-z0-9_]+ (lower_snake_case, "
                            "kav_ prefix, no doubled or trailing underscore)")
        if kind == "counter" and not name.endswith("_total"):
            problems.append("counter names end in _total")
        if kind == "histogram" and not (name.endswith("_seconds")
                                        or name.endswith("_bytes")):
            problems.append("histogram names end in _seconds or _bytes")
        if kind == "gauge" and (name.endswith("_total")
                                or name.endswith("_seconds")):
            problems.append("gauge names must not end in _total or _seconds")
        if kind != "gauge" and name.endswith("_rate"):
            problems.append("the _rate suffix is reserved for gauges "
                            "(rolling rates derived from counters; see "
                            "obs/telemetry_server.h)")
        for problem in problems:
            findings.append((m.start(), "metric-names",
                             f"{kind} '{name}': {problem} "
                             "(docs/OBSERVABILITY.md grammar)"))


def rule_include_guard(relpath, text, _bare, findings):
    if not (relpath.startswith("src/") and relpath.endswith(".h")):
        return
    guard = expected_guard(relpath)
    ifndef = re.search(r"^#ifndef\s+(\S+)\s*$", text, re.MULTILINE)
    if ifndef is None:
        findings.append((0, "include-guard",
                         f"missing include guard (expected #ifndef {guard})"))
        return
    if ifndef.group(1) != guard:
        findings.append((ifndef.start(), "include-guard",
                         f"guard {ifndef.group(1)} does not match the "
                         f"canonical {guard} derived from the path"))
        return
    if re.search(rf"^#define\s+{re.escape(guard)}\s*$", text,
                 re.MULTILINE) is None:
        findings.append((ifndef.start(), "include-guard",
                         f"#ifndef {guard} is not followed by a matching "
                         "#define"))


def rule_raw_sync(relpath, _text, bare, findings):
    if relpath == "src/util/thread_safety.h":
        return
    for m in RAW_SYNC_RE.finditer(bare):
        findings.append((m.start(), "raw-sync-primitives",
                         "raw standard synchronization primitive; use the "
                         "annotated kav::util wrappers from "
                         "util/thread_safety.h so -Wthread-safety sees it"))


def rule_operations_view(_relpath, _text, bare, findings):
    for m in OPERATIONS_AS_VIEW_RE.finditer(bare):
        findings.append((m.start(), "operations-view",
                         "operations() builds a new vector per call; bind "
                         "it to a std::vector first, or read op(id)"))
    for m in SPAN_OF_OPERATIONS_RE.finditer(bare):
        findings.append((m.start(), "operations-view",
                         "std::span over operations() dangles: the vector "
                         "it views dies at the end of the statement"))


def rule_one_ladder(relpath, _text, bare, findings):
    if not relpath.startswith("src/") or LADDER_FILES_RE.fullmatch(relpath):
        return
    for m in DECIDER_CALL_RE.finditer(bare):
        findings.append((m.start(), "one-ladder",
                         "direct decider call; go through verify_k_atomicity "
                         "or detail::decide (core/verify.h) so the query "
                         "runs the one gate and ladder"))


RULE_FUNCS = (rule_wire_encoding, rule_naked_new, rule_metric_names,
              rule_include_guard, rule_raw_sync, rule_operations_view,
              rule_one_ladder)


INCLUDE_LINE_RE = re.compile(r"^[ \t]*#[ \t]*include\b.*$", re.MULTILINE)


def lint_text(relpath, text):
    """All findings for one file, suppressions applied."""
    bare = mask_comments_and_strings(text, keep_strings=False)
    # #include <new> and friends are directives, not allocation sites.
    bare = INCLUDE_LINE_RE.sub(lambda m: " " * len(m.group(0)), bare)
    code = mask_comments_and_strings(text, keep_strings=True)
    allowed = parse_suppressions(text)
    raw = []
    for func in RULE_FUNCS:
        func(relpath, code, bare, raw)
    findings = []
    for offset, rule, message in raw:
        lineno = line_of(text, offset)
        if rule in allowed.get(lineno, ()):
            continue
        findings.append(Finding(relpath, lineno, rule, message))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def iter_repo_files(root):
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    yield full, os.path.relpath(full, root).replace(
                        os.sep, "/")


def run_repo(root, quiet):
    findings = []
    count = 0
    for full, relpath in iter_repo_files(root):
        count += 1
        with open(full, encoding="utf-8") as handle:
            findings.extend(lint_text(relpath, handle.read()))
    for finding in findings:
        print(finding)
    if not quiet:
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"kav-lint: {count} file(s) scanned, {status}", file=sys.stderr)
    return 1 if findings else 0


def run_self_test(fixtures_dir):
    """pass_* fixtures must be clean; fail_* fixtures must trip exactly
    the rule named by their directory. Fixtures declare the path the
    linter should pretend they live at via a kav-lint-fixture-path
    comment (default: src/fixture/<filename>)."""
    failures = []
    cases = 0
    for rule in RULES:
        rule_dir = os.path.join(fixtures_dir, rule)
        if not os.path.isdir(rule_dir):
            failures.append(f"missing fixture directory for rule '{rule}'")
            continue
        names = sorted(os.listdir(rule_dir))
        if not any(n.startswith("pass_") for n in names) or not any(
                n.startswith("fail_") for n in names):
            failures.append(f"rule '{rule}' needs >=1 pass_* and >=1 fail_* "
                            "fixture")
        for name in names:
            if not name.endswith(CXX_EXTENSIONS):
                continue
            cases += 1
            with open(os.path.join(rule_dir, name),
                      encoding="utf-8") as handle:
                text = handle.read()
            m = FIXTURE_PATH_RE.search(text)
            relpath = m.group("path") if m else f"src/fixture/{name}"
            found = lint_text(relpath, text)
            tripped = {f.rule for f in found}
            if name.startswith("pass_") and found:
                failures.append(
                    f"{rule}/{name}: expected clean, got "
                    + "; ".join(str(f) for f in found))
            elif name.startswith("fail_"):
                if rule not in tripped:
                    failures.append(f"{rule}/{name}: expected a '{rule}' "
                                    f"finding, got {sorted(tripped) or None}")
                if tripped - {rule}:
                    failures.append(f"{rule}/{name}: unexpected extra rules "
                                    f"tripped: {sorted(tripped - {rule})}")
    for failure in failures:
        print(f"kav-lint self-test: {failure}")
    print(f"kav-lint self-test: {cases} fixture(s), "
          f"{'OK' if not failures else f'{len(failures)} failure(s)'}",
          file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    tools_dir = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        prog="kav_lint.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(tools_dir),
                        help="repository root to scan (default: the "
                             "checkout containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the rule engine against "
                             "tools/lint_fixtures/ instead of scanning")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)
    if args.self_test:
        return run_self_test(os.path.join(tools_dir, "lint_fixtures"))
    if not os.path.isdir(args.root):
        print(f"kav-lint: no such root: {args.root}", file=sys.stderr)
        return 2
    return run_repo(args.root, args.quiet)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
