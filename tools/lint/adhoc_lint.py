#!/usr/bin/env python3
"""Determinism lint for the adhoc80211b repository.

The simulator's headline contract -- bit-identical results at jobs=1 vs
jobs=N for the same master seed -- is enforced at runtime by the
campaign determinism tests.  This linter enforces it at analysis time by
banning the constructs that historically break that contract silently:

  wall-clock      OS time / entropy in simulation code (time(), rand(),
                  std::random_device, system_clock, steady_clock, ...).
                  Wall-clock profiling is legitimate in a few sanctioned
                  spots; those carry NOLINT-ADHOC(wall-clock).
  rng-stream      <random> engines / distributions instead of the repo's
                  seeded sim::Simulator::rng_stream(name) substreams.
  unordered-iter  range-for over a std::unordered_* container feeding a
                  trace / telemetry / metrics / JSON emission path, whose
                  iteration order varies across libstdc++ versions.
  fp-compare      ==/!= against floating-point literals; exact equality
                  on doubles is either a bug or an invariant worth a
                  written justification (NOLINT-ADHOC(fp-compare)).
  header-guard    .hpp without #pragma once (or a classic include guard)
                  as its first non-comment line.
  self-include    a header that #includes itself.
  raw-sync        std sync primitives (std::mutex, std::lock_guard,
                  std::unique_lock, std::condition_variable, ...)
                  anywhere outside src/concurrency/ — concurrency goes
                  through the annotated conc:: wrappers so Clang's
                  -Wthread-safety analysis (and the debug lock-rank
                  check) see every lock.
  guarded-member  a class in a concurrent subsystem declares a
                  conc::Mutex member but annotates nothing GUARDED_BY /
                  PT_GUARDED_BY it: the mutex is decoration the
                  thread-safety analysis cannot check.

Python files get one rule of their own:

  py-json-sort-keys  json.dump()/json.dumps() without sort_keys=True.
                     Dict insertion order leaks run-to-run noise into
                     artifacts the scorecard pipeline diffs byte-wise;
                     every tool that writes JSON must sort its keys.

Suppression contract (every suppression must name its rule):

  code();  // NOLINT-ADHOC(rule-id)            same-line
  // NOLINT-ADHOC-NEXTLINE(rule-id)            next-line
  // NOLINT-ADHOC(rule-a,rule-b)               several rules at once

A NOLINT-ADHOC without a parenthesised rule list is itself a finding
(bare-suppression), as is a suppression naming an unknown rule
(unknown-rule).  Findings print as `path:line: [rule-id] message` and a
non-empty finding set exits 1.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "wall-clock": "OS wall-clock/entropy source in simulation code; use sim::Time "
    "or suppress sanctioned profiling with NOLINT-ADHOC(wall-clock)",
    "rng-stream": "std <random> engine/distribution; draw from "
    "sim::Simulator::rng_stream(name) / Rng::substream instead",
    "unordered-iter": "iteration over std::unordered_* feeds an emission path; "
    "iteration order is unspecified -- use std::map or sort first",
    "fp-compare": "==/!= on floating point; compare against a tolerance or "
    "restructure the predicate",
    "header-guard": "header missing '#pragma once' (or classic guard) as its "
    "first non-comment line",
    "self-include": "header includes itself",
    "py-json-sort-keys": "json.dump()/json.dumps() without sort_keys=True; "
    "unsorted keys make JSON artifacts byte-unstable",
    "raw-sync": "raw std sync primitive outside src/concurrency/; lock through "
    "conc::Mutex / conc::MutexLock / conc::CondVar so the thread-safety "
    "analysis and lock-rank check see it",
    "guarded-member": "conc::Mutex member guards nothing; annotate at least one "
    "member GUARDED_BY (or PT_GUARDED_BY) this mutex",
    "bare-suppression": "NOLINT-ADHOC without a rule list; write "
    "NOLINT-ADHOC(rule-id)",
    "unknown-rule": "NOLINT-ADHOC names a rule this linter does not define",
}

# The subsystems where threads actually meet: a conc::Mutex member here
# must guard something (guarded-member). src/concurrency itself is the
# one place allowed to touch the raw std primitives (raw-sync).
CONCURRENT_DIRS = (
    "src/campaign",
    "src/cache",
    "src/serve",
    "src/obs",
    "src/sim",
)

# Rules that only apply under certain path fragments (POSIX-style).
# fp-compare is deliberately unscoped: the issue floor was src/stats/ +
# src/analysis/, but exact floating-point compares are just as hazardous
# in grid parameters and bench predicates, so it runs everywhere.
RULE_PATH_SCOPE: dict[str, tuple[str, ...]] = {
    "guarded-member": CONCURRENT_DIRS,
}

# Rules suspended under certain path fragments: the sync-layer wrappers
# are implemented in terms of the std primitives they ban elsewhere.
RULE_PATH_EXCLUDE: dict[str, tuple[str, ...]] = {
    "raw-sync": ("src/concurrency",),
}

# Directories whose unordered-container iterations are flagged even
# without an emission marker nearby: these layers exist to serialize.
# src/report is here because its scorecards are diffed byte-for-byte
# against checked-in baselines — any order leak breaks the gate.
# src/cache and src/serve serialize cache keys and run-record payloads
# whose bytes ARE the contract (content addressing, warm==cold).
ALWAYS_ORDERED_DIRS = (
    "src/obs",
    "src/obs/svc",  # covered by src/obs; listed so the service-telemetry
    # layer (metrics exposition, flight recorder) stays pinned even if
    # the parent entry is ever narrowed
    "src/obs/journey",  # likewise: journey CSV + ledger exports are
    # diffed byte-for-byte across reruns and worker counts
    "src/campaign",
    "src/report",
    "src/cache",
    "src/serve",
    # src/spatial's neighbor queries feed the medium's event-scheduling
    # order; an unordered iteration there breaks bit-identical replay.
    "src/spatial",
    # The sync layer underpins every serialization path above; any
    # future iteration here (e.g. a held-locks dump) must be ordered.
    "src/concurrency",
)

# Tokens that mark an emission context for unordered-iter outside the
# always-ordered dirs (JSON building, telemetry records, trace export).
EMISSION_MARKER = re.compile(
    r"json|emit|snapshot|telemetry|\bcsv\b|\.write|tracer|trace_|record", re.IGNORECASE
)
EMISSION_WINDOW = 15  # lines of loop body scanned for a marker

WALL_CLOCK = re.compile(
    r"\b(?:std::)?(?:random_device|system_clock|steady_clock|high_resolution_clock)\b"
    r"|\bsrand\s*\(|\brand\s*\(|\btime\s*\(|\bgettimeofday\s*\(|\bclock_gettime\s*\("
)
RNG_ENGINE = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?|ranlux\w+|knuth_b"
    r"|mersenne_twister_engine|linear_congruential_engine|subtract_with_carry_engine"
    r"|uniform_(?:int|real)_distribution|normal_distribution|bernoulli_distribution"
    r"|exponential_distribution|poisson_distribution|discrete_distribution"
    r"|shuffle_order_engine|random_shuffle)\b"
)
RNG_INCLUDE = re.compile(r"#\s*include\s*<random>")
# Raw-literal-seeded Rng bypasses the named-substream derivation tree
# (sim::Simulator::rng_stream / Rng::substream), so adding one perturbs
# nothing but is also independent of the master seed.
RNG_RAW_SEED = re.compile(r"\bRng\s*[({]\s*\d")
FLOAT_LIT = r"(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fFlL]?"
FP_COMPARE = re.compile(
    r"[=!]=\s*[-+]?" + FLOAT_LIT + r"|" + FLOAT_LIT + r"\s*[=!]="
)
UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b[^;{]*?>\s*(\w+)\s*[;={]")
# Captures the range expression of a range-for; the trailing identifier
# (metrics_, obj.metrics_, ...) is compared against unordered decls.
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*([^;)]+?)\s*\)")
TRAILING_IDENT = re.compile(r"(\w+)$")
RAW_SYNC = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable(?:_any)?|call_once|once_flag)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
# A conc::Mutex data member / variable declaration. The `[;{=]` tail and
# required whitespace exclude reference returns (`conc::Mutex& f()`) and
# parameters (`conc::Mutex& m`), which guard nothing by themselves.
CONC_MUTEX_MEMBER = re.compile(r"\bconc::Mutex\s+(\w+)\s*[;{=]")
INCLUDE_QUOTED = re.compile(r'#\s*include\s*"([^"]+)"')
PRAGMA_ONCE = re.compile(r"#\s*pragma\s+once\b")
IFNDEF_GUARD = re.compile(r"#\s*ifndef\s+\w+")

NOLINT = re.compile(r"NOLINT-ADHOC(-NEXTLINE)?(?:\(([^)]*)\))?")

PY_JSON_DUMP = re.compile(r"\bjson\.dumps?\s*\(")
PY_DUMP_WINDOW = 10  # lines scanned for sort_keys= after the call opens

CXX_EXTENSIONS = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}
PY_EXTENSIONS = {".py"}
SKIP_DIR_PREFIXES = ("build", "cmake-build")
SKIP_DIR_NAMES = {".git", "CMakeFiles", "__pycache__"}


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def in_pp_number(text: str, quote: int) -> bool:
    """True when the ' at text[quote] continues a preprocessing number (a
    token starting with a digit, or with '.' then a digit), i.e. is a
    C++14 digit separator.  Anything else opens a character literal:
    u8'a', L'x' and '\\'' are tokens that do not start with a digit."""
    start = quote
    while start > 0:
        prev = text[start - 1]
        if prev.isalnum() or prev in "_.'":
            start -= 1
        elif prev in "+-" and start > 1 and text[start - 2] in "eEpP":
            start -= 2  # exponent sign inside the number: 1e+1'0
        else:
            break
    if start == quote:
        return False
    return text[start].isdigit() or (text[start] == "." and text[start + 1].isdigit())


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal contents, preserving
    line structure, so rule regexes never match inside prose or data.
    Handles raw string literals (R"delim( ... )delim")."""
    out = []
    i, n = 0, len(text)
    CODE, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = CODE
    raw_terminator = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string?  R"delim( ... )delim" -- the R may carry an
                # encoding prefix (u8R, LR, ...); checking for a trailing
                # R is sufficient here.
                if out and text[i - 1] == "R":
                    close = text.find("(", i + 1)
                    delim = text[i + 1 : close] if close != -1 else ""
                    raw_terminator = ")" + delim + '"'
                    state = STRING
                    out.append('"')
                    i = close + 1 if close != -1 else i + 1
                else:
                    raw_terminator = None
                    state = STRING
                    out.append('"')
                    i += 1
            elif c == "'" and in_pp_number(text, i):
                out.append(c)  # C++14 digit separator: 1'000'000
                i += 1
            elif c == "'":
                state = CHAR
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = CODE
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = CODE
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if raw_terminator is not None:
                if text.startswith(raw_terminator, i):
                    state = CODE
                    out.append(" " * (len(raw_terminator) - 1) + '"')
                    i += len(raw_terminator)
                else:
                    out.append(c if c == "\n" else " ")
                    i += 1
            elif c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = CODE
                out.append('"')
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = CODE
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def parse_suppressions(raw_lines: list[str]):
    """Returns ({line -> set(rules)} same-line, {line -> set(rules)}
    next-line targets, [malformed Finding-tuples])."""
    same, nextline, malformed = {}, {}, []
    for lineno, line in enumerate(raw_lines, start=1):
        for m in NOLINT.finditer(line):
            is_next = m.group(1) is not None
            rules_blob = m.group(2)
            if rules_blob is None or not rules_blob.strip():
                malformed.append((lineno, "bare-suppression", RULES["bare-suppression"]))
                continue
            rules = {r.strip() for r in rules_blob.split(",") if r.strip()}
            unknown = sorted(r for r in rules if r not in RULES)
            for r in unknown:
                malformed.append((lineno, "unknown-rule", f"unknown rule '{r}' in suppression"))
            rules &= set(RULES)
            if not rules:
                continue
            if is_next:
                nextline.setdefault(lineno + 1, set()).update(rules)
            else:
                same.setdefault(lineno, set()).update(rules)
    return same, nextline, malformed


def rule_applies(rule: str, posix_path: str) -> bool:
    exclude = RULE_PATH_EXCLUDE.get(rule)
    if exclude is not None and any(fragment in posix_path for fragment in exclude):
        return False
    scope = RULE_PATH_SCOPE.get(rule)
    if scope is None:
        return True
    return any(fragment in posix_path for fragment in scope)


def lint_python_file(path: Path) -> list[Finding]:
    """Python half of the linter: every json.dump / json.dumps call
    must pass sort_keys=True (scan the call's argument window — calls
    routinely span lines). Shares the same suppression syntax, behind
    a '#' comment."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(path, 0, "py-json-sort-keys", f"unreadable file: {e}")]
    raw_lines = text.splitlines()
    # Only the '#'-comment tail of each line can carry suppressions:
    # Python sources (this linter included) legitimately mention the
    # suppression token inside strings and docstrings.
    comment_tails = [line[line.find("#"):] if "#" in line else "" for line in raw_lines]
    same, nextline, malformed = parse_suppressions(comment_tails)
    findings = [Finding(path, ln, rule, msg) for ln, rule, msg in malformed]
    for lineno, line in enumerate(raw_lines, start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            continue
        m = PY_JSON_DUMP.search(line)
        if not m:
            continue
        # The call's argument list may span lines: accumulate from the
        # opening paren until it balances (capped, for unclosed code).
        call = line[m.start():]
        depth = call.count("(") - call.count(")")
        for extra in raw_lines[lineno : lineno - 1 + PY_DUMP_WINDOW]:
            if depth <= 0:
                break
            call += "\n" + extra
            depth += extra.count("(") - extra.count(")")
        if "sort_keys" in call:
            continue
        if "py-json-sort-keys" in same.get(lineno, ()) or \
           "py-json-sort-keys" in nextline.get(lineno, ()):
            continue
        findings.append(Finding(path, lineno, "py-json-sort-keys",
                                f"'{m.group(0).strip()}': {RULES['py-json-sort-keys']}"))
    return findings


def lint_file(path: Path, repo_root: Path) -> list[Finding]:
    if path.suffix in PY_EXTENSIONS:
        return lint_python_file(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [Finding(path, 0, "header-guard", f"unreadable file: {e}")]
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    posix = path.resolve().as_posix()
    try:
        rel = path.resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        rel = posix

    same, nextline, malformed = parse_suppressions(raw_lines)
    findings = [Finding(path, ln, rule, msg) for ln, rule, msg in malformed]

    def suppressed(lineno: int, rule: str) -> bool:
        return rule in same.get(lineno, ()) or rule in nextline.get(lineno, ())

    def emit(lineno: int, rule: str, message: str) -> None:
        if not rule_applies(rule, posix):
            return
        if suppressed(lineno, rule):
            return
        findings.append(Finding(path, lineno, rule, message))

    # --- wall-clock / rng-stream / fp-compare: plain line scans -------
    for lineno, line in enumerate(code_lines, start=1):
        m = WALL_CLOCK.search(line)
        if m:
            emit(lineno, "wall-clock", f"'{m.group(0).strip()}': {RULES['wall-clock']}")
        m = RNG_ENGINE.search(line) or RNG_INCLUDE.search(line) or RNG_RAW_SEED.search(line)
        if m:
            emit(lineno, "rng-stream", f"'{m.group(0).strip()}': {RULES['rng-stream']}")
        m = FP_COMPARE.search(line)
        if m:
            emit(lineno, "fp-compare", f"'{m.group(0).strip()}': {RULES['fp-compare']}")
        m = RAW_SYNC.search(line)
        if m:
            emit(lineno, "raw-sync", f"'{m.group(0).strip()}': {RULES['raw-sync']}")

    # --- guarded-member ----------------------------------------------
    # File granularity: a conc::Mutex declaration must be matched by a
    # GUARDED_BY / PT_GUARDED_BY naming it somewhere in the same file.
    # (Members and their annotations live together in the class body, so
    # same-file is the right resolution for a line-based linter.)
    for lineno, line in enumerate(code_lines, start=1):
        for m in CONC_MUTEX_MEMBER.finditer(line):
            name = m.group(1)
            guard_ref = re.compile(r"\b(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) + r"\s*\)")
            if any(guard_ref.search(other) for other in code_lines):
                continue
            emit(
                lineno,
                "guarded-member",
                f"conc::Mutex '{name}': {RULES['guarded-member']}",
            )

    # --- unordered-iter ----------------------------------------------
    unordered_names = set()
    for line in code_lines:
        for m in UNORDERED_DECL.finditer(line):
            unordered_names.add(m.group(1))
    if unordered_names:
        always = any(d in posix for d in ALWAYS_ORDERED_DIRS)
        for lineno, line in enumerate(code_lines, start=1):
            for m in RANGE_FOR.finditer(line):
                ident = TRAILING_IDENT.search(m.group(1))
                name = ident.group(1) if ident else ""
                if name not in unordered_names:
                    continue
                body = "\n".join(code_lines[lineno - 1 : lineno - 1 + EMISSION_WINDOW])
                if always or EMISSION_MARKER.search(body):
                    emit(
                        lineno,
                        "unordered-iter",
                        f"range-for over unordered container '{name}': "
                        f"{RULES['unordered-iter']}",
                    )

    # --- header hygiene ----------------------------------------------
    if path.suffix in {".hpp", ".h", ".hh"}:
        guarded = False
        for line in code_lines:
            stripped = line.strip()
            if not stripped:
                continue
            guarded = bool(PRAGMA_ONCE.match(stripped) or IFNDEF_GUARD.match(stripped))
            break
        if not guarded:
            emit(1, "header-guard", RULES["header-guard"])
        # Raw lines here: the comment/string stripper blanks quoted
        # include paths, which is exactly what we need to read.
        for lineno, line in enumerate(raw_lines, start=1):
            m = INCLUDE_QUOTED.search(line)
            if m and (rel.endswith(m.group(1)) or m.group(1) == path.name):
                emit(lineno, "self-include", f"'{m.group(1)}': {RULES['self-include']}")

    return findings


def collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_file():
            if p.suffix in CXX_EXTENSIONS | PY_EXTENSIONS:
                files.append(p)
            continue
        if not p.is_dir():
            print(f"adhoc_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
        for sub in sorted(p.rglob("*")):
            if sub.is_dir():
                continue
            parts = sub.relative_to(p).parts
            if any(
                part in SKIP_DIR_NAMES or part.startswith(SKIP_DIR_PREFIXES)
                for part in parts[:-1]
            ):
                continue
            if sub.suffix in CXX_EXTENSIONS | PY_EXTENSIONS:
                files.append(sub)
    return files


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, help="files or directories to lint")
    ap.add_argument("--root", type=Path, default=None,
                    help="repo root for relative self-include matching "
                    "(default: two levels above this script)")
    ap.add_argument("--list-rules", action="store_true", help="print rule table and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for rule, desc in RULES.items():
            print(f"{rule:<{width}}  {desc}")
        return 0
    if not args.paths:
        ap.error("no paths given (or use --list-rules)")

    repo_root = args.root or Path(__file__).resolve().parents[2]
    findings: list[Finding] = []
    files = collect_files(args.paths)
    for f in files:
        findings.extend(lint_file(f, repo_root))

    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for f in findings:
        print(f)
    summary = f"adhoc_lint: {len(findings)} finding(s) in {len(files)} file(s)"
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
