#!/usr/bin/env python3
"""wlan_lint — repo-specific static analysis for the bit-identity contract.

Every run of this simulator must be a pure function of (seed, config):
byte-identical across thread counts, scalar-vs-batched reception, and
observability on/off.  The golden CSVs and oracle suites enforce that
dynamically, but only on paths the tests cover.  This tool checks the
*hazard classes* statically, at review time:

  wall-clock           std::chrono clocks, std::random_device, rand/srand,
                       time() anywhere in sim-affecting code.  Wall time is
                       the canonical way to break (seed, config) purity.
  unordered-iteration  range-for / .begin() iteration over
                       std::unordered_map / std::unordered_set.  Iteration
                       order is libstdc++-version- and insertion-history-
                       dependent; if it feeds a report, CSV, manifest or
                       figure accumulator the output is only accidentally
                       stable.  Either iterate a sorted/deterministic
                       structure or prove order-independence and annotate.
  rng-seed             util::Rng must be seeded from util::mix_seed or a
                       config-derived seed expression.  Literal seeds
                       correlate streams; wall-clock seeds destroy replay.
  layer-dag            #include edges must follow the ten-layer DAG in
                       docs/ARCHITECTURE.md.  The CMake link graph already
                       fails illegal *compiled* edges, but header-only
                       includes compile silently; this closes that gap.
  unchecked-parse      atoi/atol/atoll/atof, bare or std::-qualified.  They
                       turn a malformed number into 0 (or truncate it)
                       without an error, so a typo runs a different
                       experiment.  Parse whole tokens and reject the rest
                       (exp::parse_whole).

Suppression syntax (on the flagged line, or in the comment block directly
above it — the directive covers the rest of its comment block and the first
code line that follows):

    // wlan-lint: allow(<rule>) — <reason>

A reason is mandatory: a suppression without one is itself a finding.
Several rules may be allowed at once: allow(rule-a, rule-b) — reason.

Usage:
    tools/wlan_lint.py [--root DIR] [--rule NAME]... [PATH]...
    tools/wlan_lint.py --list-rules

With no PATH arguments, scans src/, bench/, and examples/ under --root
(default: the repo containing this script).  Exit status: 0 clean,
1 findings, 2 usage/internal error.  Diagnostics: file:line: rule: message.

Stdlib only — must run on a bare CI image before any toolchain install.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Layer DAG (docs/ARCHITECTURE.md).  Direct dependencies; the checker takes
# the reflexive transitive closure because including a header of a
# transitive dependency is legal (the CMake link graph is PUBLIC).
# --------------------------------------------------------------------------

DIRECT_DEPS = {
    "util": set(),
    "obs": {"util"},
    "phy": {"obs", "util"},
    "mac": {"phy", "util"},
    "rate": {"phy"},
    "trace": {"mac", "phy", "util"},
    "core": {"trace", "mac", "phy", "util"},
    "sim": {"trace", "mac", "rate", "phy", "obs", "util"},
    "workload": {"sim", "phy", "util"},
    "exp": {"workload", "core", "obs"},
}

RULES = ("wall-clock", "unordered-iteration", "rng-seed", "layer-dag",
         "unchecked-parse")

EXTS = (".cpp", ".hpp", ".h", ".cc", ".hh")


def closure(layer: str) -> set:
    seen = {layer}
    work = [layer]
    while work:
        for dep in DIRECT_DEPS.get(work.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                work.append(dep)
    return seen


ALLOWED_INCLUDES = {layer: closure(layer) for layer in DIRECT_DEPS}


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


# --------------------------------------------------------------------------
# Comment / string stripping.  Line-oriented: the result has the same line
# numbering as the input, with comments and string/char literal *contents*
# blanked out (quotes kept so tokenization stays sane).
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                break
            out.append("\n")
            i = j + 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                j = n
            out.append("\n" * text.count("\n", i, j))
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            out.append(quote)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Suppressions: // wlan-lint: allow(rule-a, rule-b) — reason
# Collected from the ORIGINAL text (they live in comments).
# --------------------------------------------------------------------------

ALLOW_RE = re.compile(
    r"//\s*wlan-lint:\s*allow\(([a-z\-,\s]+)\)\s*(?:—|--|-)?\s*(.*)")


def collect_suppressions(lines):
    """Return ({line_no: set(rules)}, [Finding for malformed suppressions]).

    A suppression covers the line it sits on and, when it sits in a comment
    block, every remaining comment line of that block plus the first code
    line after it.  That lets a multi-line rationale comment carry the
    directive on its first line.
    """
    allowed = {}
    bad = []
    n = len(lines)
    for idx, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            if "wlan-lint:" in line and "allow" not in line:
                bad.append(Finding("", idx, "suppression",
                                   "unrecognized wlan-lint directive"))
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        reason = m.group(2).strip()
        unknown = rules - set(RULES)
        if unknown:
            bad.append(Finding("", idx, "suppression",
                               f"allow() names unknown rule(s): "
                               f"{', '.join(sorted(unknown))}"))
        if not reason:
            bad.append(Finding("", idx, "suppression",
                               "suppression without a reason — write "
                               "`// wlan-lint: allow(rule) — why`"))
            continue
        allowed.setdefault(idx, set()).update(rules)
        # Extend through the rest of the comment block to the next code line.
        k = idx + 1
        while k <= n and lines[k - 1].lstrip().startswith("//"):
            allowed.setdefault(k, set()).update(rules)
            k += 1
        if k <= n:
            allowed.setdefault(k, set()).update(rules)
    return allowed, bad


# --------------------------------------------------------------------------
# Rule: wall-clock
# --------------------------------------------------------------------------

WALL_CLOCK_PATTERNS = (
    (re.compile(r"std::chrono::(?:system_clock|steady_clock|"
                r"high_resolution_clock)"),
     "wall-clock read ({m}) — simulation state must advance on the "
     "simulated clock only"),
    (re.compile(r"std::random_device|(?<![\w:])random_device\b"),
     "std::random_device is non-deterministic — seed from util::mix_seed"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("),
     "C rand()/srand() — use util::Rng"),
    (re.compile(r"(?<![\w:.>])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "time() wall-clock read — runs must be pure functions of "
     "(seed, config)"),
    (re.compile(r"(?<![\w:.])(?:std::)?clock\s*\(\s*\)"),
     "clock() wall-clock read"),
    (re.compile(r"gettimeofday|clock_gettime"),
     "wall-clock syscall ({m})"),
)


def check_wall_clock(path, lines):
    findings = []
    for idx, line in enumerate(lines, start=1):
        for pat, msg in WALL_CLOCK_PATTERNS:
            m = pat.search(line)
            if m:
                findings.append(Finding(path, idx, "wall-clock",
                                        msg.format(m=m.group(0))))
    return findings


# --------------------------------------------------------------------------
# Rule: unordered-iteration
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{()]*?>[&\s]+(\w+)\s*[;={(,)]")
UNORDERED_TYPE_RE = re.compile(r"std::unordered_(?:map|set)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^)]*)\)")
BEGIN_RE = re.compile(r"(?<![\w.>:])(\w+)\s*[.]\s*(?:begin|cbegin)\s*\(")


def companion_header_text(path):
    """For foo.cpp, the stripped text of a sibling foo.hpp/h/hh (members of
    the class being implemented are declared there, not in the .cpp)."""
    stem, ext = os.path.splitext(path)
    if ext not in (".cpp", ".cc"):
        return ""
    for hext in (".hpp", ".h", ".hh"):
        hp = stem + hext
        if os.path.exists(hp):
            try:
                with open(hp, encoding="utf-8", errors="replace") as f:
                    return strip_comments_and_strings(f.read())
            except OSError:
                return ""
    return ""


def check_unordered_iteration(path, text, lines):
    findings = []
    # Pass 1: names whose declared type is an unordered container.  Covers
    # locals, parameters, and members declared in this file or its
    # companion header.
    names = set(UNORDERED_DECL_RE.findall(text))
    names |= set(UNORDERED_DECL_RE.findall(companion_header_text(path)))
    for idx, line in enumerate(lines, start=1):
        # Direct iteration over a just-declared-inline unordered type.
        for m in RANGE_FOR_RE.finditer(line):
            body = m.group(1)
            if ":" not in body:
                continue
            range_expr = body.rsplit(":", 1)[1]
            idents = set(re.findall(r"\b\w+\b", range_expr))
            if idents & names or UNORDERED_TYPE_RE.search(range_expr):
                findings.append(Finding(
                    path, idx, "unordered-iteration",
                    "range-for over std::unordered container "
                    f"({(idents & names) and sorted(idents & names)[0] or 'inline'}) — "
                    "iteration order is implementation-defined; sort first, "
                    "use util::FlatMap/a vector, or prove order-independence "
                    "and annotate"))
        for m in BEGIN_RE.finditer(line):
            if m.group(1) in names:
                findings.append(Finding(
                    path, idx, "unordered-iteration",
                    f"iterator walk over std::unordered container "
                    f"({m.group(1)}) — iteration order is "
                    "implementation-defined"))
    return findings


# --------------------------------------------------------------------------
# Rule: rng-seed
# --------------------------------------------------------------------------

# util::Rng construction forms: declarations with initializer, temporaries,
# assignments, and ctor-init-list entries whose member name contains "rng".
# Seed expressions may nest one level of parentheses (mix_seed(...) calls).
_ARGS = r"((?:[^(){}]|\([^()]*\))*)"
RNG_DECL_RE = re.compile(r"\b(?:util::)?Rng\s+\w+\s*[({]" + _ARGS + r"[)}]")
RNG_TEMP_RE = re.compile(r"\b(?:util::)?Rng\s*[({]" + _ARGS + r"[)}]")
RNG_INIT_LIST_RE = re.compile(
    r"\b(\w*rng\w*)\s*[({]" + _ARGS + r"[)}]\s*[,{]")

LITERAL_SEED_RE = re.compile(
    r"^\s*(?:0[xX][0-9a-fA-F']+|\d[\d']*)(?:[uU]?[lL]{0,2})?\s*$")
WALL_SEED_RE = re.compile(r"random_device|chrono|time\s*\(")


def seed_expr_findings(path, idx, expr):
    expr = expr.strip()
    if not expr:
        return []  # default-constructed: the documented fixed default stream
    if WALL_SEED_RE.search(expr):
        return [Finding(path, idx, "rng-seed",
                        f"util::Rng seeded from wall clock / random_device "
                        f"({expr!r}) — derive from util::mix_seed or a "
                        "config seed")]
    # Strip literal-only subexpressions: `0x1234 ^ 99ULL` is still literal.
    residue = re.sub(r"(?:0[xX][0-9a-fA-F']+|\b\d[\d']*)(?:[uU]?[lL]{0,2})?",
                     "", expr)
    if not re.search(r"[A-Za-z_]", residue):
        return [Finding(path, idx, "rng-seed",
                        f"util::Rng seeded from a literal ({expr!r}) — "
                        "literal seeds correlate streams; derive from "
                        "util::mix_seed or a config seed")]
    return []


def check_rng_seed(path, lines):
    findings = []
    for idx, line in enumerate(lines, start=1):
        seen_spans = []
        for pat, group in ((RNG_DECL_RE, 1), (RNG_TEMP_RE, 1)):
            for m in pat.finditer(line):
                span = m.span()
                if any(s[0] <= span[0] < s[1] for s in seen_spans):
                    continue
                seen_spans.append(span)
                findings.extend(seed_expr_findings(path, idx, m.group(group)))
        for m in RNG_INIT_LIST_RE.finditer(line):
            name = m.group(1)
            if "rng" not in name.lower():
                continue
            if any(s[0] <= m.start() < s[1] for s in seen_spans):
                continue
            findings.extend(seed_expr_findings(path, idx, m.group(2)))
    return findings


# --------------------------------------------------------------------------
# Rule: layer-dag
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def check_layer_dag(path, rel, lines):
    parts = rel.replace(os.sep, "/").split("/")
    if len(parts) < 3 or parts[0] != "src":
        return []  # bench/examples/tests may include anything
    layer = parts[1]
    allowed = ALLOWED_INCLUDES.get(layer)
    if allowed is None:
        return [Finding(path, 1, "layer-dag",
                        f"unknown layer directory src/{layer}/ — add it to "
                        "the DAG in docs/ARCHITECTURE.md and tools/wlan_lint.py")]
    findings = []
    for idx, line in enumerate(lines, start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        inc = m.group(1)
        inc_layer = inc.split("/", 1)[0]
        if inc_layer not in DIRECT_DEPS:
            continue  # non-layer include (local header, third-party)
        if inc_layer not in allowed:
            findings.append(Finding(
                path, idx, "layer-dag",
                f"src/{layer}/ must not include \"{inc}\" — the "
                f"architecture DAG permits {layer} -> "
                f"{{{', '.join(sorted(allowed - {layer})) or 'nothing'}}} only "
                "(docs/ARCHITECTURE.md)"))
    return findings


# --------------------------------------------------------------------------
# Rule: unchecked-parse
# --------------------------------------------------------------------------

# A bare call, a global ::atoi, or std::atoi — but not a member (x.atoi,
# p->atoi) or some other namespace's function of the same name.
ATOX_RE = re.compile(
    r"(?:(?<![\w:.>])|(?<![\w:])(?:std)?::)(ato(?:ll|l|i|f))\s*\(")


def check_unchecked_parse(path, lines):
    findings = []
    for idx, line in enumerate(lines, start=1):
        for m in ATOX_RE.finditer(line):
            findings.append(Finding(
                path, idx, "unchecked-parse",
                f"{m.group(1)}() turns a malformed number into 0 without an "
                "error — parse the whole token and reject junk "
                "(exp::parse_whole)"))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint_file(path, rel, active_rules):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Finding(path, 0, "io", str(e))]

    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw)
    code_lines = stripped.splitlines()
    # Keep line counts aligned even if the file ends without a newline.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")

    allowed, bad_suppressions = collect_suppressions(raw_lines)
    findings = []
    for f in bad_suppressions:
        f.path = path
        findings.append(f)

    checks = []
    if "wall-clock" in active_rules:
        checks.append(check_wall_clock(path, code_lines))
    if "unordered-iteration" in active_rules:
        checks.append(check_unordered_iteration(path, stripped, code_lines))
    if "rng-seed" in active_rules:
        checks.append(check_rng_seed(path, code_lines))
    if "unchecked-parse" in active_rules:
        checks.append(check_unchecked_parse(path, code_lines))
    if "layer-dag" in active_rules:
        # Raw lines: include paths are string literals, which the stripper
        # blanks.  INCLUDE_RE anchors at column 0 so comments can't match.
        checks.append(check_layer_dag(path, rel, raw_lines))

    for group in checks:
        for f in group:
            if f.rule in allowed.get(f.line, ()):
                continue
            findings.append(f)
    return findings


def iter_sources(root, paths):
    if paths:
        for p in paths:
            ap = os.path.abspath(p)
            if os.path.isdir(ap):
                yield from iter_sources(root, sorted(
                    os.path.join(ap, e) for e in os.listdir(ap)))
            elif ap.endswith(EXTS):
                yield ap
        return
    for sub in ("src", "bench", "examples"):
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(EXTS):
                    yield os.path.join(dirpath, name)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="wlan_lint",
        description="repo-specific determinism & layering lint "
                    "(see docs/STATIC_ANALYSIS.md)")
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src bench examples)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--rule", action="append", choices=RULES, default=None,
                    help="run only the named rule(s)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(__file__), os.pardir))
    active = tuple(args.rule) if args.rule else RULES

    all_findings = []
    nfiles = 0
    for path in iter_sources(root, args.paths):
        nfiles += 1
        rel = os.path.relpath(path, root)
        for f in lint_file(path, rel, active):
            f.path = os.path.relpath(f.path, root)
            all_findings.append(f)

    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in all_findings:
        print(f)
    if not args.quiet:
        status = "clean" if not all_findings else \
            f"{len(all_findings)} finding(s)"
        print(f"wlan_lint: {nfiles} file(s), {status}", file=sys.stderr)
    return 1 if all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
