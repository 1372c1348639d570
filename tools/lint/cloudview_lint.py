#!/usr/bin/env python3
"""cloudview-lint: the repo-specific determinism & hot-path linter.

Enforces the contracts that keep cloudview's headline claims true --
bit-identical parallel solves, exact Money arithmetic, an
allocation-free probe hot path -- as machine-checked rules instead of
comments (DESIGN.md SS12):

  D1  no nondeterministic seeding: std::random_device, rand()/srand(),
      time()-derived seeds, or raw std engines outside common/random.*.
      Every stochastic component draws from cloudview::Rng, seeded
      explicitly.
  D2  no std::unordered_map / std::unordered_set in determinism-critical
      reduction files (solver_*.cc, pareto.*, temporal_planner.*,
      scenario.cc, timeline.*): unordered iteration order varies across
      standard libraries, and these files feed ordered output or
      floating-point accumulation.
  D3  no ==/!= on floating-point values (float literals, identifiers
      declared double/float in the same file, or known double-returning
      calls). Money compares exactly; doubles compare by epsilon or
      sign tests.
  H1  no new / malloc / std::map / std::function, and no Result / Status
      (probes cannot fail), in the probe hot path: the SubsetState /
      SelectionEvaluator::FastTotalCost|FastTotalCostFloor|ComputeBill /
      SolverContext::Probe*|HillClimb|ScoreState|CachedEntry /
      EvaluationCache::Find|Insert / SearchNode::LowerBound definitions,
      out of line or inside the class, signature and body
      (DESIGN.md SS11, SS12.2).
  S1  every `mutable` member must document its synchronization: either
      a CLOUDVIEW_GUARDED_BY annotation or a `thread-compat:` comment
      tag within the preceding lines (memoizing const methods are safe
      only under a stated discipline; DESIGN.md SS9.2).

Suppression (each occurrence, never blanket):

    some_call();  // cloudview-lint: disable=D1 (reason why it is safe)

A suppression without a parenthesized reason is itself an error.

Implementation: a resilient comment/string-aware tokenizer over each
file; when the optional libclang python bindings are importable (and
--libclang=auto, the default), D3 additionally consults the AST to
confirm identifier comparisons, falling back to the tokenizer on any
failure. The tokenizer path has no dependencies beyond the standard
library and is the one exercised by the ctest fixture suite
(tools/lint/testdata/, `ctest -R cloudview_lint`).

Usage:
    cloudview_lint.py [--libclang=auto|never] PATH [PATH ...]
    cloudview_lint.py --self-test
"""

import argparse
import os
import re
import sys

RULES = {
    "D1": "nondeterministic seed source outside common/random.*",
    "D2": "unordered container in a determinism-critical file",
    "D3": "floating-point ==/!= comparison",
    "H1": "allocation, node container or error plumbing in the probe "
          "hot path",
    "S1": "mutable member without a synchronization contract",
}

# Files rule D2 applies to (basename patterns). scenario.cc and the
# solver/pareto/temporal files are the ISSUE's reduction set; timeline.*
# joined after Drift()'s unordered float accumulation (fixed in this
# pass) showed the same hazard lives there.
D2_FILE_PATTERNS = [
    r"^solver_.*\.cc$",
    r"^solver\.(h|cc)$",
    r"^pareto\.(h|cc)$",
    r"^temporal_planner\.(h|cc)$",
    r"^scenario\.cc$",
    r"^timeline\.(h|cc)$",
]

# Rule H1 scope: these methods of these classes, defined out of line
# (Class::Method) or inside their class body (DESIGN.md SS11 hot path:
# the incremental probe layer, the monetary fast path, the evaluation
# memo and the branch-and-bound node bound).
H1_HOT_METHODS = {
    "SubsetState": r"\w+",
    "SelectionEvaluator": r"FastTotalCost(?:Floor)?|ComputeBill",
    "SolverContext": r"Probe\w*|HillClimb|ScoreState|CachedEntry",
    "EvaluationCache": r"Find|Insert",
    "SearchNode": r"LowerBound",
}
H1_METHOD_RE = re.compile(
    r"\b(?:%s)\s*\(" % "|".join(
        "%s::(?:%s)" % kv for kv in H1_HOT_METHODS.items()))
H1_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(%s)\b[^;{}()]*\{" % "|".join(H1_HOT_METHODS))

# D1: seeding primitives that break bit-reproducibility.
D1_TOKEN_RE = re.compile(
    r"std::random_device|\brandom_device\b"
    r"|\bs?rand\s*\("
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w+|knuth_b)\b"
    r"|(?:system_clock|steady_clock|high_resolution_clock)::now\s*\(\s*\)"
    r"[^;\n]*seed"
)
D1_EXEMPT_PATTERNS = [r"^random\.(h|cc)$"]

D2_TOKEN_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")

H1_TOKEN_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|std::map\b|std::multimap\b"
    r"|std::function\b"
    r"|\bResult\s*<|\bStatus\b|\bCV_ASSIGN_OR_RETURN\b|\bCV_RETURN_IF_ERROR\b"
)

FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fF]?"
# Calls whose double results must never be ==-compared (raw-double
# views of exact quantities, objective blends, drift metrics).
D3_DOUBLE_CALLS = (
    r"(?:ToDouble|ToUnitsF|AsDouble|UniformDouble|TradeoffObjective"
    r"|HardViolationBlend|Drift|theta|total_variation)\s*\(\s*\)?"
)

SUPPRESS_RE = re.compile(
    r"cloudview-lint:\s*disable=([A-Z]\d(?:\s*,\s*[A-Z]\d)*)\s*(\([^)]+\))?"
)

DECL_DOUBLE_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[=;,)\]{]")

MUTABLE_RE = re.compile(r"^\s*mutable\b")
# Self-synchronizing member types S1 does not apply to: a mutex IS the
# synchronization, and atomics carry their own ordering contract.
S1_EXEMPT_RE = re.compile(
    r"^\s*mutable\s+(?:\w+::)*(?:Mutex|mutex|shared_mutex|CondVar"
    r"|condition_variable\w*|atomic\b|std::atomic)")

CPP_EXTENSIONS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_code(text):
    """Returns (code_lines, comment_lines): per input line, the code
    with comments and string/char literal *contents* blanked, and the
    comment text (for suppression / contract-tag scanning)."""
    code = []
    comments = []
    cur_code = []
    cur_comment = []
    state = "code"  # code | line_comment | block_comment | string | char
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state in ("line_comment", "string", "char"):
                state = "code"  # unterminated literals never span lines
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                # R"(...)" raw strings: skip to the closing delimiter.
                if cur_code and cur_code[-1:] == ["R"]:
                    m = re.match(r'"([^(]*)\(', text[i:])
                    if m:
                        close = ")" + m.group(1) + '"'
                        end = text.find(close, i)
                        if end != -1:
                            cur_code.append('""')
                            i = end + len(close)
                            continue
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(ch)
            i += 1
        elif state == "line_comment":
            cur_comment.append(ch)
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                cur_comment.append(ch)
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                cur_code.append(quote)
                state = "code"
            i += 1
    code.append("".join(cur_code))
    comments.append("".join(cur_comment))
    return code, comments


def parse_suppressions(comments, path):
    """Returns ({line_no: set(rules)}, [Finding for bad suppressions]).
    A suppression covers its own line and the line below (so it can sit
    above the offending statement)."""
    suppressed = {}
    bad = []
    for idx, comment in enumerate(comments):
        if "cloudview-lint:" not in comment:
            continue
        m = SUPPRESS_RE.search(comment)
        line_no = idx + 1
        if not m:
            bad.append(Finding(path, line_no, "S0",
                               "malformed cloudview-lint directive "
                               "(want: cloudview-lint: disable=<rule> "
                               "(<reason>))"))
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        unknown = rules - set(RULES)
        if unknown:
            bad.append(Finding(path, line_no, "S0",
                               "unknown rule(s) in suppression: %s"
                               % ", ".join(sorted(unknown))))
        if not m.group(2) or len(m.group(2).strip("() \t")) < 3:
            bad.append(Finding(path, line_no, "S0",
                               "suppression without a documented reason "
                               "— every disable needs (<why it is safe>)"))
            continue
        for covered in (line_no, line_no + 1):
            suppressed.setdefault(covered, set()).update(rules)
    return suppressed, bad


def matches_any(basename, patterns):
    return any(re.match(p, basename) for p in patterns)


def definition_lines(text, name_start, paren):
    """Line numbers (1-based) of the definition whose name starts at
    `name_start` and whose parameter list opens at `paren` -- the
    signature (return type included, also when it sits alone on the line
    above the name) through the closing brace -- or an empty range for a
    declaration (a ';' before the '{')."""
    line_start = text.rfind("\n", 0, name_start) + 1
    sig_line = text.count("\n", 0, name_start) + 1
    if not text[line_start:name_start].strip() and sig_line > 1:
        sig_line -= 1
    i = paren
    depth_paren = 0
    body_start = None
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth_paren += 1
        elif ch == ")":
            depth_paren -= 1
        elif ch == ";" and depth_paren == 0:
            break
        elif ch == "{" and depth_paren == 0:
            body_start = i
            break
        i += 1
    if body_start is None:
        return range(0)
    end = matching_brace(text, body_start)
    return range(sig_line, text.count("\n", 0, end) + 2)


def matching_brace(text, open_at):
    """Index of the '}' closing the '{' at `open_at` (or len(text))."""
    depth = 0
    for j in range(open_at, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(text)


def hot_definition_lines(code_lines):
    """Line numbers (1-based) of every H1-scoped definition in
    comment-stripped code: out-of-line Class::Method definitions, and
    the hot methods a class body defines inline (members at the body's
    top level, not calls inside other members' bodies)."""
    text = "\n".join(code_lines)
    hot = set()
    for m in H1_METHOD_RE.finditer(text):
        hot.update(definition_lines(text, m.start(), m.end() - 1))
    for cm in H1_CLASS_RE.finditer(text):
        body_start = cm.end() - 1
        body_end = matching_brace(text, body_start)
        name_re = re.compile(r"\b(?:%s)\s*\(" % H1_HOT_METHODS[cm.group(1)])
        depth = 0
        depth_at = []
        for ch in text[body_start:body_end]:
            if ch == "{":
                depth += 1
            depth_at.append(depth)
            if ch == "}":
                depth -= 1
        for m in name_re.finditer(text, body_start, body_end):
            if depth_at[m.start() - body_start] != 1:
                continue
            hot.update(definition_lines(text, m.start(), m.end() - 1))
    return hot


def try_libclang_double_compares(path, mode):
    """AST-based D3: returns a set of 1-based lines with float ==/!=
    comparisons, or None when libclang is unavailable/failed (caller
    falls back to the tokenizer heuristics)."""
    if mode == "never":
        return None
    try:
        from clang import cindex  # noqa: deferred optional import

        index = cindex.Index.create()
        tu = index.parse(path, args=["-std=c++20"])
        lines = set()

        def visit(node):
            if node.kind == cindex.CursorKind.BINARY_OPERATOR:
                children = list(node.get_children())
                if len(children) == 2:
                    tokens = [t.spelling for t in node.get_tokens()]
                    if ("==" in tokens or "!=" in tokens) and any(
                            c.type.get_canonical().kind in
                            (cindex.TypeKind.FLOAT, cindex.TypeKind.DOUBLE,
                             cindex.TypeKind.LONGDOUBLE)
                            for c in children):
                        lines.add(node.location.line)
            for child in node.get_children():
                visit(child)

        visit(tu.cursor)
        return lines
    except Exception:  # any failure -> tokenizer fallback
        return None


def lint_file(path, libclang_mode="auto", basename_override=None):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Finding(path, 0, "S0", "unreadable: %s" % e)]

    basename = basename_override or os.path.basename(path)
    code_lines, comment_lines = strip_code(text)
    suppressed, findings = parse_suppressions(comment_lines, path)

    def report(line_no, rule, message):
        if rule in suppressed.get(line_no, set()):
            return
        findings.append(Finding(path, line_no, rule, message))

    # --- D1 ---------------------------------------------------------
    if not matches_any(basename, D1_EXEMPT_PATTERNS):
        for idx, line in enumerate(code_lines):
            m = D1_TOKEN_RE.search(line)
            if m:
                report(idx + 1, "D1",
                       "nondeterministic seed source '%s' — draw from "
                       "cloudview::Rng with an explicit seed "
                       "(common/random.h)" % m.group(0).strip())

    # --- D2 ---------------------------------------------------------
    if matches_any(basename, D2_FILE_PATTERNS):
        for idx, line in enumerate(code_lines):
            m = D2_TOKEN_RE.search(line)
            if m:
                report(idx + 1, "D2",
                       "'%s' in a determinism-critical file — iteration "
                       "order varies across standard libraries; use an "
                       "ordered container or index-keyed vectors"
                       % m.group(0))

    # --- D3 ---------------------------------------------------------
    ast_lines = try_libclang_double_compares(path, libclang_mode)
    declared_doubles = set()
    for line in code_lines:
        for m in DECL_DOUBLE_RE.finditer(line):
            declared_doubles.add(m.group(1))
    cmp_re = re.compile(r"(\S+)\s*(==|!=)\s*(\S+)")
    for idx, line in enumerate(code_lines):
        if ast_lines is not None and (idx + 1) in ast_lines:
            report(idx + 1, "D3",
                   "floating-point ==/!= comparison (libclang) — "
                   "compare with an epsilon or restructure as sign "
                   "tests")
            continue
        for m in cmp_re.finditer(line):
            lhs, _, rhs = m.groups()
            operands = (lhs, rhs)
            is_float = False
            for op in operands:
                if re.fullmatch(r"\(?(%s)\)?[;,)]*" % FLOAT_LITERAL, op):
                    is_float = True
                stripped = op.strip("();,!&|")
                if stripped in declared_doubles:
                    is_float = True
            if re.search(D3_DOUBLE_CALLS + r"\s*(==|!=)", line) or \
                    re.search(r"(==|!=)\s*\S*" + D3_DOUBLE_CALLS, line):
                is_float = True
            if is_float:
                report(idx + 1, "D3",
                       "floating-point ==/!= comparison — compare with "
                       "an epsilon or restructure as sign tests "
                       "(Money compares exactly; doubles do not)")
                break  # one finding per line

    # --- H1 ---------------------------------------------------------
    h1_lines = hot_definition_lines(code_lines)
    for idx in sorted(h1_lines):
        if idx > len(code_lines):
            continue
        line = code_lines[idx - 1]
        m = H1_TOKEN_RE.search(line)
        if m:
            report(idx, "H1",
                   "'%s' in the probe hot path — SubsetState, "
                   "FastTotalCost and the SolverContext probes must stay "
                   "allocation-free and infallible (DESIGN.md SS11, "
                   "SS12.2); use flat scratch buffers and return plain "
                   "values" % m.group(0).strip())

    # --- S1 ---------------------------------------------------------
    for idx, line in enumerate(code_lines):
        if not MUTABLE_RE.match(line) or S1_EXEMPT_RE.match(line):
            continue
        window_lo = max(0, idx - 8)
        window_code = code_lines[window_lo:idx + 1]
        window_comments = comment_lines[window_lo:idx + 1]
        documented = any("CLOUDVIEW_GUARDED_BY" in l for l in window_code)
        documented = documented or any(
            "thread-compat:" in c for c in window_comments)
        if not documented:
            report(idx + 1, "S1",
                   "mutable member without a synchronization contract — "
                   "annotate with CLOUDVIEW_GUARDED_BY(mu) or document "
                   "the discipline with a '// thread-compat: ...' tag "
                   "within the preceding lines")

    return findings


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "testdata")
            for name in sorted(names):
                if name.endswith(CPP_EXTENSIONS):
                    files.append(os.path.join(root, name))
    return files


def run_lint(paths, libclang_mode):
    findings = []
    for path in collect_files(paths):
        findings.extend(lint_file(path, libclang_mode))
    for finding in findings:
        print(finding)
    if findings:
        counts = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        summary = ", ".join("%s: %d" % kv for kv in sorted(counts.items()))
        print("cloudview-lint: %d finding(s) (%s)" % (len(findings),
                                                      summary))
        return 1
    print("cloudview-lint: clean")
    return 0


def run_self_test(libclang_mode):
    """Every <rule>_violation fixture must fire its rule; every
    <rule>_clean fixture must be silent. Fixture naming:
    <rule>_<violation|clean>__<effective-basename>.fixture — the part
    after '__' is the basename the file-scoped rules (D2, D1's
    exemption) see, so fixtures can impersonate in-scope files without
    colliding with the formatter (nothing here ends in .cc).
    Regression-tests the linter itself (ctest: cloudview_lint_selftest).
    """
    testdata = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "testdata")
    failures = []
    checked = 0
    fixture_re = re.compile(r"([a-z]\d)_(violation|clean)__(.+)\.fixture$")
    for name in sorted(os.listdir(testdata)):
        if not name.endswith(".fixture") or name.startswith("suppress_"):
            continue
        path = os.path.join(testdata, name)
        m = fixture_re.match(name)
        if not m:
            failures.append("%s: fixture name must be "
                            "<rule>_<violation|clean>__<basename>.fixture"
                            % name)
            continue
        rule, kind, basename = (m.group(1).upper(), m.group(2),
                                m.group(3))
        checked += 1
        found_rules = {f.rule
                       for f in lint_file(path, libclang_mode,
                                          basename_override=basename)}
        if kind == "violation" and rule not in found_rules:
            failures.append("%s: expected a %s finding, got %s"
                            % (name, rule, sorted(found_rules) or "none"))
        elif kind == "clean" and found_rules:
            failures.append("%s: expected clean, got %s"
                            % (name, sorted(found_rules)))
    # The suppression contract: a documented disable silences the rule,
    # an undocumented one is an S0 error.
    documented = os.path.join(testdata, "suppress_documented.fixture")
    undocumented = os.path.join(testdata, "suppress_undocumented.fixture")
    for required in (documented, undocumented):
        if not os.path.exists(required):
            failures.append("%s: fixture missing" % required)
    if os.path.exists(documented):
        checked += 1
        rules = {f.rule for f in lint_file(documented, libclang_mode)}
        if rules:
            failures.append("suppress_documented: expected clean, got %s"
                            % sorted(rules))
    if os.path.exists(undocumented):
        checked += 1
        rules = {f.rule for f in lint_file(undocumented, libclang_mode)}
        if rules != {"S0", "D1"}:
            failures.append("suppress_undocumented: expected S0 plus the "
                            "unsuppressed D1, got %s" % sorted(rules))
    expected = 2 * len(RULES) + 2  # violation+clean per rule, 2 suppress
    if checked < expected:
        failures.append("only %d fixture(s) found, want >= %d (a "
                        "violating and a clean fixture per rule plus "
                        "the two suppression fixtures)"
                        % (checked, expected))
    if failures:
        for failure in failures:
            print("SELF-TEST FAIL: %s" % failure)
        return 1
    print("cloudview-lint self-test: %d fixture(s) OK" % checked)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="cloudview determinism & hot-path linter")
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--self-test", action="store_true",
                        help="run the testdata/ fixture suite")
    parser.add_argument("--libclang", choices=("auto", "never"),
                        default="auto",
                        help="use libclang for D3 when importable "
                             "(default: auto; tokenizer fallback always "
                             "available)")
    args = parser.parse_args(argv)
    if args.self_test:
        return run_self_test(args.libclang)
    if not args.paths:
        parser.error("no paths given (or use --self-test)")
    return run_lint(args.paths, args.libclang)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
