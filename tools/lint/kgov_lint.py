#!/usr/bin/env python3
"""kgov project lint: repo-specific rules the compilers cannot express.

Rules (each suppressible on the offending line or the line above with
`// kgov-lint: allow(<rule>)`):

  options-validate   Every public `*Options` struct declared in a src/
                     header must declare `Status Validate() const;` so
                     consumers can fail fast on bad configurations.
  no-log-under-lock  No KGOV_LOG / KGOV_LOG_IF while a lock scope
                     (MutexLock / WriterMutexLock / ReaderMutexLock or a
                     std lock adapter) is open: the logging sink takes its
                     own mutex and does stderr I/O, so logging under a
                     lock serializes unrelated threads (and risks lock
                     cycles).
  raw-mutex          src/ code must use the annotated kgov::Mutex /
                     SharedMutex / MutexLock wrappers from
                     common/thread_annotations.h, not std::mutex and
                     friends, so clang thread-safety analysis sees every
                     critical section.
  unseeded-rng       No rand()/srand()/std::random_device outside the
                     corpus generator: experiments must be reproducible
                     from a fixed seed (kgov::Rng).
  nodiscard-status   common/status.h must keep Status and Result<T>
                     [[nodiscard]] and the root CMakeLists must keep
                     -Werror=unused-result, the pair that makes a dropped
                     Status a compile error.
  no-unchecked-io    A `std::ofstream` whose stream state is never checked
                     (.good()/.fail()/.bad() after the declaration), or a
                     bare `fwrite(...)` statement whose result is
                     discarded, silently loses data on a full disk or I/O
                     error. Durable writes must go through common/fs.h;
                     the rest must at least check the stream before
                     reporting success. (`is_open()` alone does not count:
                     it only proves the open succeeded, not the writes.)
  no-deprecated-eipd The assert-based EIPD evaluator shims (EipdEvaluator,
                     FastEipdEvaluator) and the deprecated EipdEngine
                     wrappers (RankAnswers* / SimilarityMany* families)
                     were deleted in favor of the StatusOr-returning
                     EipdEngine API; so were the kernel selector
                     (EipdKernel), multi-root batching (RankMulti,
                     MultiPropagationWorkspace), the degree-ordered CSR
                     layout (CsrLayout) and the condensation solver
                     (CondensationSgpSolver). This rule keeps them from
                     growing back. Use EipdEngine::Scores/Rank/Propagate
                     (and their *WithOverrides variants) instead.
  stream-status-api  Entry-point verbs in src/stream/ headers (Offer /
                     TryOffer / Drain* / Start / Stop / Close / Flush* /
                     Ingest* / Checkpoint* / Append*) must return Status,
                     StatusOr<T> or Result<T>. These are the pipeline's
                     backpressure, shutdown and durability surfaces, and
                     all three types are [[nodiscard]], so the signature
                     is what makes it impossible for a caller to silently
                     drop a queue-full, shed, or WAL-ordering error.
  condvar-naked-wait Every condition-variable wait in src/ must carry a
                     predicate: `cv.wait(lock)` alone (or wait_for /
                     wait_until with only a lock and a timeout, or the
                     MutexLock::Wait / WaitFor wrappers without a
                     predicate) returns on spurious wakeups and loses
                     races with notify, so the waiter's condition must be
                     re-checked by the wait itself. Argument counts tell
                     the forms apart, so the rule follows multi-line
                     calls.
  lock-rank-coverage Every kgov::Mutex / SharedMutex declared in src/
                     must be brace-initialized with a rank from
                     common/lock_ranks.h (`Mutex mu_{KGOV_LOCK_RANK(
                     kFoo)};`) so the debug-build lock-rank deadlock
                     detector (common/lock_rank.h) can check acquisition
                     order by rank class instead of falling back to
                     per-instance cycle detection. Deliberately unranked
                     locks are suppressed with the shorthand
                     `// kgov-lint: allow(lock-rank)` (the full rule name
                     also works).

Usage: kgov_lint.py [--root DIR] [--report FILE] [--file FILE]
With --file, only that file is linted (used by the CI canary that proves
the linter still catches a planted violation).
Exit status: 0 clean, 1 violations found.
"""

import argparse
import os
import re
import sys

ALLOW_RE = re.compile(r"//\s*kgov-lint:\s*allow\(([a-z0-9-]+)\)")

# Files whose job is to define the things other files are banned from.
# lock_rank.cc and sched.cc implement the instrumentation layer underneath
# the annotated wrappers (violation reporting, the schedule explorer's
# run-loop); they must use raw std primitives precisely because the
# wrappers call into them.
RAW_MUTEX_EXEMPT = {
    os.path.join("src", "common", "thread_annotations.h"),
    os.path.join("src", "common", "lock_rank.cc"),
    os.path.join("src", "common", "sched.cc"),
}
RNG_EXEMPT_PREFIXES = (os.path.join("src", "qa", "corpus"),)

LOCK_DECL_RE = re.compile(
    r"\b(?:MutexLock|WriterMutexLock|ReaderMutexLock)\s+\w+\s*[({]"
    r"|\bstd::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b[^;]*[({]")
LOG_RE = re.compile(r"\bKGOV_LOG(?:_IF|_EVERY_N)?\s*\(")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock)\b")
RNG_RE = re.compile(r"(?<![\w:])(?:s?rand)\s*\(|\bstd::random_device\b")
OPTIONS_STRUCT_RE = re.compile(r"^\s*struct\s+(\w*Options)\s*(?::[^{]*)?\{")
OFSTREAM_DECL_RE = re.compile(r"\bstd::ofstream\s+(\w+)\s*[({;]")
# A statement that begins with fwrite: its size_t result (items actually
# written) is being dropped.
FWRITE_STMT_RE = re.compile(r"^\s*(?:std::)?fwrite\s*\(")

# A condition-variable wait spelled as a member call. Which argument count
# makes the call "naked" (predicate-less) differs per spelling:
# cv.wait(lock) and lock.Wait(cv) take the predicate as a second argument,
# the timed forms (wait_for / wait_until / WaitFor) as a third. Longest
# alternatives first so `wait_for` is not split as `wait` + `_for`.
CV_WAIT_RE = re.compile(r"[.>]\s*(wait_for|wait_until|wait|WaitFor|Wait)\s*\(")
NAKED_WAIT_ARGC = {"wait": 1, "wait_for": 2, "wait_until": 2,
                   "Wait": 1, "WaitFor": 2}

# A kgov::Mutex / SharedMutex variable declaration. The optional capture
# holds the initializer opener; KGOV_LOCK_RANK must appear on the same
# (single-line) statement. References and pointers do not match: the
# charset between type and name excludes & and *.
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:(?:mutable|static|inline|thread_local)\s+)*"
    r"(?:kgov\s*::\s*)?(?:Mutex|SharedMutex)\s+(\w+)\s*[;{]")

# Deleted EIPD shims, deprecated wrapper methods, and the retired
# alternatives to the one kernel / one CSR layout / one serving path / one
# SGP solver stack (kernel selection, multi-root batching, degree-ordered
# CSR, condensation). Class names match as whole identifiers; the wrapper
# families match only as calls (the plain `Similarity(` spelling stays
# legal - qa::RandomWalkBaseline has one).
DEPRECATED_EIPD_RE = re.compile(
    r"\b(?:EipdEvaluator|FastEipdEvaluator|EipdKernel|RankMulti"
    r"|MultiPropagationWorkspace|CsrLayout|CondensationSgpSolver)\b"
    r"|\b(?:RankAnswers\w*|SimilarityMany\w*)\s*\(")

# A single-line declaration of a stream entry-point verb in a src/stream/
# header: optional attribute/specifiers, a return type (possibly a
# template), then the verb immediately followed by its parameter list.
# Member calls (`queue_.Close()`) do not match: the dot/arrow before the
# name is outside the return-type charset.
STREAM_API_PREFIX = os.path.join("src", "stream") + os.sep
STREAM_ENTRY_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?"
    r"(?:virtual\s+|static\s+|inline\s+|constexpr\s+|explicit\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<[^;()]*>)?[\s&*]+)"
    r"(Offer|TryOffer|Start|Stop|Close|Drain\w*|Flush\w*|Ingest\w*|"
    r"Checkpoint\w*|Append\w*)\s*\(")
STREAM_STATUS_RETURN_RE = re.compile(
    r"^(?:kgov\s*::\s*)?(?:Status|StatusOr\b|Result\b)")
STREAM_NON_TYPE_TOKENS = {
    "return", "co_return", "co_await", "co_yield", "throw", "delete",
    "new", "else", "case", "goto"}


def strip_comments_and_strings(line):
    """Removes // comments and the contents of string/char literals so the
    structural regexes cannot match inside them. Keeps the line length
    roughly stable (contents become spaces)."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        else:
            out.append(c)
        i += 1
    return "".join(out)


def blank_block_comments(stripped):
    """Blanks /* ... */ regions (line-granular, like the old in-loop pass)
    across a whole file of already string-stripped lines, so both the
    per-line rules and the multi-line call scanner see the same text."""
    out = []
    in_block = False
    for line in stripped:
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        out.append(line)
    return out


def count_call_args(blanked, line_idx, open_idx):
    """Counts the top-level arguments of a call whose opening paren sits at
    blanked[line_idx][open_idx], following the call across lines. Nested
    (), [] and {} (lambdas, constructor temporaries) shield their commas.
    Returns None if the parens never balance (macro soup: give up)."""
    depth = 0
    args = 0
    saw_token = False
    i, j = line_idx, open_idx
    while i < len(blanked):
        line = blanked[i]
        while j < len(line):
            c = line[j]
            if c in "([{":
                if depth >= 1:
                    saw_token = True
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth == 0:
                    return args + 1 if saw_token else 0
                saw_token = True
            elif depth == 1 and c == ",":
                args += 1
            elif depth >= 1 and not c.isspace():
                saw_token = True
            j += 1
        i += 1
        j = 0
    return None


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []  # (rule, relpath, line_number, message)

    def report(self, rule, relpath, lineno, message):
        self.violations.append((rule, relpath, lineno, message))

    def allowed(self, rule, lines, index):
        for look in (index, index - 1):
            if 0 <= look < len(lines):
                m = ALLOW_RE.search(lines[look])
                if m and m.group(1) == rule:
                    return True
        return False

    # -- per-file rules ---------------------------------------------------

    def lint_source(self, relpath, text):
        lines = text.split("\n")
        stripped = [strip_comments_and_strings(l) for l in lines]
        blanked = blank_block_comments(stripped)
        # The concurrency rules police production code; the compile_fail
        # canaries opt in so CI can prove each rule still fires.
        concurrency_scope = (relpath.startswith("src" + os.sep)
                             or "compile_fail" in relpath.split(os.sep))
        # Stack of brace depths at which a lock scope opened.
        lock_depths = []
        depth = 0
        for i, line in enumerate(blanked):
            if concurrency_scope:
                self.check_condvar_waits(relpath, lines, blanked, i, line)
                if relpath not in RAW_MUTEX_EXEMPT:
                    self.check_lock_rank_coverage(relpath, lines, i, line)

            if RAW_MUTEX_RE.search(line) and relpath.startswith("src" + os.sep):
                if relpath not in RAW_MUTEX_EXEMPT and not self.allowed(
                        "raw-mutex", lines, i):
                    self.report(
                        "raw-mutex", relpath, i + 1,
                        "use the annotated wrappers from "
                        "common/thread_annotations.h instead of std lock "
                        "types")

            if RNG_RE.search(line):
                if not relpath.startswith(RNG_EXEMPT_PREFIXES) and \
                        not self.allowed("unseeded-rng", lines, i):
                    self.report(
                        "unseeded-rng", relpath, i + 1,
                        "use kgov::Rng with an explicit seed (reproducible "
                        "experiments), not rand()/std::random_device")

            if LOCK_DECL_RE.search(line):
                # The lock's scope is the enclosing brace scope; it dies
                # when depth drops below the depth at the declaration.
                open_before = depth
                lock_depths.append(open_before)
            if LOG_RE.search(line) and lock_depths:
                if not self.allowed("no-log-under-lock", lines, i):
                    self.report(
                        "no-log-under-lock", relpath, i + 1,
                        "logging while holding a lock serializes unrelated "
                        "threads on the sink; emit after releasing")
            if DEPRECATED_EIPD_RE.search(line):
                if not self.allowed("no-deprecated-eipd", lines, i):
                    self.report(
                        "no-deprecated-eipd", relpath, i + 1,
                        "deprecated EIPD evaluator API; use the StatusOr-"
                        "returning EipdEngine::Scores/Rank/Propagate "
                        "(src/ppr/eipd_engine.h) instead")

            if FWRITE_STMT_RE.match(line):
                if not self.allowed("no-unchecked-io", lines, i):
                    self.report(
                        "no-unchecked-io", relpath, i + 1,
                        "fwrite result discarded; check the written count "
                        "(or use common/fs.h for durable writes)")

            m = OFSTREAM_DECL_RE.search(line)
            if m:
                var = m.group(1)
                check_re = re.compile(
                    r"\b" + re.escape(var) +
                    r"\s*\.\s*(?:good|fail|bad)\s*\(")
                if not any(check_re.search(later)
                           for later in stripped[i:]) and \
                        not self.allowed("no-unchecked-io", lines, i):
                    self.report(
                        "no-unchecked-io", relpath, i + 1,
                        "std::ofstream '" + var + "' is written but its "
                        "stream state is never checked (.good()/.fail()/"
                        ".bad()); a full disk would pass silently")

            for c in line:
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    while lock_depths and depth <= lock_depths[-1]:
                        lock_depths.pop()

    def check_condvar_waits(self, relpath, lines, blanked, i, line):
        for m in CV_WAIT_RE.finditer(line):
            name = m.group(1)
            argc = count_call_args(blanked, i, m.end() - 1)
            if argc != NAKED_WAIT_ARGC[name]:
                continue
            if self.allowed("condvar-naked-wait", lines, i):
                continue
            self.report(
                "condvar-naked-wait", relpath, i + 1,
                "'" + name + "' without a predicate: a naked condition-"
                "variable wait returns on spurious wakeups and loses "
                "notify races; pass the condition as a predicate "
                "(cv.wait(lock, pred) / lock.Wait(cv, pred))")

    def check_lock_rank_coverage(self, relpath, lines, i, line):
        m = MUTEX_DECL_RE.match(line)
        if not m or "KGOV_LOCK_RANK" in line:
            return
        if self.allowed("lock-rank", lines, i) or \
                self.allowed("lock-rank-coverage", lines, i):
            return
        self.report(
            "lock-rank-coverage", relpath, i + 1,
            "kgov::Mutex '" + m.group(1) + "' has no lock rank; "
            "brace-initialize with KGOV_LOCK_RANK(<rank>) from "
            "common/lock_ranks.h so the debug-build deadlock detector "
            "can order it, or mark deliberately unranked locks with "
            "// kgov-lint: allow(lock-rank)")

    def lint_options_structs(self, relpath, text):
        lines = text.split("\n")
        stripped = [strip_comments_and_strings(l) for l in lines]
        i = 0
        while i < len(lines):
            m = OPTIONS_STRUCT_RE.match(stripped[i])
            if not m:
                i += 1
                continue
            name = m.group(1)
            # Collect the struct body by brace matching.
            depth = 0
            body = []
            j = i
            while j < len(lines):
                for c in stripped[j]:
                    if c == "{":
                        depth += 1
                    elif c == "}":
                        depth -= 1
                body.append(stripped[j])
                if depth <= 0 and j > i:
                    break
                j += 1
            if not re.search(r"\bStatus\s+Validate\(\)\s*const\s*;",
                             "\n".join(body)):
                if not self.allowed("options-validate", lines, i):
                    self.report(
                        "options-validate", relpath, i + 1,
                        "struct " + name + " has no `Status Validate() "
                        "const;` - every public options struct must be "
                        "checkable before use")
            i = j + 1

    def lint_stream_api(self, relpath, text):
        lines = text.split("\n")
        stripped = [strip_comments_and_strings(l) for l in lines]
        for i, line in enumerate(stripped):
            m = STREAM_ENTRY_RE.match(line)
            if not m:
                continue
            ret = m.group(1).strip().rstrip("&* \t")
            name = m.group(2)
            if ret in STREAM_NON_TYPE_TOKENS:
                continue
            if STREAM_STATUS_RETURN_RE.match(ret):
                continue
            if not self.allowed("stream-status-api", lines, i):
                self.report(
                    "stream-status-api", relpath, i + 1,
                    "stream entry point " + name + "() returns '" + ret +
                    "'; ingestion/drain/lifecycle verbs in src/stream/ "
                    "must return Status, StatusOr<T> or Result<T> "
                    "([[nodiscard]]) so callers cannot drop a queue-full, "
                    "shed, or WAL-ordering error")

    # -- repo-level rules -------------------------------------------------

    def lint_nodiscard_status(self):
        status_h = os.path.join(self.root, "src", "common", "status.h")
        root_cmake = os.path.join(self.root, "CMakeLists.txt")
        try:
            status_text = open(status_h, encoding="utf-8").read()
        except OSError:
            self.report("nodiscard-status", "src/common/status.h", 1,
                        "missing src/common/status.h")
            return
        if "class [[nodiscard]] Status" not in status_text:
            self.report("nodiscard-status", "src/common/status.h", 1,
                        "Status lost its [[nodiscard]] attribute")
        if "class [[nodiscard]] Result" not in status_text:
            self.report("nodiscard-status", "src/common/status.h", 1,
                        "Result<T> lost its [[nodiscard]] attribute")
        cmake_text = open(root_cmake, encoding="utf-8").read()
        if "-Werror=unused-result" not in cmake_text:
            self.report("nodiscard-status", "CMakeLists.txt", 1,
                        "root CMakeLists.txt lost -Werror=unused-result")

    # -- driver -----------------------------------------------------------

    def run_single(self, path):
        """Lints one file (the per-file rules only); used by the CI canary."""
        full = os.path.abspath(path)
        relpath = os.path.relpath(full, self.root)
        text = open(full, encoding="utf-8").read()
        self.lint_source(relpath, text)
        if full.endswith(".h") and relpath.startswith("src" + os.sep):
            self.lint_options_structs(relpath, text)
        if full.endswith(".h") and relpath.startswith(STREAM_API_PREFIX):
            self.lint_stream_api(relpath, text)
        return self.violations

    def run(self):
        scan_roots = ["src", "examples", "bench", "tests", "tools"]
        for scan_root in scan_roots:
            top = os.path.join(self.root, scan_root)
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames[:] = [d for d in dirnames
                               if d not in ("CMakeFiles", "compile_fail")]
                for fname in sorted(filenames):
                    if not fname.endswith((".h", ".cc", ".cpp")):
                        continue
                    full = os.path.join(dirpath, fname)
                    relpath = os.path.relpath(full, self.root)
                    text = open(full, encoding="utf-8").read()
                    self.lint_source(relpath, text)
                    if fname.endswith(".h") and relpath.startswith(
                            "src" + os.sep):
                        self.lint_options_structs(relpath, text)
                    if fname.endswith(".h") and relpath.startswith(
                            STREAM_API_PREFIX):
                        self.lint_stream_api(relpath, text)
        self.lint_nodiscard_status()
        return self.violations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up "
                             "from this script)")
    parser.add_argument("--report", default=None,
                        help="also write the findings to this file")
    parser.add_argument("--file", default=None,
                        help="lint only this file (per-file rules)")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    linter = Linter(root)
    violations = linter.run_single(args.file) if args.file else linter.run()

    lines = []
    for rule, relpath, lineno, message in violations:
        lines.append(f"{relpath}:{lineno}: [{rule}] {message}")
    summary = (f"kgov_lint: {len(violations)} violation(s)"
               if violations else "kgov_lint: clean")
    output = "\n".join(lines + [summary]) + "\n"
    sys.stdout.write(output)
    if args.report:
        os.makedirs(os.path.dirname(os.path.abspath(args.report)),
                    exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(output)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
