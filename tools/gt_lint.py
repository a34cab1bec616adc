#!/usr/bin/env python3
"""Repo lint gate for GraphTrek's concurrency rules.

Checks (all scoped to src/):
  1. Raw synchronization primitives (std::mutex, std::lock_guard,
     std::unique_lock, std::scoped_lock, std::shared_mutex, std::shared_lock,
     std::condition_variable and their headers) are allowed only in
     src/common/sync.h. Everything else must use the annotated gt::Mutex /
     gt::MutexLock / gt::CondVar wrappers so Clang Thread Safety Analysis
     (-DGT_ANALYZE=ON) sees every lock.
  2. Naked std::thread is allowed only in the sanctioned thread owners:
     the thread pool and the transport listener/delivery/timer loops.
  3. The #include graph over "src/..." headers must be acyclic.
  4. Direct POSIX file-system calls (::open, ::rename, ::fsync, ...) are
     allowed only in src/kv/env.cc. The rest of src/kv must go through the
     Env interface, or crash-fault injection (CrashFaultEnv) cannot see the
     operation and the durability rules in DESIGN.md cannot be enforced.
  5. Ad-hoc console output (std::cout/std::cerr, bare printf, fprintf to
     stdout/stderr, puts/fputs to the standard streams) is banned in src/:
     diagnostics go through src/common/logging.cc (GT_INFO/GT_WARN/...) and
     statistics go through the metrics registry (src/common/metrics.cc),
     whose exposition the tools/benches print. Hand-rolled stat dumps
     bit-rot and fork the observability story.
  6. Raw KV reads (db()->Get / db()->ScanPrefix / db()->NewIterator) are
     banned in src/engine: traversal hot paths must go through the
     GraphStore read/cache APIs (GetVertex, ScanEdges, ScanAllEdges,
     ScanVerticesByType) so every access flows through the
     adjacency cache, the device-model charge, and the access interceptor.
     A per-vertex db()->ScanPrefix in the engine silently bypasses all
     three and the evaluation numbers stop meaning anything.
  7. Travel-keyed containers in src/engine (std::map / std::unordered_map /
     std::set / std::unordered_set with a TravelId key, or a std::pair key
     holding one) are allowed only on an allowlist: the server's per-travel
     record map (BackendServer::locals_), the coordinator table, the
     test-only retained snapshots, the abort tombstones and the client's
     finished-travel set. Everything else a travel holds on a server
     belongs in its TravelLocal record, which the abort path erases whole;
     a second travel-keyed map is one more erase to forget. Each
     allowlisted container must have a matching `<member>.erase(` somewhere
     in src/engine: per-travel state with no erase path is exactly the
     orphaned-travel bug class the abort/cancellation protocol exists to
     prevent, growing forever once clients time out or cancel.
  8. Decode discipline in the wire/storage decode dirs (src/rpc, src/kv,
     src/lang): raw byte decoding — DecodeFixed*(ptr), memcpy, or
     reinterpret_cast — is banned outside the bounds-checked CheckedReader
     (src/common/codec.h); pointer-arithmetic decodes are exactly where the
     OOB/overflow bugs on untrusted input live. The sockaddr casts that the
     socket API forces on tcp_transport.cc are allowlisted. Additionally,
     every Decode* function defined in those dirs must return Status,
     Result<...> or bool — malformed input must surface as a value the
     caller checks, never as an assert or a void best-effort parse.
  9. Reader discipline in the same dirs plus the payload codecs in
     src/engine/types.h: every Decode* body must read through a
     CheckedReader (parameter, local construction, or delegation to another
     Decode*). New plan/payload fields — the versioned ext tails in
     particular — must never grow a hand-walked byte read.
  10. No discarded Status in src/engine: a statement that ends in
     `.ok();` (outside an assignment or a return) throws a store or
     transport error away, and the engine then turns it into an empty or
     wrong answer. Handle the Status: fail the travel with it, or log it
     where the failure costs nothing but a leftover (see cluster.cc).
  11. (warn-only) clang-format clean-ness of files changed vs HEAD, when
     clang-format is installed.

Exit status: 0 when checks 1-10 pass; 1 otherwise. Check 11 never fails the
run — it only prints warnings.
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# The one file allowed to own raw primitives.
SYNC_H = "src/common/sync.h"

# Sanctioned owners of raw std::thread (long-lived I/O loops that cannot run
# on a pool: they block in accept()/recv()/timed waits for their whole life).
THREAD_ALLOWLIST = {
    "src/common/thread_pool.h",
    "src/common/thread_pool.cc",
    "src/rpc/inproc_transport.h",
    "src/rpc/inproc_transport.cc",
    "src/rpc/tcp_transport.h",
    "src/rpc/tcp_transport.cc",
    "src/rpc/fault_transport.h",
    "src/rpc/fault_transport.cc",
}

PRIMITIVE_RE = re.compile(
    r"std::(mutex|lock_guard|unique_lock|scoped_lock|shared_mutex|shared_lock|"
    r"condition_variable(_any)?)\b"
)
PRIMITIVE_INCLUDE_RE = re.compile(r'#\s*include\s*<(mutex|condition_variable|shared_mutex)>')
# std::thread but not std::this_thread.
THREAD_RE = re.compile(r"std::thread\b")
INCLUDE_RE = re.compile(r'#\s*include\s*"(src/[^"]+)"')

# The files allowed to write to the standard streams: the logger's sink and
# the registry's exposition formatter.
CONSOLE_ALLOWLIST = {
    "src/common/logging.cc",
    "src/common/metrics.cc",
}
CONSOLE_RE = re.compile(
    r"std::c(?:out|err)\b"
    r"|(?<![\w:])(?:std::)?printf\s*\("
    r"|(?<![\w:])(?:std::)?fprintf\s*\(\s*(?:stdout|stderr)\b"
    r"|(?<![\w:])(?:std::)?puts\s*\("
    r"|(?<![\w:])(?:std::)?fputs\s*\([^()\n]*,\s*(?:stdout|stderr)\s*\)"
)

# The one file in src/kv allowed to call the kernel directly.
KV_ENV_CC = "src/kv/env.cc"
# Globally-qualified POSIX file-system calls. The lookbehind keeps
# qualified names like std::remove from matching.
POSIX_FS_RE = re.compile(
    r"(?<![\w:])::(open|openat|close|read|write|pread|pwrite|lseek|rename|renameat|"
    r"unlink|unlinkat|remove|truncate|ftruncate|fsync|fdatasync|sync_file_range|"
    r"mkdir|rmdir|opendir|readdir|closedir|stat|fstat|lstat|access)\s*\("
)


def strip_comments(text):
    """Removes // and /* */ comments and string literals (crudely but enough
    for token matching; keeps line structure so line numbers stay right)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
        elif c == "'":
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def src_files():
    for root, _dirs, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                path = os.path.join(root, name)
                yield os.path.relpath(path, REPO).replace(os.sep, "/")


def check_primitives(files):
    errors = []
    for rel in files:
        if rel == SYNC_H:
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = PRIMITIVE_RE.search(line) or PRIMITIVE_INCLUDE_RE.search(line)
            if m:
                errors.append(
                    f"{rel}:{lineno}: raw primitive '{m.group(0).strip()}' — use the "
                    f"annotated wrappers from {SYNC_H} instead"
                )
    return errors


def check_threads(files):
    errors = []
    for rel in files:
        if rel in THREAD_ALLOWLIST:
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            # Mask std::this_thread before looking for std::thread.
            masked = line.replace("std::this_thread", "")
            if THREAD_RE.search(masked):
                errors.append(
                    f"{rel}:{lineno}: naked std::thread — submit work to gt::ThreadPool "
                    f"(or add the file to THREAD_ALLOWLIST with justification)"
                )
    return errors


def check_kv_posix(files):
    errors = []
    for rel in files:
        if not rel.startswith("src/kv/") or rel == KV_ENV_CC:
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = POSIX_FS_RE.search(line)
            if m:
                errors.append(
                    f"{rel}:{lineno}: direct POSIX call '::{m.group(1)}' — go through "
                    f"Env (only {KV_ENV_CC} may touch the kernel, so fault injection "
                    f"sees every file operation)"
                )
    return errors


def check_console_output(files):
    errors = []
    for rel in files:
        if rel in CONSOLE_ALLOWLIST:
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = CONSOLE_RE.search(line)
            if m:
                errors.append(
                    f"{rel}:{lineno}: ad-hoc console output '{m.group(0).strip()}' — "
                    f"log through GT_INFO/GT_WARN and report statistics through the "
                    f"metrics registry (src/common/metrics.h)"
                )
    return errors


# Raw KV read entry points the engine must not call (writes are fine: the
# engine has no KV write path, mutations go through GraphStore).
ENGINE_RAW_KV_RE = re.compile(r"\bdb\s*\(\s*\)\s*->\s*(Get|ScanPrefix|NewIterator)\b")


def check_engine_raw_kv(files):
    errors = []
    for rel in files:
        if not rel.startswith("src/engine/"):
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = ENGINE_RAW_KV_RE.search(line)
            if m:
                errors.append(
                    f"{rel}:{lineno}: raw KV read 'db()->{m.group(1)}' in the engine — "
                    f"use the GraphStore read/cache APIs (GetVertex, "
                    f"ScanEdges/ScanAllEdges, ScanVerticesByType) so the adjacency "
                    f"cache, device charge and access interceptor see the access"
                )
    return errors


# Travel-keyed container declarations in src/engine: a map or set whose key
# is a TravelId or a std::pair (checked for a TravelId below). Non-greedy up
# to the declared name; tolerates nested template args, a GT_GUARDED_BY
# annotation and multi-line declarations.
TRAVEL_CONTAINER_RE = re.compile(
    r"std::(?:unordered_)?(?:map|set)<\s*(TravelId|std::pair<[^<>;]*>)\s*[,>]"
    r"[^;]*?\b(\w+)\s*(?:GT_GUARDED_BY\([^)]*\))?\s*;",
    re.DOTALL,
)

# The travel-keyed containers check 7 allows, by (file, name).
TRAVEL_CONTAINER_ALLOWLIST = {
    ("src/engine/backend_server.h", "locals_"),          # one TravelLocal per travel
    ("src/engine/backend_server.h", "travels_"),         # coordinator table
    ("src/engine/backend_server.h", "retained_snaps_"),  # test-only pin retention
    ("src/engine/backend_server.h", "aborted_travels_"), # late-message tombstones
    ("src/engine/client.h", "finished_"),                # client: stale-frame filter
}


def check_travel_map_reclaim(files):
    """Travel-keyed containers in the engine are allowlisted, and each has an
    erase path (check 7)."""
    engine_files = [rel for rel in files if rel.startswith("src/engine/")]
    texts = {}
    for rel in engine_files:
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            texts[rel] = strip_comments(f.read())

    errors = []
    for rel, text in texts.items():
        for m in TRAVEL_CONTAINER_RE.finditer(text):
            key, member = m.group(1), m.group(2)
            lineno = text.count("\n", 0, m.start()) + 1
            if key.startswith("std::pair"):
                if not re.search(r"\bTravelId\b", key):
                    continue
                errors.append(
                    f"{rel}:{lineno}: '{member}' is keyed by a pair holding a "
                    f"TravelId — per-travel state belongs in the travel's "
                    f"TravelLocal record (see DESIGN.md 'Travel lifecycle')"
                )
                continue
            if (rel, member) not in TRAVEL_CONTAINER_ALLOWLIST:
                errors.append(
                    f"{rel}:{lineno}: travel-keyed container '{member}' is not "
                    f"on the check-7 allowlist — per-travel state belongs in the "
                    f"travel's TravelLocal record, which the abort path erases "
                    f"whole (see DESIGN.md 'Travel lifecycle')"
                )
                continue
            erase_re = re.compile(r"\b" + re.escape(member) + r"\s*\.\s*erase\s*\(")
            if any(erase_re.search(t) for t in texts.values()):
                continue
            errors.append(
                f"{rel}:{lineno}: travel-keyed container '{member}' has no "
                f"'{member}.erase(' anywhere in src/engine — per-travel state "
                f"must be reclaimed on the abort/cancellation path or it leaks "
                f"once clients time out (see DESIGN.md 'Travel lifecycle')"
            )
    return errors


# A `.ok()` call ending a statement (check 10), and the assignment that
# makes such a statement a use rather than a discard.
OK_DISCARD_RE = re.compile(r"\.\s*ok\s*\(\s*\)\s*;")
ASSIGNMENT_RE = re.compile(r"(?<![=!<>])=(?!=)")


def check_engine_status_discards(files):
    """No `.ok();` discards in src/engine (check 10)."""
    errors = []
    for rel in files:
        if not rel.startswith("src/engine/"):
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for m in OK_DISCARD_RE.finditer(text):
            start = max(text.rfind(c, 0, m.start()) for c in ";{}") + 1
            stmt = text[start:m.end()].strip()
            if stmt.startswith("return") or ASSIGNMENT_RE.search(stmt):
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            errors.append(
                f"{rel}:{lineno}: Status discarded with '.ok();' in the engine — "
                f"a dropped store error becomes an empty or wrong answer; fail the "
                f"travel with the Status (AbortPayload kFail) or log it"
            )
    return errors


# Directories whose inputs arrive over the wire or from disk: every byte
# read there is untrusted until a bounds check has seen it.
DECODE_DIRS = ("src/rpc/", "src/kv/", "src/lang/")

# Raw byte-decoding tokens banned in DECODE_DIRS (check 8). CheckedReader
# (src/common/codec.h) owns the only sanctioned pointer arithmetic.
RAW_DECODE_PATTERNS = [
    (re.compile(r"\bDecodeFixed(?:32|64)(?:BE)?\s*\("), "raw DecodeFixed"),
    (re.compile(r"(?<![\w:])(?:std::)?memcpy\s*\("), "memcpy"),
    (re.compile(r"\breinterpret_cast\s*<"), "reinterpret_cast"),
]

# The socket API (bind/connect/accept/getsockname) forces sockaddr casts;
# they cast our own stack structs, not untrusted payload bytes.
SOCKADDR_CAST_FILE = "src/rpc/tcp_transport.cc"

# A Decode* function definition or declaration: optional specifiers, a
# return type, then an (optionally class-qualified) Decode\w* name followed
# by '('. Anchored at a statement boundary so call sites don't match.
DECODE_DEF_RE = re.compile(
    r"(?:^|[;{}\n])\s*"
    r"(?:template\s*<[^\n>]*>\s*)?"
    r"(?:static\s+|inline\s+|virtual\s+|constexpr\s+|\[\[nodiscard\]\]\s+)*"
    r"(?P<ret>[A-Za-z_][\w:]*(?:<[^;(){}]*>)?)\s*[&*]?\s+"
    r"(?P<name>(?:[A-Za-z_]\w*::)*Decode\w*)\s*\("
)
DECODE_RET_ALLOWED_RE = re.compile(r"^(?:gt::)?(?:Status|Result<.+>|bool)$")
CPP_KEYWORDS = {
    "return", "co_return", "if", "while", "for", "else", "case", "switch",
    "new", "delete", "throw", "goto", "do", "using", "typedef",
}


def check_decode_discipline(files):
    """Checked-reader decode discipline in src/rpc, src/kv, src/lang (check 8)."""
    errors = []
    for rel in files:
        if not rel.startswith(DECODE_DIRS):
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for lineno, line in enumerate(text.splitlines(), 1):
            for pat, what in RAW_DECODE_PATTERNS:
                m = pat.search(line)
                if not m:
                    continue
                if (rel == SOCKADDR_CAST_FILE and what == "reinterpret_cast"
                        and "sockaddr" in line):
                    continue
                errors.append(
                    f"{rel}:{lineno}: {what} in a decode dir — untrusted byte "
                    f"decoding must go through gt::CheckedReader "
                    f"(src/common/codec.h) so every read is bounds-checked"
                )
        for m in DECODE_DEF_RE.finditer(text):
            ret = m.group("ret")
            if ret in CPP_KEYWORDS or DECODE_RET_ALLOWED_RE.match(ret):
                continue
            lineno = text.count("\n", 0, m.start("name")) + 1
            errors.append(
                f"{rel}:{lineno}: decoder '{m.group('name')}' returns '{ret}' — "
                f"Decode* functions in the decode dirs must return Status, "
                f"Result<...> or bool so malformed input surfaces as a checkable "
                f"value, never as an assert or a silent best-effort parse"
            )
    return errors


# The RPC payload codecs live in src/engine/types.h, outside the decode
# dirs, but decode the same untrusted frames — the reader-discipline check
# below covers them too.
DECODE_READER_EXTRA_FILES = ("src/engine/types.h",)

# A body "uses a checked reader" when it names CheckedReader (constructs one
# or threads one through) or delegates to another Decode*/Get* helper that
# owns the checking.
DECODE_READER_RE = re.compile(r"\bCheckedReader\b")
DECODE_DELEGATE_RE = re.compile(r"\b\w*Decode\w*\s*\(")


def _function_body(text, open_paren):
    """Returns (params, body, has_body) for the definition whose parameter
    list opens at text[open_paren] == '('. Declarations (';' before '{')
    return has_body=False."""
    depth = 0
    i = open_paren
    n = len(text)
    while i < n:
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    params = text[open_paren + 1:i]
    i += 1
    while i < n and text[i] not in "{;":
        i += 1
    if i >= n or text[i] == ";":
        return params, "", False
    start = i + 1
    depth = 1
    i = start
    while i < n and depth:
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
        i += 1
    return params, text[start:i - 1], True


def check_decode_reader(files):
    """Every Decode* body in the decode dirs (and the payload codecs in
    src/engine/types.h) must read bytes through a CheckedReader — either
    taking one as a parameter, constructing one locally, or delegating to
    another Decode* that does. A decoder that walks the input by hand is
    exactly how a new plan/payload field grows an unchecked read."""
    errors = []
    for rel in files:
        if not (rel.startswith(DECODE_DIRS) or rel in DECODE_READER_EXTRA_FILES):
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = strip_comments(f.read())
        for m in DECODE_DEF_RE.finditer(text):
            params, body, has_body = _function_body(text, m.end() - 1)
            if not has_body:
                continue  # declaration: the definition is checked where it lives
            if DECODE_READER_RE.search(params) or DECODE_READER_RE.search(body):
                continue
            if DECODE_DELEGATE_RE.search(body):
                continue  # delegates to another Decode*, which owns the checking
            lineno = text.count("\n", 0, m.start("name")) + 1
            errors.append(
                f"{rel}:{lineno}: decoder '{m.group('name')}' reads its input "
                f"without a CheckedReader — take one as a parameter, construct "
                f"one over the buffer, or delegate to a Decode* helper that "
                f"does; hand-walked bytes are unchecked bytes"
            )
    return errors


def check_include_cycles(files):
    graph = {}
    for rel in files:
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = f.read()
        graph[rel] = [inc for inc in INCLUDE_RE.findall(text) if inc != rel]

    errors = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in graph}
    stack = []

    def dfs(node):
        color[node] = GRAY
        stack.append(node)
        for dep in graph.get(node, []):
            if dep not in graph:
                continue  # e.g. generated or non-src header
            if color[dep] == GRAY:
                cycle = stack[stack.index(dep):] + [dep]
                errors.append("include cycle: " + " -> ".join(cycle))
            elif color[dep] == WHITE:
                dfs(dep)
        stack.pop()
        color[node] = BLACK

    for rel in graph:
        if color[rel] == WHITE:
            dfs(rel)
    return errors


def warn_format():
    """Warn-only: clang-format check over files changed vs HEAD."""
    try:
        subprocess.run(["clang-format", "--version"], capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return  # not installed: silently skip (the CI gate notes this)
    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--", "src", "tests", "bench",
             "examples", "tools"],
            capture_output=True, check=True, cwd=REPO, text=True)
    except (OSError, subprocess.CalledProcessError):
        return
    for rel in out.stdout.split():
        if not rel.endswith((".h", ".cc")):
            continue
        path = os.path.join(REPO, rel)
        if not os.path.exists(path):
            continue
        r = subprocess.run(["clang-format", "--dry-run", "-Werror", path],
                           capture_output=True)
        if r.returncode != 0:
            print(f"warning: {rel} is not clang-format clean", file=sys.stderr)


def main():
    files = list(src_files())
    errors = []
    errors += check_primitives(files)
    errors += check_threads(files)
    errors += check_kv_posix(files)
    errors += check_console_output(files)
    errors += check_engine_raw_kv(files)
    errors += check_travel_map_reclaim(files)
    errors += check_engine_status_discards(files)
    errors += check_decode_discipline(files)
    errors += check_decode_reader(files)
    errors += check_include_cycles(files)
    warn_format()
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        print(f"gt_lint: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print(f"gt_lint: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
