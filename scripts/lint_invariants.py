#!/usr/bin/env python3
"""Project-invariant linter: repo rules the compiler cannot check.

Rules (each scoped to src/ unless noted):

  failpoints     Every ADPM_FAULT_POINT("name") in src/ is documented in
                 docs/FAILPOINTS.md, and every name documented there still
                 exists in src/ (two-way check).
  canonical-json util::json::serialize is the canonical-JSON producer; only
                 the allowlisted wire/persistence files may call it, so no
                 module grows a second, subtly different encoder.
  raw-io         Durability and stdio primitives (fsync/fwrite/fopen/
                 truncate/...) appear only in the WAL, the salvage path,
                 and net/ — everything else must go through those layers.
  std-mutex      std::mutex-family types appear only inside
                 util/thread_annotations.hpp; raw primitives are invisible
                 to Clang's thread-safety analysis.
  scenario-source
                 addProperty(/addConstraint(/addProblem( are called only by
                 the DDDL parser and the generator.  The committed
                 scenarios/*.dddl files are the one source of the built-in
                 cases, so no second, hand-built copy can creep back into
                 src/.  The definitions live in dpm/scenario and in the
                 same-named network/manager methods it instantiates into.
  std-thread     std::thread objects are created only by the executor's
                 worker pool, the experiment runner, the load driver (one
                 thread per driven session), and net/server (the reactor
                 thread and the shutdown drain helper).  Nothing else may start a thread —
                 in particular not one per connection or subscription.
                 std::thread:: qualifiers (id, hardware_concurrency) are
                 fine anywhere.
  condvar        util::CondVar / std::condition_variable appear only in
                 util/thread_annotations.hpp (the wrapper), the executor
                 (workers waiting for tasks, drain() waiting for idle) and
                 net/server.cpp (the bounded shutdown drain).  Everything
                 else polls or is woken by callback; in particular the
                 notification queues never block either side.
  team-client    teamsim::TeamClient (simulated designers as clients of a
                 hosted session) is used only by the load driver,
                 service/load.cpp, so there is one client loop to trust.
  fp-determinism (every CMakeLists.txt and *.cmake in the repository, build
                 trees excluded) No flag that licenses value-changing
                 floating-point code: -ffast-math, -Ofast,
                 -ffp-contract=fast, -mfma, -march=.  src/CMakeLists.txt
                 must pin add_compile_options(-ffp-contract=off), so the
                 inline interval core is never contracted into FMAs and
                 hulls, digests and evaluation counts stay bit-identical
                 across compilers and targets.
  test-oracle    The reference implementations live in tests/oracle, not in
                 the shipped library: src/ names none of referenceMode,
                 runOnBoxReference, MinerEngine, helpDirection, evalInterval,
                 monotonicity, evalDerivative or ValueDerivative (whole
                 words), and no CMakeLists.txt outside tests/ names the
                 oracle target, adpm_oracle.  Partials in src/ come from
                 CompiledExpr::derivatives only.

Matching happens on comment- and string-stripped source (except the
failpoint scan, which reads names out of string literals), so prose
mentioning "std::mutex" or an error message containing "fsync" does not
trip a rule.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FAILPOINT_DOC = REPO / "docs" / "FAILPOINTS.md"

# -- rule configuration -------------------------------------------------------

# Files allowed to produce canonical JSON (util::json::serialize callers).
# dpm/operation_io owns operation encoding; wal persists records; gen/params
# emits run manifests; net frames results/notifications onto the wire.
CANONICAL_JSON_ALLOW = {
    "dpm/operation_io.cpp",
    "gen/params.cpp",
    "net/client.cpp",
    "net/reactor.cpp",
    "net/server.cpp",
    "service/wal.cpp",
}

# Durability/stdio tokens and the files allowed to use them.  service/wal.cpp
# owns the append/flush/fsync/rollback path; service/session.cpp owns salvage
# truncation; net/ owns socket I/O.
RAW_IO_TOKENS = (
    "fsync",
    "fdatasync",
    "fwrite",
    "fflush",
    "fopen",
    "fclose",
    "fileno",
    "truncate",
    "resize_file",
)
RAW_IO_ALLOW_FILES = {"service/wal.cpp", "service/session.cpp"}
RAW_IO_ALLOW_DIRS = ("net/",)

# std locking primitives; only the annotated wrappers may touch them.
STD_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable"
    r"(?:_any)?)\b"
)
STD_MUTEX_ALLOW = {"util/thread_annotations.hpp"}

# Scenario-building calls and the files allowed to make them.  The parser and
# the generator build ScenarioSpecs; dpm/scenario defines the builders and
# instantiates specs into the manager, which forwards to the network.
SCENARIO_BUILD_RE = re.compile(r"\badd(?:Property|Constraint|Problem)\s*\(")
SCENARIO_BUILD_ALLOW = {
    "dddl/parser.cpp",
    "gen/generator.cpp",
    "dpm/scenario.hpp",
    "dpm/scenario.cpp",
    "dpm/manager.hpp",
    "dpm/manager.cpp",
    "constraint/network.hpp",
    "constraint/network.cpp",
}

# std::thread objects and the files allowed to create them.  A following
# "::" (std::thread::id, std::thread::hardware_concurrency) is not a thread.
STD_THREAD_RE = re.compile(r"\bstd::j?thread\b(?!\s*::)")
STD_THREAD_ALLOW = {
    "util/executor.hpp",
    "util/executor.cpp",
    "teamsim/experiment.cpp",
    "service/load.cpp",
    "net/server.hpp",
    "net/server.cpp",
}

# Condition variables and the files allowed to declare them.
CONDVAR_RE = re.compile(
    r"\b(?:util::)?CondVar\b|\bstd::condition_variable(?:_any)?\b"
)
CONDVAR_ALLOW = {
    "util/thread_annotations.hpp",
    "util/executor.hpp",
    "util/executor.cpp",
    "net/server.cpp",
}

# TeamClient and the files allowed to name it: its own definition and the
# one load driver.
TEAM_CLIENT_RE = re.compile(r"\bTeamClient\b")
TEAM_CLIENT_ALLOW = {
    "teamsim/client.hpp",
    "teamsim/client.cpp",
    "service/load.cpp",
}

# Compiler flags that let the optimizer change floating-point results, and
# the pin src/CMakeLists.txt must carry.
FP_FORBIDDEN_RE = re.compile(
    r"(?<![\w-])(?:-ffast-math|-Ofast|-ffp-contract=fast|-mfma|-march=)"
)
FP_PIN_RE = re.compile(r"\badd_compile_options\s*\([^)]*-ffp-contract=off\b")
FP_PIN_FILE = SRC / "CMakeLists.txt"

# Names of the reference implementations, which belong to tests/oracle, and
# the oracle library's CMake target.
TEST_ORACLE_RE = re.compile(
    r"\b(?:referenceMode|runOnBoxReference|MinerEngine|helpDirection|"
    r"evalInterval|monotonicity|evalDerivative|ValueDerivative)\b"
)
ORACLE_TARGET_RE = re.compile(r"\badpm_oracle\b")
TESTS = REPO / "tests"

FAULT_POINT_RE = re.compile(r'ADPM_FAULT_POINT\(\s*"([^"]+)"\s*\)')
# Names in the FAILPOINTS.md table: a backticked name in the first column.
DOC_NAME_RE = re.compile(r"^\|\s*`([a-z]+\.[a-z_]+)`", re.MULTILINE)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            stop = n if end == -1 else end + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:stop]))
            i = stop
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * max(0, j - i - 1))
            if j < n:
                out.append(quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files():
    return sorted(
        p
        for p in SRC.rglob("*")
        if p.suffix in {".cpp", ".hpp", ".h", ".cc"} and p.is_file()
    )


def rel(p: Path) -> str:
    return p.relative_to(SRC).as_posix()


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_failpoints(files) -> list[str]:
    findings = []
    in_src: dict[str, str] = {}
    for p in files:
        text = p.read_text()
        for m in FAULT_POINT_RE.finditer(text):
            in_src.setdefault(m.group(1), f"{rel(p)}:{line_of(text, m.start())}")
    if not FAILPOINT_DOC.is_file():
        return [f"failpoints: {FAILPOINT_DOC.relative_to(REPO)} is missing"]
    in_doc = set(DOC_NAME_RE.findall(FAILPOINT_DOC.read_text()))
    for name in sorted(set(in_src) - in_doc):
        findings.append(
            f"failpoints: src/{in_src[name]}: ADPM_FAULT_POINT(\"{name}\") "
            f"is not documented in docs/FAILPOINTS.md"
        )
    for name in sorted(in_doc - set(in_src)):
        findings.append(
            f"failpoints: docs/FAILPOINTS.md lists `{name}` but no such "
            f"failpoint exists in src/"
        )
    return findings


def strip_cmake_comments(text: str) -> str:
    """Blank out CMake line comments (# outside quotes), keeping lines."""
    out = []
    for line in text.split("\n"):
        in_quote = False
        for i, c in enumerate(line):
            if c == '"' and (i == 0 or line[i - 1] != "\\"):
                in_quote = not in_quote
            elif c == "#" and not in_quote:
                line = line[:i]
                break
        out.append(line)
    return "\n".join(out)


def cmake_files():
    """Every CMakeLists.txt and *.cmake in the repository outside build
    trees (a directory holding a CMakeCache.txt) and hidden directories."""
    found = []

    def walk(d: Path):
        if (d / "CMakeCache.txt").is_file():
            return
        for p in sorted(d.iterdir()):
            if p.name.startswith("."):
                continue
            if p.is_dir():
                walk(p)
            elif p.name == "CMakeLists.txt" or p.suffix == ".cmake":
                found.append(p)

    walk(REPO)
    return found


def check_fp_determinism() -> list[str]:
    findings = []
    for p in cmake_files():
        name = p.relative_to(REPO).as_posix()
        stripped = strip_cmake_comments(p.read_text())
        for m in FP_FORBIDDEN_RE.finditer(stripped):
            findings.append(
                f"fp-determinism: {name}:{line_of(stripped, m.start())}: "
                f"'{m.group(0)}' may change floating-point results; "
                f"hulls, digests and evaluation counts are pinned bit for bit"
            )
    pin = FP_PIN_FILE.read_text() if FP_PIN_FILE.is_file() else ""
    if not FP_PIN_RE.search(strip_cmake_comments(pin)):
        findings.append(
            f"fp-determinism: {FP_PIN_FILE.relative_to(REPO).as_posix()}: "
            f"missing add_compile_options(-ffp-contract=off)"
        )
    return findings


def check_oracle_target() -> list[str]:
    findings = []
    for p in cmake_files():
        if p.is_relative_to(TESTS):
            continue
        stripped = strip_cmake_comments(p.read_text())
        for m in ORACLE_TARGET_RE.finditer(stripped):
            findings.append(
                f"test-oracle: {p.relative_to(REPO).as_posix()}:"
                f"{line_of(stripped, m.start())}: '{m.group(0)}' is the test "
                f"oracle library; only targets under tests/ may link it"
            )
    return findings


def check_token_rule(files, rule, pattern, allowed) -> list[str]:
    findings = []
    for p in files:
        name = rel(p)
        if allowed(name):
            continue
        stripped = strip_comments_and_strings(p.read_text())
        for m in pattern.finditer(stripped):
            findings.append(
                f"{rule}: src/{name}:{line_of(stripped, m.start())}: "
                f"'{m.group(0)}' is only allowed in "
                f"{allowed.__doc__}"
            )
    return findings


def main() -> int:
    if not SRC.is_dir():
        print(f"lint_invariants: {SRC} not found", file=sys.stderr)
        return 2
    files = source_files()

    def json_allowed(name: str) -> bool:
        """the canonical JSON producer allowlist (see CANONICAL_JSON_ALLOW)"""
        return name in CANONICAL_JSON_ALLOW

    def raw_io_allowed(name: str) -> bool:
        """service/wal.cpp, service/session.cpp (salvage), and net/"""
        return name in RAW_IO_ALLOW_FILES or name.startswith(RAW_IO_ALLOW_DIRS)

    def mutex_allowed(name: str) -> bool:
        """util/thread_annotations.hpp (the annotated wrappers)"""
        return name in STD_MUTEX_ALLOW

    def scenario_build_allowed(name: str) -> bool:
        """dddl/parser.cpp and gen/generator.cpp (SCENARIO_BUILD_ALLOW)"""
        return name in SCENARIO_BUILD_ALLOW

    def thread_allowed(name: str) -> bool:
        """util/executor, experiment.cpp, service/load.cpp and net/server"""
        return name in STD_THREAD_ALLOW

    def condvar_allowed(name: str) -> bool:
        """util/thread_annotations.hpp, util/executor and net/server.cpp"""
        return name in CONDVAR_ALLOW

    def oracle_allowed(name: str) -> bool:
        """tests/oracle (never the shipped library)"""
        return False

    def team_client_allowed(name: str) -> bool:
        """teamsim/client.* and service/load.cpp (the one load driver)"""
        return name in TEAM_CLIENT_ALLOW

    raw_io_re = re.compile(
        r"(?:\bstd::|::)?\b(?:" + "|".join(RAW_IO_TOKENS) + r")\s*\("
    )
    json_re = re.compile(r"\bjson::serialize\s*\(")

    findings = []
    findings += check_failpoints(files)
    findings += check_token_rule(files, "canonical-json", json_re, json_allowed)
    findings += check_token_rule(files, "raw-io", raw_io_re, raw_io_allowed)
    findings += check_token_rule(files, "std-mutex", STD_MUTEX_RE, mutex_allowed)
    findings += check_token_rule(
        files, "scenario-source", SCENARIO_BUILD_RE, scenario_build_allowed
    )
    findings += check_token_rule(files, "std-thread", STD_THREAD_RE, thread_allowed)
    findings += check_token_rule(files, "condvar", CONDVAR_RE, condvar_allowed)
    findings += check_token_rule(
        files, "team-client", TEAM_CLIENT_RE, team_client_allowed
    )
    findings += check_token_rule(
        files, "test-oracle", TEST_ORACLE_RE, oracle_allowed
    )
    findings += check_oracle_target()
    findings += check_fp_determinism()

    for f in findings:
        print(f)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
