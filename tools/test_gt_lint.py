#!/usr/bin/env python3
"""Self-test for gt_lint.py's decode-discipline checks (8 and 9), its
travel-keyed container check (7) and its engine Status-discard check (10).

Points the linter at the fixture trees under tools/lint_fixtures/ and asserts
that every banned construct in decode_bad/ and travel_map_bad/ is flagged
while decode_good/ (including the allowlisted tcp_transport.cc sockaddr cast)
and travel_map_good/ come back clean.
Registered as the 'gt_lint_selftest' ctest so a regression in the lint rules
fails the suite, not just the next human who runs the linter by hand.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gt_lint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")

failures = []


def run_on(tree, checks=None):
    """Runs `checks` (default: the decode checks 8 and 9) with REPO/SRC
    pointed at a fixture tree."""
    if checks is None:
        checks = [gt_lint.check_decode_discipline, gt_lint.check_decode_reader]
    old_repo, old_src = gt_lint.REPO, gt_lint.SRC
    gt_lint.REPO = os.path.join(FIXTURES, tree)
    gt_lint.SRC = os.path.join(gt_lint.REPO, "src")
    try:
        files = list(gt_lint.src_files())
        return [e for check in checks for e in check(files)]
    finally:
        gt_lint.REPO, gt_lint.SRC = old_repo, old_src


def expect(cond, label):
    if cond:
        print(f"ok: {label}")
    else:
        failures.append(label)
        print(f"FAIL: {label}", file=sys.stderr)


def main():
    bad = run_on("decode_bad")
    expect(any("raw DecodeFixed" in e for e in bad), "decode_bad flags DecodeFixed")
    expect(any("memcpy" in e for e in bad), "decode_bad flags memcpy")
    expect(any("reinterpret_cast" in e for e in bad),
           "decode_bad flags reinterpret_cast")
    expect(any("returns 'void'" in e for e in bad),
           "decode_bad flags the void-returning decoder")
    expect(any("without a CheckedReader" in e and "DecodeTail" in e for e in bad),
           "decode_bad flags the hand-walked decoder (check 9)")

    good = run_on("decode_good")
    expect(not good, "decode_good is clean (got: %s)" % "; ".join(good))

    travel_checks = [gt_lint.check_travel_map_reclaim]
    bad = run_on("travel_map_bad", travel_checks)
    expect(any("'local_work_' is not on the check-7 allowlist" in e for e in bad),
           "travel_map_bad flags a travel-keyed map off the allowlist")
    expect(any("'warm_travels_' is not on the check-7 allowlist" in e for e in bad),
           "travel_map_bad flags a multi-line travel-keyed set")
    expect(any("'trace_buffer_' is keyed by a pair holding a TravelId" in e for e in bad),
           "travel_map_bad flags a pair key holding a TravelId")
    expect(any("'locals_' has no 'locals_.erase('" in e for e in bad),
           "travel_map_bad flags an allowlisted map with no erase path")
    expect(len(bad) == 4, "travel_map_bad has exactly 4 findings (got %d)" % len(bad))

    good = run_on("travel_map_good", travel_checks)
    expect(not good, "travel_map_good is clean (got: %s)" % "; ".join(good))

    discards = run_on("ok_discard", [gt_lint.check_engine_status_discards])
    expect(any("bad.cc:8:" in e for e in discards), "ok_discard flags a one-line discard")
    expect(any("bad.cc:12:" in e for e in discards),
           "ok_discard flags a discard ending a multi-line call")
    expect(len(discards) == 2,
           "ok_discard has exactly 2 findings: assignments, returns and "
           "src/kv are not discards (got %d)" % len(discards))

    # The real tree must satisfy its own discipline: the full linter on the
    # repo is the last fixture.
    files = list(gt_lint.src_files())
    errors = gt_lint.check_decode_discipline(files)
    expect(not errors, "src/ passes check 8 (got: %s)" % "; ".join(errors))
    errors = gt_lint.check_decode_reader(files)
    expect(not errors, "src/ passes check 9 (got: %s)" % "; ".join(errors))
    errors = gt_lint.check_travel_map_reclaim(files)
    expect(not errors, "src/ passes check 7 (got: %s)" % "; ".join(errors))
    errors = gt_lint.check_engine_status_discards(files)
    expect(not errors, "src/ passes check 10 (got: %s)" % "; ".join(errors))

    if failures:
        print(f"test_gt_lint: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("test_gt_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
