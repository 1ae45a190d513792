#!/usr/bin/env python3
"""Tests that the harness's served-response check bites.

    python3 perfbench/test_checks.py

The planted-truth validation check lives in the executor and is tested by
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import check_served  # noqa: E402

REPORT = json.dumps({"device": {"name": "T1000"}, "memory": [{"size": 2048}]}, indent=2)


def served(report, rid=7, ok=True):
    """A response line laid out as the daemon writes it."""
    return json.dumps({"id": rid, "ok": ok, "cached": True, "coalesced": False,
                       "latency_ns": 1234, "fingerprint": "fp", "report": report},
                      separators=(",", ":")).encode()


class CheckServed(unittest.TestCase):
    def test_identical_bytes_pass_and_are_remembered(self):
        verified = {}
        self.assertIsNone(check_served(served(REPORT), REPORT, verified))
        self.assertIn(REPORT, verified)
        self.assertIsNone(check_served(served(REPORT, rid=8), REPORT, verified))

    def test_one_altered_byte_is_rejected(self):
        at = REPORT.index("2048")
        altered = REPORT[:at] + "3" + REPORT[at + 1:]
        verified = {}
        err = check_served(served(altered), REPORT, verified)
        self.assertIsNotNone(err)
        self.assertIn("offset %d" % at, err)
        # Also after the right bytes were seen once.
        check_served(served(REPORT), REPORT, verified)
        self.assertIsNotNone(check_served(served(altered), REPORT, verified))

    def test_failed_or_reportless_responses_are_rejected(self):
        self.assertIsNotNone(check_served(served(REPORT, ok=False), REPORT, {}))
        line = b'{"id":1,"ok":true,"cached":false,"coalesced":false,"latency_ns":0}'
        self.assertIsNotNone(check_served(line, REPORT, {}))


if __name__ == "__main__":
    unittest.main()
