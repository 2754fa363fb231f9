"""Tests of run.py's flag table: python3 -m unittest discover -s cpsbench -p 'test_*.py'"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

GOOD = ["--workload", "serve_steady", "--seed", "7", "--seconds", "10", "--trace", "0"]


class ParseFlagsTest(unittest.TestCase):
    def test_accepts_the_documented_form(self):
        self.assertEqual(run.parse_flags(GOOD), {
            "workload": "serve_steady", "seed": "7", "seconds": "10", "trace": "0"})

    def test_accepts_equals_form_and_boolean_words(self):
        flags = run.parse_flags(["--workload=campaign", "--seed=0", "--seconds=1",
                                 "--trace=true"])
        self.assertEqual(flags["trace"], "1")
        self.assertEqual(run.parse_flags(GOOD[:-1] + ["false"])["trace"], "0")

    def test_rejects(self):
        bad = [
            GOOD + ["--swap-every", "0"],               # unknown flag
            GOOD[:-1] + ["ture"],                       # misspelt boolean
            GOOD[:-1] + ["2"],
            GOOD[:-1],                                  # missing value
            GOOD[:6],                                   # missing flag
            GOOD + ["--seed", "8"],                     # duplicate
            ["--workload", "serve"] + GOOD[2:],         # unknown workload
            GOOD[:2] + ["--seed", "-1"] + GOOD[4:],
            GOOD[:2] + ["--seed", "1e3"] + GOOD[4:],
            GOOD[:2] + ["--seed", str(2**64)] + GOOD[4:],
            GOOD[:4] + ["--seconds", "0"] + GOOD[6:],
            GOOD[:4] + ["--seconds", "61"] + GOOD[6:],
            GOOD[:4] + ["--seconds", "١٠"] + GOOD[6:],  # non-ASCII digits
            ["serve_steady"] + GOOD,                    # positional
        ]
        for argv in bad:
            with self.subTest(argv=argv), self.assertRaises(run.FlagError):
                run.parse_flags(argv)

    def test_bad_flags_exit_2_before_any_work(self):
        proc = subprocess.run([sys.executable, run.__file__] + GOOD + ["--bogus", "1"],
                              capture_output=True, text=True, timeout=30)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("unknown flag --bogus", proc.stderr)


if __name__ == "__main__":
    unittest.main()
