"""Write the input files of one benchmark run: the set-up step that setup_s times.

A fresh interpreter starts, imports scatdiag from the checkout's `src/` and
writes the seed files of every workload.

Usage: python3 bench/inputs.py --dir DIR
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports scatdiag)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    os.makedirs(args.dir, exist_ok=True)
    for name, data in workloads.input_files().items():
        with open(os.path.join(args.dir, name), "w") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    main()
