"""End-to-end and per-layer benchmark of the surveymc command line.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``bench/README.md``.
"""
