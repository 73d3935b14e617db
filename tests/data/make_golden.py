"""Regenerate the golden report JSON. Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py

Only do this after a deliberate schema or version change, then review
the diff by hand before committing.
"""

import os

from permlat.corpus import builtin_corpus
from permlat.reports import run_verification


def main():
    groups = dict(builtin_corpus())
    corpus = [("Q8", groups["Q8"]), ("C12", groups["C12"])]
    rep = run_verification(["remark1"], corpus, "golden slice", max_order=20)
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "golden_remark1.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rep.to_json())
    print("wrote", path)


if __name__ == "__main__":
    main()
