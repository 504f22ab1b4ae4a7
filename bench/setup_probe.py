"""Set-up probe: the work `glybench run` does before its first evaluate.

Imports glybench, parses and cleans the cohort, and materializes every
requested variant, then prints one JSON line describing what it built
and the environment it saw. The benchmark times this whole process.

    PYTHONPATH=src python3 bench/setup_probe.py COHORT_CSV MIN_RECORDS VARIANT...
"""

import json
import os
import platform
import sys

import glybench
from glybench.ingest import clean_cohort, parse_diary_csv
from glybench.variants import materialize, spec_by_id

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str]) -> int:
    cohort_csv, min_records, variants = argv[0], int(argv[1]), argv[2:]
    with open(cohort_csv, encoding="utf-8") as f:
        cleaned, _ = clean_cohort(parse_diary_csv(f.read()))
    retained = {
        vid: len(materialize(cleaned, spec_by_id(vid), min_records=min_records).per_patient)
        for vid in variants
    }
    import numpy
    import scipy

    print(json.dumps({
        "retained_patients": retained,
        "glybench_file": glybench.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
