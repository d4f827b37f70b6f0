"""Cross-validation: live fault injection must agree with ACE AVF.

Section 2 of the paper presents the two methodologies as measuring the same
quantity.  This benchmark regenerates the ``injection_validation``
artefact: a live bit-flip campaign over every injectable structure, each
structure's SDC rate with its 95% Wilson interval next to the exact ACE
AVF.  ACE analysis upper-bounds true vulnerability, so no structure may
show an ``ANOMALY`` (ACE AVF below the interval).
"""

from conftest import save_artifact

from repro.experiments.runner import ExperimentScale
from repro.experiments.validate_injection import (
    format_injection_validation,
    run_injection_validation,
)


def test_injection_agrees_with_avf(benchmark):
    scale = ExperimentScale.from_env()
    result = benchmark.pedantic(lambda: run_injection_validation(scale),
                                rounds=1, iterations=1)
    save_artifact("injection_validation", format_injection_validation(result))

    for s in result.structures:
        assert result.verdict(s) != "ANOMALY", (
            f"{s}: ACE AVF {result.structures[s].reported_avf:.4f} below "
            f"the live interval {result.interval(s)}")
