"""A-KW: ablation of the prompt post-fix keyword (paper Section 4 discussion)."""

from __future__ import annotations

from repro.api import Session


def test_ablation_keywords(benchmark):
    with Session() as session:
        report = benchmark(session.keyword_ablation)
    effects = report.data["effects"]
    # The paper's qualitative findings: the keyword is decisive for Fortran
    # and Python, mild for C++, and Julia has no keyword variant at all.
    assert effects["fortran"]["delta"] > 0.1
    assert effects["python"]["delta"] > 0.1
    assert abs(effects["cpp"]["delta"]) < 0.2
    assert effects["julia"]["delta"] == 0.0
    print()
    print(report.text)
