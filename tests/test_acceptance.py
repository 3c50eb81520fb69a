"""Acceptance suite: every criterion at its stated sample size, exactly.

All equalities are exact integer or rational comparisons; there are no
tolerances anywhere.  One pass/fail line prints per criterion (run pytest
with -s to see them).  The same code path backs the `verify` CLI command.
"""

import pytest

from hermsig import cones, hermitian, verify
from hermsig.verify import ALL_CRITERIA, SIZE_KEYS, run_suite


@pytest.fixture(scope="module")
def suite_results():
    results = run_suite(seed=0)
    for r in results:
        print(r.line())
    return {r.name: r for r in results}


def test_suite_covers_every_criterion(suite_results):
    assert set(suite_results) == set(ALL_CRITERIA)


@pytest.mark.parametrize("name", ALL_CRITERIA)
def test_criterion(name, suite_results):
    result = suite_results[name]
    print(result.line())
    assert result.passed, result.details


# per sizes key, a call its criterion makes a number of times that grows
# with that size
WORK = {
    "sturm_instances": (verify, "sturm_sequence"),
    "trace_transfer": (verify, "trace_transfer"),
    "congruence": (verify, "congruence_transform"),
    "nil_forms": (verify, "trace_transfer"),
    "max_trials": (hermitian, "random_symmetric_unit"),
    "cone_equality": (verify, "cone_membership"),
    "axiom_samples": (cones, "cone_membership"),
    "same_signature": (verify, "sample_cone_member"),
    "mideal": (verify, "random_symmetric_unit"),
    "z_height": (hermitian.HermitianForm, "__init__"),
    "star_members": (verify, "star_pairing"),
    "extension_samples": (cones, "sample_cone_member"),
}


@pytest.mark.parametrize("key", SIZE_KEYS)
def test_size_key_sets_the_work(key, monkeypatch):
    name = dict(zip(SIZE_KEYS, ALL_CRITERIA))[key]
    owner, attr = WORK[key]
    real = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    counts = []
    for size in (1, 2):
        calls.clear()
        run_suite(seed=0, only=[name], sizes={key: size})
        counts.append(len(calls))
    assert 0 < counts[0] < counts[1]


def test_suite_builds_only_what_picked_criteria_read(monkeypatch):
    built = []
    fields, algebras = verify.standard_fields, verify.standard_algebras
    monkeypatch.setattr(verify, "standard_fields", lambda: built.append("F") or fields())
    monkeypatch.setattr(
        verify, "standard_algebras", lambda F: built.append("A") or algebras(F)
    )
    # an empty selection runs nothing and builds nothing
    assert run_suite(seed=0, only=[]) == []
    run_suite(seed=0, only=["sturm_sign_count_oracle"], sizes={"sturm_instances": 1})
    assert built == []
    only = ["nil_vanishing", "star_ratio_constancy", "cone_extension"]
    run_suite(seed=0, only=only, sizes=dict.fromkeys(SIZE_KEYS, 1))
    assert built == ["F", "A"]
