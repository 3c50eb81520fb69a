import json
import signal
import time

import pytest

from hermsig.cli import run


M2Q = {
    "field": {"min_poly": ["0", "1"]},
    "division": {"kind": "base"},
    "n": 2,
}
HAM = {
    "field": {"min_poly": ["0", "1"]},
    "division": {"kind": "quaternion", "a": "-1", "b": "-1"},
    "n": 1,
}
RT2_BASE = {
    "field": {"min_poly": ["-2", "0", "1"]},
    "division": {"kind": "base"},
    "n": 1,
}
M2Q_PHI = {**M2Q, "phi": [[["1"], ["0"]], [["0"], ["-1"]]]}
RT2_NIL_QUAT = {
    "field": {"min_poly": ["-2", "0", "1"]},
    "division": {"kind": "quaternion", "a": ["-1", "0"], "b": ["0", "1"]},
    "n": 1,
}


def _run(tmp_path, capsys, command, config=None, extra=()):
    argv = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(path)]
    code = run([*extra, command, *argv])
    out = capsys.readouterr().out
    return code, out


def test_orderings_command(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, "orderings", {"field": {"min_poly": ["-2", "0", "1"]}})
    assert code == 0
    report = json.loads(out)
    assert len(report["orderings"]) == 2


def test_signature_identity_form(tmp_path, capsys):
    config = {"algebra": M2Q, "form": {"diag": [[[["1"], ["0"]], [["0"], ["1"]]]]}}
    code, out = _run(tmp_path, capsys, "signature", config)
    assert code == 0
    assert json.loads(out) == {"signatures": [2]}


def test_nil_command(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, "nil", {"algebra": RT2_NIL_QUAT})
    assert code == 0
    report = json.loads(out)
    assert report["nil_indices"] == [1]
    assert report["ordering_count"] == 2


def test_member_roundtrip(tmp_path, capsys):
    config = {
        "algebra": HAM,
        "element": "5",
        "ordering_index": 0,
        "orientation": 1,
    }
    code, out = _run(tmp_path, capsys, "member", config)
    assert code == 0
    report = json.loads(out)
    assert report["member"] is True
    assert report["witness_reconstructs"] is True
    config["orientation"] = -1
    code, out = _run(tmp_path, capsys, "member", config)
    report = json.loads(out)
    assert code == 0 and report["member"] is False


def test_np_with_witness_search(tmp_path, capsys):
    config = {
        "algebra": HAM,
        "form": {"diag": ["2", "-3"]},
        "ordering_index": 0,
        "orientation": 1,
        "search": True,
    }
    code, out = _run(tmp_path, capsys, "np", config)
    assert code == 0
    report = json.loads(out)
    assert report["in_np"] is True
    assert report["witness"] is not None
    assert report["witness_verified"] is True


def test_sylvester_command(tmp_path, capsys):
    config = {
        "algebra": HAM,
        "form": {"diag": ["1"]},
        "element": "1",
        "ordering_index": 0,
        "orientation": 1,
    }
    code, out = _run(tmp_path, capsys, "sylvester", config)
    assert code == 0
    report = json.loads(out)
    assert report["evidence"]["match"] is True
    assert len(report["u"]) == 4 and len(report["v"]) == 0


def test_count_roots_command(tmp_path, capsys):
    config = {"m": ["-2", "0", "1"], "conditions": [["0", "1"]]}
    code, out = _run(tmp_path, capsys, "count-roots", config)
    assert code == 0
    assert json.loads(out) == {"count": 1}


def test_cones_command(tmp_path, capsys):
    config = {"algebra": M2Q, "samples": 12}
    code, out = _run(tmp_path, capsys, "cones", config)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["cones"]) == 2


def test_extend_command(tmp_path, capsys):
    config = {
        "algebra": M2Q,
        "embedding": {"dst_field": {"min_poly": ["-2", "0", "1"]}, "image": ["0", "0"]},
        "ordering_index": 0,
        "orientation": 1,
        "target_ordering_index": 1,
        "samples": 10,
    }
    code, out = _run(tmp_path, capsys, "extend", config)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["n_src"] == report["n_dst"] == 2


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code = run(["signature", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_domain_error_exit_2(tmp_path, capsys):
    config = {"field": {"min_poly": ["1", "0", "1"]}}  # x^2 + 1: not real
    code, out = _run(tmp_path, capsys, "orderings", config)
    assert code == 2
    assert json.loads(out)["error"] == "NotFormallyReal"


def test_missing_key_exit_2(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, "signature", {"algebra": M2Q})
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_byte_determinism(tmp_path, capsys):
    config = {"algebra": M2Q, "samples": 10}
    _, out1 = _run(tmp_path, capsys, "cones", config, extra=("--seed", "7"))
    _, out2 = _run(tmp_path, capsys, "cones", config, extra=("--seed", "7"))
    assert out1 == out2
    _, out3 = _run(tmp_path, capsys, "cones", config, extra=("--seed", "8"))
    assert json.loads(out3)["pass"] is True


def test_text_format(tmp_path, capsys):
    config = {"field": {"min_poly": ["0", "1"]}}
    code, out = _run(tmp_path, capsys, "orderings", config, extra=("--format", "text"))
    assert code == 0
    assert "orderings:" in out and "{" not in out


def test_verify_subset(tmp_path, capsys):
    config = {
        "criteria": ["trace_transfer_consistency"],
        "sizes": {"trace_transfer": 5},
    }
    code, out = _run(tmp_path, capsys, "verify", config)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert [c["name"] for c in report["criteria"]] == ["trace_transfer_consistency"]


def test_verify_rejects_unknown_criterion(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, "verify", {"criteria": ["nope"]})
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_bad_phi_shape_exit_2(tmp_path, capsys):
    config = {
        "algebra": {
            "field": {"min_poly": ["0", "1"]},
            "division": {"kind": "base"},
            "n": 2,
            "phi": [[["1"]]],
        },
        "form": {"diag": ["1"]},
    }
    code, out = _run(tmp_path, capsys, "signature", config)
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize(
    "command, config, fragment",
    [
        ("signature", {"algebra": M2Q, "form": {"diag": 5}}, "diag"),
        ("cones", {"algebra": M2Q, "samples": "x"}, "samples"),
        ("verify", {"sizes": {"axiom_samples": "x"}}, "axiom_samples"),
        ("member", {"algebra": RT2_BASE, "element": "1", "ordering_index": True}, "ordering_index"),
        ("member", {"algebra": RT2_BASE, "element": "1", "orientation": True}, "orientation"),
        (
            "extend",
            {
                "algebra": M2Q,
                "embedding": {"dst_field": {"min_poly": ["-2", "0", "1"]}, "image": ["0", "0"]},
                "orientation": -1.0,
            },
            "orientation",
        ),
        ("verify", {"criteria": "cone_axioms"}, "array of criterion names"),
        ("count-roots", {"m": ["-2", "0", "1"], "conditions": 5}, "conditions"),
        ("extend", {"algebra": RT2_BASE, "embedding": [1]}, "embedding"),
        ("nil", {"algebra": {**M2Q, "field": {"min_poly": 7}}}, "min_poly"),
        ("signature", {"algebra": {**M2Q, "phi": 3}, "form": {"diag": ["1"]}}, "phi"),
        ("verify", {"criteria": ["nil_vanishing"], "sizes": {"nil_form": 1}}, "nil_form"),
        ("nil", {"algebra": {**M2Q, "n": True}}, "n must be"),
        ("np", {"algebra": M2Q, "form": {"diag": ["1", "-1"]}, "search": None}, "search"),
        ("np", {"algebra": M2Q, "form": {"diag": ["1", "-1"]}, "search": "no"}, "search"),
        (
            "member",
            {"algebra": M2Q_PHI, "element": [["2", "1"], ["-1", "-3"]], "orientaton": -1},
            "orientaton",
        ),
        ("nil", {"algebra": {**M2Q, "phy": [["1"]]}}, "phy"),
        ("signature", {"algebra": M2Q, "form": {"diag": ["1"], "gram": [["-1"]]}}, "gram"),
        ("nil", {"algebra": {**M2Q, "division": {"kind": "base", "d": "-1"}}}, "'d'"),
        ("orderings", {"field": {"min_poly": ["-2", "0", "1"], "degree": 2}}, "degree"),
        ("orderings", {"field": {"min_poly": ["-2", "0", "1.5"]}}, "bad rational"),
        ("orderings", {"field": {"min_poly": ["-2", "0", "1/2.5"]}}, "bad rational"),
        ("orderings", {"field": {"min_poly": [" -2 ", "0", "1"]}}, "bad rational"),
        ("orderings", {"field": {"min_poly": ["-2_0", "0", "1"]}}, "bad rational"),
        ("member", {"algebra": HAM, "element": [[[["1/0"], "0", "0", "0"]]]}, "bad rational"),
        ("verify", {"criteria": []}, "at least one"),
    ],
    ids=[
        "diag_not_array",
        "samples_not_int",
        "size_not_int",
        "index_bool",
        "orientation_bool",
        "orientation_float",
        "criteria_string",
        "conditions_not_array",
        "embedding_not_object",
        "min_poly_not_array",
        "phi_not_array",
        "unknown_size_key",
        "n_bool",
        "search_null",
        "search_string",
        "unknown_config_key",
        "unknown_algebra_key",
        "diag_with_gram",
        "base_division_with_d",
        "unknown_field_key",
        "decimal_point",
        "decimal_denominator",
        "spaces",
        "underscore",
        "zero_denominator",
        "criteria_empty",
    ],
)
def test_malformed_config_exit_2(tmp_path, capsys, command, config, fragment):
    code, out = _run(tmp_path, capsys, command, config)
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "ParseError"
    assert fragment in report["message"]


def test_missing_config_exit_2(capsys):
    # every command but verify reads its job from --config
    with pytest.raises(SystemExit) as exc:
        run(["signature"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_negative_bound_exit_2(tmp_path, capsys):
    config = {"algebra": M2Q, "form": {"diag": ["1", "-1"]}, "search": True}
    code, out = _run(tmp_path, capsys, "np", config, extra=("--bound", "-1"))
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "ParseError"
    assert "--bound" in report["message"]


def test_exponent_coefficient_exits_2_at_once(tmp_path, capsys):
    # Fraction reads "1e400" as 10^400, and "1e1000000000" as an integer of
    # a billion digits; the wire grammar has no exponent, so the config is
    # rejected as it is read, before any such integer is built
    def give_up(signum, frame):
        raise TimeoutError("the config was not rejected within 5 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        start = time.perf_counter()
        code, out = _run(tmp_path, capsys, "orderings", {"field": {"min_poly": ["1e400", "0", "1"]}})
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"
    assert elapsed < 0.5


def test_member_of_a_non_symmetric_element_exits_2(tmp_path, capsys):
    # Phi^(-1) b = [[2, 1], [-1, 3]] is not symmetric, so b is not
    config = {
        "algebra": M2Q_PHI,
        "element": [["2", "1"], ["1", "-3"]],
        "ordering_index": 0,
        "orientation": 1,
    }
    code, out = _run(tmp_path, capsys, "member", config)
    assert code == 2
    assert json.loads(out)["error"] == "NotSymmetric"
