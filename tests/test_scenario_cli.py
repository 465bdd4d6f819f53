import json
import os
import subprocess
import sys

import pytest

import stab
from stab.scenario import (parse_scenario, run_scenario, report_csv, report_json,
                           ScenarioError)


BASE = {
    "name": "demo",
    "backend": {"kind": "integers"},
    "modules": {"M": {"rank": 1, "factors": ["8"]}, "R": {"rank": 1, "factors": []}},
    "ideals": {"I": "2", "J": "2"},
    "submodules": {"full": [["1"]]},
    "morphisms": {"beta4": {"source": "R", "target": "R", "matrix": [["4"]]}},
    "family": {"kind": "quotient_powers", "module": "M", "ideal": "I"},
    "functor": {"kind": "identity"},
    "depth_ideal": "J",
    "horizon": 16, "window": 4,
    "artin_rees": {"beta": "beta4", "n_prime": "full", "ideal": "I", "horizon": 8},
    "expect": {"ass": {"status": "stable", "n0_max": 30},
               "depth": {"status": "stable"}, "artin_rees_d": 2},
}


def scenario(**overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    return doc


def test_parse_and_run_base():
    sc = parse_scenario(scenario())
    out = run_scenario(sc)
    assert out.expect_ok
    assert out.artin_d == 2


def test_unknown_module_reference():
    doc = scenario(family={"kind": "quotient_powers", "module": "X", "ideal": "I"})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "family.module" in str(err.value)


def test_bad_matrix_anchored():
    doc = scenario(morphisms={"beta4": {"source": "R", "target": "R",
                                        "matrix": [["nope"]]}})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert "morphisms.beta4" in str(err.value)


def test_ill_defined_morphism_rejected():
    doc = scenario()
    doc["modules"]["T"] = {"rank": 0, "factors": ["4"]}
    doc["modules"]["S"] = {"rank": 0, "factors": ["8"]}
    doc["morphisms"]["bad"] = {"source": "T", "target": "S", "matrix": [["1"]]}
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_csv_shape_and_determinism():
    sc = parse_scenario(scenario())
    out1 = run_scenario(sc)
    out2 = run_scenario(parse_scenario(scenario()))
    csv1, csv2 = report_csv(sc, out1), report_csv(sc, out2)
    assert csv1 == csv2
    lines = csv1.strip().split("\n")
    assert lines[0] == "n,invariant_factors,ass,depth"
    assert lines[1] == "1,2;2,(2),0"
    assert len(lines) == 17


def test_report_json_fields():
    sc = parse_scenario(scenario())
    out = run_scenario(sc)
    doc = json.loads(report_json(sc, out))
    assert doc["ass_verdict"]["status"] == "stable"
    assert doc["depth_verdict"]["status"] == "stable"
    assert doc["artin_rees_d"] == 2
    assert doc["expect_ok"] is True
    assert doc["rows"][0] == {"n": 1, "invariant_factors": ["2", "2"],
                              "ass": ["(2)"], "depth": "0"}
    assert doc["annihilator_checks"] == 16


def _run_cli(args, cwd):
    # The child runs in ``cwd``, so a relative PYTHONPATH would not find stab.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stab.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_run_ok(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps(scenario()))
    proc = _run_cli(["run", "s.json", "--out", "reports"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "reports" / "demo.csv").exists()
    assert (tmp_path / "reports" / "demo.json").exists()
    assert "ass=stable" in proc.stdout


def test_cli_run_byte_identical(tmp_path):
    (tmp_path / "s.json").write_text(json.dumps(scenario()))
    _run_cli(["run", "s.json", "--out", "r1"], tmp_path)
    _run_cli(["run", "s.json", "--out", "r2"], tmp_path)
    assert (tmp_path / "r1" / "demo.csv").read_bytes() == \
        (tmp_path / "r2" / "demo.csv").read_bytes()
    assert (tmp_path / "r1" / "demo.json").read_bytes() == \
        (tmp_path / "r2" / "demo.json").read_bytes()


def test_cli_malformed_file_exit_1(tmp_path):
    (tmp_path / "bad.json").write_text("{ not json")
    proc = _run_cli(["run", "bad.json"], tmp_path)
    assert proc.returncode == 1
    assert "bad.json:1" in proc.stderr


def test_cli_validation_error_exit_1(tmp_path):
    doc = scenario(family={"kind": "quotient_powers", "module": "X", "ideal": "I"})
    (tmp_path / "s.json").write_text(json.dumps(doc))
    proc = _run_cli(["run", "s.json"], tmp_path)
    assert proc.returncode == 1
    assert "family.module" in proc.stderr


# A homology family whose scan starts at n = 14: BASE's window of 4 then needs
# horizon >= 17, one more than BASE's horizon of 16.
KW_SHIFTED = {
    "kind": "kw_homology", "ideal": "I",
    "alpha": {"source": "R", "target": "R", "matrix": [["2"]]},
    "beta": {"source": "R", "target": {"rank": 0, "factors": []}, "matrix": []},
    "l_sub": "full", "m_sub": "full", "n_sub": [],
    "shift": {"c": 14, "l1": "full", "l2": "full"},
}

MALFORMED = [
    ("name", {"name": "../escape"}),
    ("name", {"name": "sub/dir"}),
    ("name", {"name": "sub\\dir"}),
    ("name", {"name": 7}),
    ("horizon", {"horizon": "abc"}),
    ("horizon", {"horizon": 12.5}),
    ("window", {"window": True}),
    ("modules", {"modules": []}),
    ("modules.M", {"modules": {"M": []}}),
    ("backend", {"backend": 5}),
    ("artin_rees", {"artin_rees": 5}),
    ("artin_rees.horizon", {"artin_rees": dict(BASE["artin_rees"], horizon="8")}),
    ("functor", {"functor": 5}),
    ("expect", {"expect": []}),
    ("expect.ass.n0_max", {"expect": {"ass": {"n0_max": "x"}}}),
    ("expect.depth.status", {"expect": {"depth": {"status": 1}}}),
    ("expect.artin_rees_d", {"expect": {"artin_rees_d": 2.0}}),
    ("out", {"out": 3}),
    ("functor.rules", {"functor": {"kind": "oscillating", "rules": 5}}),
    ("functor.a", {"functor": {"kind": "middle_finite", "b": "M", "a": 5}}),
    ("functor.c", {"functor": {"kind": "middle_finite", "b": "M", "c": 5}}),
    ("functor.set.elements", {"functor": {"kind": "tau", "set": {"elements": 5}}}),
    ("functor.set.closure", {"functor": {"kind": "tau", "set": {"closure": 5}}}),
    # The scan range: window >= 2 and horizon >= first index + window - 1.
    ("window", {"window": 1}),
    ("horizon", {"horizon": 3}),
    ("horizon", {"family": KW_SHIFTED}),
    ("functor: c[0].invert", {"functor": {"kind": "middle_finite", "b": "R", "d_b": [["1"]],
                                         "c": [{"module": "R", "invert": "0"}]}}),
    ("modules.M: rank", {"modules": dict(BASE["modules"], M={"rank": 1.5, "factors": ["8"]})}),
    ("modules.M: rank", {"modules": dict(BASE["modules"], M={"rank": True, "factors": ["8"]})}),
    ("modules.M: rank", {"modules": dict(BASE["modules"], M={"rank": -2, "factors": ["8"]})}),
    ("modules.M: ambient", {"modules": dict(BASE["modules"],
                                            M={"relations": [["8", "0"]], "ambient": -1})}),
    # Inputs that escaped as tracebacks.
    ("functor.set", {"functor": {"kind": "tau", "set": {"elements": []}}}),
    ("functor.set", {"functor": {"kind": "tau", "set": {"closure": ["0"]}}}),
    ("functor.index", {"functor": {"kind": "complex", "d1": "beta4", "index": 1.0,
                                   "d2": {"source": {"rank": 0}, "target": "R",
                                          "matrix": [[]]}}}),
    ("functor", {"functor": {"kind": "oscillating", "prime": "0",
                             "set": {"parity": "even"}}}),
    ("modules.M: rank", {"modules": dict(BASE["modules"], M={"rank": 2**70, "factors": ["8"]})}),
    ("backend: characteristic", {"backend": {"kind": "poly", "characteristic": None}}),
    # Inputs that were silently coerced.
    ("functor.set: members", {"functor": {"kind": "oscillating", "prime": "2",
                                          "set": {"members": [1.5]}}}),
    ("functor.set: members", {"functor": {"kind": "oscillating", "prime": "2",
                                          "set": {"members": [True]}}}),
    ("functor.set: progression start", {"functor": {"kind": "oscillating", "prime": "2",
                                                    "set": {"progressions": [["1", "2"]]}}}),
    ("modules.M: factors", {"modules": dict(BASE["modules"], M={"rank": 1, "factors": "12"})}),
    ("functor.index", {"functor": {"kind": "complex", "d1": "beta4", "index": True,
                                   "d2": {"source": {"rank": 0}, "target": "R",
                                          "matrix": [[]]}}}),
    ("artin_rees.horizon", {"artin_rees": dict(BASE["artin_rees"], horizon=-1)}),
    ("backend: characteristic", {"backend": {"kind": "poly", "characteristic": "5"}}),
    # More generators than MAX_GENERATORS through the factor list.
    ("modules.M: factors", {"modules": dict(BASE["modules"], M={"factors": ["2"] * 1100})}),
    ("modules.M: factors", {"modules": dict(BASE["modules"],
                                            M={"rank": 1000, "factors": ["2"] * 100})}),
    # Repeated oscillating primes, equal or associate, and parity beside other fields:
    # each silently dropped a rule or a field.
    ("functor.rules[1].prime", {"functor": {"kind": "oscillating", "rules": [
        {"prime": "2", "set": {"members": [1]}}, {"prime": "-2", "set": {"members": [2]}}]}}),
    ("functor.rules[2].prime", {"functor": {"kind": "oscillating", "rules": [
        {"prime": "3", "set": {"members": [1]}}, {"prime": "2", "set": {"members": [1]}},
        {"prime": "3", "set": {"members": [2]}}]}}),
    ("functor.set", {"functor": {"kind": "oscillating", "prime": "2",
                                 "set": {"parity": "even", "members": [1]}}}),
    ("functor.set", {"functor": {"kind": "oscillating", "prime": "2",
                                 "set": {"parity": "odd", "progressions": [[2, 2]]}}}),
    ("functor.rules[0].set", {"functor": {"kind": "oscillating", "rules": [
        {"prime": "2", "set": {"parity": "odd", "members": []}}]}}),
    # A misspelt exponent-set key was read as the empty set.
    ("functor.set", {"functor": {"kind": "oscillating", "prime": "2",
                                 "set": {"member": [1]}}}),
    ("functor.rules[0].set", {"functor": {
        "kind": "oscillating", "rules": [{"prime": "2", "set": {"progression": [[1, 2]]}}]}}),
    # A complex whose maps meet in Z and Z/4: equal ambient ranks, different middle terms.
    ("functor", {"functor": {"kind": "complex", "index": 1,
                             "d2": {"source": "R", "target": "R", "matrix": [["2"]]},
                             "d1": {"source": {"rank": 0, "factors": ["4"]},
                                    "target": {"rank": 0, "factors": ["2"]},
                                    "matrix": [["1"]]}}}),
]


def _malformed_id(prefix, overrides):
    value = repr(list(overrides.values())[0])
    # A long override, such as a list of a thousand factors, is cut short.
    return f"{prefix}={value if len(value) <= 300 else value[:60] + '...'}"


@pytest.mark.parametrize("prefix,overrides", MALFORMED,
                         ids=[_malformed_id(p, o) for p, o in MALFORMED])
def test_cli_malformed_field_exit_1(tmp_path, prefix, overrides):
    work = tmp_path / "work"
    work.mkdir()
    (work / "s.json").write_text(json.dumps(scenario(**overrides)))
    proc = _run_cli(["run", "s.json", "--out", "reports"], work)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"error: s.json: {prefix}: " in proc.stderr
    assert "Traceback" not in proc.stderr
    # Nothing was written, inside --out or outside it.
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) \
        == ["work", "work/s.json"]


def test_kw_shift_scan_range_is_checked_at_its_first_index():
    # Horizon 17 fits a window of 4 from n = 14; horizon 16 does not.
    sc = parse_scenario(scenario(family=KW_SHIFTED, horizon=17))
    assert [n for n, _ in run_scenario(sc).result.ass_report.observations] == \
        [14, 15, 16, 17]


@pytest.mark.parametrize("argv,prefix", [
    (["run", "s.json", "--window", "1"], "s.json: window"),
    (["run", "s.json", "--horizon", "3"], "s.json: horizon"),
    (["run", "s.json", "--horizon", "20", "--window", "21"], "s.json: horizon"),
    (["run", "k.json", "--horizon", "16"], "k.json: horizon"),
    (["suite", "--window", "1"], "brodmann_int_graded.json: window"),
    (["suite", "--horizon", "5"], "brodmann_int_graded.json: horizon"),
])
def test_cli_scan_range_override_exit_1(tmp_path, argv, prefix):
    work = tmp_path / "work"
    work.mkdir()
    (work / "s.json").write_text(json.dumps(scenario()))
    (work / "k.json").write_text(json.dumps(scenario(family=KW_SHIFTED, horizon=17)))
    proc = _run_cli([*argv, "--out", "reports"], work)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith(f"error: {prefix}: "), proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) \
        == ["work", "work/k.json", "work/s.json"]


@pytest.mark.parametrize("argv, name, message", [
    (["run", "s.json", "--out", "reports"], "a" * 300, "File name too long"),
    (["run", "s.json", "--out", "taken"], "demo", "taken: File exists"),
    (["suite", "--out", "taken"], "demo", "taken: File exists"),
], ids=["run-name-too-long", "run-out-is-a-file", "suite-out-is-a-file"])
def test_cli_report_write_error_exit_1(tmp_path, argv, name, message):
    (tmp_path / "s.json").write_text(json.dumps(scenario(name=name)))
    (tmp_path / "taken").write_text("")
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.endswith(f"{message}\n"), \
        proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_cli_domain_violation_exit_2(tmp_path):
    doc = scenario()
    del doc["expect"]
    del doc["artin_rees"]
    doc["modules"]["FREE"] = {"rank": 1, "factors": []}
    doc["family"] = {"kind": "quotient_powers", "module": "FREE", "ideal": "0"}
    doc["functor"] = {"kind": "oscillating", "prime": "2", "set": {"parity": "even"}}
    (tmp_path / "s.json").write_text(json.dumps(doc))
    proc = _run_cli(["run", "s.json"], tmp_path)
    assert proc.returncode == 2
    assert "domain violation" in proc.stderr


def test_cli_expectation_mismatch_exit_3(tmp_path):
    doc = scenario(expect={"ass": {"status": "oscillating-with-period-2"}})
    (tmp_path / "s.json").write_text(json.dumps(doc))
    proc = _run_cli(["run", "s.json"], tmp_path)
    assert proc.returncode == 3
    assert "mismatch" in proc.stderr


def test_cli_compute_snf(tmp_path):
    proc = _run_cli(["compute", "snf", json.dumps({"matrix": [[2, 4], [6, 8]]})],
                    tmp_path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["diagonal"] == ["2", "4"]


def test_cli_compute_hnf(tmp_path):
    proc = _run_cli(["compute", "hnf", json.dumps({"matrix": [[12, 6]]})], tmp_path)
    out = json.loads(proc.stdout)
    assert out["h"] == [["6", "0"]]


def test_cli_compute_ass(tmp_path):
    args = {"module": {"rank": 1, "factors": [12]}}
    proc = _run_cli(["compute", "ass", json.dumps(args)], tmp_path)
    assert json.loads(proc.stdout)["ass"] == ["(0)", "(2)", "(3)"]


def test_cli_compute_depth(tmp_path):
    args = {"ideal": "1", "module": {"rank": 1, "factors": [12]}}
    proc = _run_cli(["compute", "depth", json.dumps(args)], tmp_path)
    assert json.loads(proc.stdout)["depth"] == "inf"


def test_cli_compute_hom(tmp_path):
    args = {"source": {"rank": 0, "factors": [6]}, "target": {"rank": 0, "factors": [4]}}
    proc = _run_cli(["compute", "hom", json.dumps(args)], tmp_path)
    assert json.loads(proc.stdout)["module"] == {"rank": 0, "factors": ["2"]}


def test_cli_compute_eval(tmp_path):
    args = {"modules": {"A": {"rank": 0, "factors": [2]}},
            "functor": {"kind": "ext1", "module": "A"},
            "argument": {"rank": 0, "factors": [8]}}
    proc = _run_cli(["compute", "eval", json.dumps(args)], tmp_path)
    assert json.loads(proc.stdout)["value"] == {"rank": 0, "factors": ["2"]}


def test_cli_compute_bad_input_exit_1(tmp_path):
    proc = _run_cli(["compute", "snf", "{"], tmp_path)
    assert proc.returncode == 1
    for sub, arg in [("snf", "[1]"), ("ass", '{"module": []}'),
                     ("snf", '{"backend": 5, "matrix": [[1]]}')]:
        proc = _run_cli(["compute", sub, arg], tmp_path)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    for sub, arg, prefix in [
            ("ass", '{"module": {"rank": "x", "factors": []}}', "module"),
            ("depth", '{"ideal": "2", "module": {"factors": ["y"]}}', "module"),
            ("ass", '{"module": {"factors": 5}}', "module"),
            ("ass", '{"module": {"rank": -2, "factors": [4]}}', "module: rank"),
            ("ass", '{"module": {"rank": 1.5, "factors": [4]}}', "module: rank"),
            ("ass", '{"module": {"rank": true}}', "module: rank"),
            ("depth", '{"ideal": "2", "module": {"relations": [[2]], "ambient": 1.5}}',
             "module: ambient"),
            ("eval", '{"functor": {"kind": "identity"}, "argument": {"rank": -1}}',
             "argument: rank"),
            ("hom", '{"source": {"factors": []}, "target": {"relations": 5}}', "target"),
            ("ass", '{"module": {"relations": [[2]], "ambient": 2}}', "module: relations"),
            ("eval", '{"functor": {"kind": "oscillating", "prime": "0", "set": {"parity": "odd"}},'
                     ' "argument": {"factors": [4]}}', "functor"),
            ("ass", json.dumps({"module": {"factors": ["2"] * 1100}}), "module: factors"),
            ("ass", json.dumps({"module": {"rank": 1000, "factors": ["2"] * 100}}),
             "module: factors"),
            ("eval", '{"functor": {"kind": "oscillating", "prime": "2", "set": {"member": [1]}},'
                     ' "argument": {"factors": ["2"]}}', "functor.set"),
            ("eval", '{"functor": {"kind": "oscillating", "rules": [{"prime": "2",'
                     ' "set": {"parity": "odd", "odd": true}}]}, "argument": {"factors": ["2"]}}',
             "functor.rules[0].set")]:
        proc = _run_cli(["compute", sub, arg], tmp_path)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith(f"error: {prefix}: "), proc.stderr


def test_cli_compute_domain_violation_exit_2(tmp_path):
    # An oscillating functor is defined on torsion modules only.
    args = {"functor": {"kind": "oscillating", "prime": "2", "set": {"parity": "even"}},
            "argument": {"rank": 1}}
    proc = _run_cli(["compute", "eval", json.dumps(args)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("domain violation: ") and proc.stdout == ""


def test_cli_compute_eval_of_maps_that_do_not_descend_exit_2(tmp_path):
    # Z/3 -> Z[1/2], 1 -> 1, does not descend to Z/3 (x) Z/9 -> Z/9[1/2].
    args = {"functor": {"kind": "middle_finite", "b": {"rank": 0, "factors": [3]},
                        "c": [{"module": {"rank": 1}, "invert": 2}], "d_b": [[1]]},
            "argument": {"rank": 0, "factors": [9]}}
    proc = _run_cli(["compute", "eval", json.dumps(args)], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("domain violation: maps do not descend") and proc.stdout == ""


def test_cli_compute_ass_of_free_module_without_relations(tmp_path):
    proc = _run_cli(["compute", "ass", '{"module": {"relations": [], "ambient": 2}}'], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ass"] == ["(0)"]


def test_cli_compute_poly_backend(tmp_path):
    args = {"backend": {"kind": "poly", "characteristic": 2},
            "module": {"rank": 0, "factors": [[0, 1, 1]]}}
    proc = _run_cli(["compute", "ass", json.dumps(args)], tmp_path)
    assert json.loads(proc.stdout)["ass"] == ["(x)", "(x+1)"]


def test_cli_compute_rejects_a_strong_pseudoprime_characteristic(tmp_path):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes the
    # strong test to every prime base up to 37.
    args = {"backend": {"kind": "poly", "characteristic": 318665857834031151167461},
            "module": {"rank": 0, "factors": [[1, 1]]}}
    proc = _run_cli(["compute", "ass", json.dumps(args)], tmp_path)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith("error: backend: characteristic "), proc.stderr
    assert proc.stdout == ""


def test_cli_suite_runs(tmp_path):
    proc = _run_cli(["suite", "--seed", "1"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failures" in proc.stdout


def test_complex_functor_kind_parses_and_runs():
    doc = scenario()
    del doc["expect"]
    doc["modules"]["Z0"] = {"rank": 0, "factors": []}
    doc["morphisms"]["d2"] = {"source": "Z0", "target": "R", "matrix": [[]]}
    doc["morphisms"]["pres"] = {"source": "R", "target": "R", "matrix": [["4"]]}
    doc["functor"] = {"kind": "complex", "d2": "d2", "d1": "pres", "index": 1}
    sc = parse_scenario(doc)
    out = run_scenario(sc)
    # Tor_1(Z/4, M/2^n M) stays 2-primary
    assert out.result.ass_report.status == "stable"


def test_tau_functor_kind_parses():
    doc = scenario()
    doc["functor"] = {"kind": "tau", "set": {"elements": ["2", "4"]}}
    sc = parse_scenario(doc)
    assert run_scenario(sc).result.ass_report.status == "stable"
    doc["functor"] = {"kind": "mod_tau", "set": {"closure": ["2"]}}
    doc["expect"] = {"ass": {"status": "stable"}}
    assert run_scenario(parse_scenario(doc)).expect_ok


def test_non_cmc_set_rejected_at_parse():
    doc = scenario()
    doc["functor"] = {"kind": "tau", "set": {"elements": ["4", "6"]}}
    sc = parse_scenario(doc)  # construction is lazy; evaluation raises
    with pytest.raises(Exception):
        run_scenario(sc)


def test_packaged_scenarios_roundtrip():
    from stab.cli import _iter_packaged_scenarios
    names = []
    for name, text in _iter_packaged_scenarios():
        sc = parse_scenario(json.loads(text))
        assert name == f"{sc.name}.json"
        names.append(name)
    assert len(names) >= 25


def test_packaged_period_after_transient():
    # {1} and the even exponents from 4: n = 3 already fits the tail (odd n
    # give no prime), so the period-2 tail starts at 3, after the transient
    # at n = 1, 2.
    from stab.cli import _iter_packaged_scenarios
    text = dict(_iter_packaged_scenarios())["osc_period2_after_transient.json"]
    outcome = run_scenario(parse_scenario(json.loads(text)))
    report = outcome.result.ass_report
    assert (report.status, report.period, report.n0) == ("oscillating-with-period-2", 2, 3)
    assert outcome.expect_ok, outcome.expect_failures
