"""Self-tests of the benchmark: the verifier rejects corrupted outputs, and
every workload runs end to end at a tiny size.

    python3 -m pytest -q bench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import verify  # noqa: E402
import workloads as wl  # noqa: E402


def _roundtrip(doc):
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def skew_reports():
    reports = wl.run_skew(wl.setup_skew(seed=3, size=2))
    return _roundtrip([r.to_dict() for r in reports])


@pytest.fixture(scope="module")
def cli_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "report.json"
    assert wl.run_check_default(wl.setup_check_default(2, str(out))) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def grid_r():
    return _roundtrip(wl.grid_r_sample(2))


@pytest.fixture(scope="module")
def point_eval():
    state = wl.setup_point_eval(seed=5, size=2)
    path = BENCH / "results" / "selftest-point-eval.json"
    path.parent.mkdir(exist_ok=True)
    wl.dump_point_eval(wl.run_point_eval(state), str(path))
    records = json.loads(path.read_text())
    path.unlink()
    return records, wl.point_eval_contexts(5, 2)


def test_clean_outputs_verify(skew_reports, cli_doc, grid_r, point_eval):
    v = verify.verify_reports(skew_reports, 2)
    assert (v.problems, v.failed, v.attempted) == ([], 0, 18)
    v = verify.verify_cli_doc(cli_doc, 2, grid_r)
    assert v.problems == [] and v.attempted == 80
    records, contexts = point_eval
    v = verify.verify_point_eval(records, contexts, 5)
    assert v.problems == [] and v.failed == 0
    assert v.attempted == sum(len(c["zs"]) * len(c["ops"]) for c in contexts)


def _first(reports, pred):
    return next(i for i, r in enumerate(reports) if pred(r))


def test_flipped_residual_is_rejected(skew_reports):
    bad = copy.deepcopy(skew_reports)
    i = _first(bad, lambda r: not r["name"].endswith(".negctrl"))
    bad[i]["residual"] = 1e-6  # still reported as pass
    assert any("status pass" in p for p in verify.verify_reports(bad, 2).problems)


def test_control_below_floor_is_rejected(skew_reports):
    bad = copy.deepcopy(skew_reports)
    i = _first(bad, lambda r: r["name"].endswith(".negctrl"))
    bad[i]["residual"] = 1e-4
    assert any("status pass" in p for p in verify.verify_reports(bad, 2).problems)


def test_genuine_fail_counts_as_failed_operation(skew_reports):
    bad = copy.deepcopy(skew_reports)
    i = _first(bad, lambda r: not r["name"].endswith(".negctrl"))
    bad[i].update(residual=1e-6, status="fail")
    v = verify.verify_reports(bad, 2)
    assert v.problems == [] and v.failed == 1


def test_skip_is_failed_and_attributed(cli_doc, grid_r):
    base = verify.verify_cli_doc(cli_doc, 2, grid_r)
    bad = copy.deepcopy(cli_doc)
    i = _first(bad["reports"], lambda r: r["status"] == "pass")
    r = bad["reports"][i]
    r.update(status="skipped-singular", residual=None,
             detail="singular point: |Theta(w)| = 1.0e-07 below guard")
    bad["summary"]["pass"] -= 1
    bad["summary"]["skipped"] += 1
    v = verify.verify_cli_doc(bad, 2, grid_r)
    assert v.problems == [] and v.failed == base.failed + 1
    assert v.skip_causes - base.skip_causes == {"|Theta(w)|": 1}
    family = r["name"].split(".")[0]
    assert v.skipped_by_family[family] == base.skipped_by_family[family] + 1


def test_inconsistent_summary_is_rejected(cli_doc, grid_r):
    bad = copy.deepcopy(cli_doc)
    bad["summary"]["pass"] -= 1
    assert verify.verify_cli_doc(bad, 2, grid_r).problems


@pytest.mark.parametrize("key,value", [("z_samples", 4), ("singular_guard", 1e-3), ("checks", ["dybe"])])
def test_non_default_config_is_rejected(cli_doc, grid_r, key, value):
    bad = copy.deepcopy(cli_doc)
    bad["config_echo"][key] = value
    assert any("configuration" in p for p in verify.verify_cli_doc(bad, 2, grid_r).problems)


def test_perturbed_grid_r_is_rejected(cli_doc, grid_r):
    bad = copy.deepcopy(grid_r)
    bad["R"][2][2][0] *= 1 + 1e-6
    assert any("R differs" in p for p in verify.verify_cli_doc(cli_doc, 2, bad).problems)
    bad = copy.deepcopy(grid_r)
    bad["z"][0] += 1e-3
    assert any("first point" in p for p in verify.verify_cli_doc(cli_doc, 2, bad).problems)


def test_missing_report_is_rejected(skew_reports):
    assert verify.verify_reports(skew_reports[1:], 2).problems


@pytest.mark.parametrize("op", ["R", "Rt21"])
def test_perturbed_r_entry_is_rejected(point_eval, op):
    records, contexts = point_eval
    bad = copy.deepcopy(records)
    rec = next(r for r in bad if op in r)
    entry = rec[op]["value"][1][2]
    entry[0] *= 1 + 1e-6
    assert verify.verify_point_eval(bad, contexts, 5).problems


def test_perturbed_theta_is_rejected(point_eval):
    records, contexts = point_eval
    bad = copy.deepcopy(records)
    bad[0]["theta_pz"]["value"][1] += 1e-9
    assert verify.verify_point_eval(bad, contexts, 5).problems


def test_oracle_matches_frozen_values():
    """The live mpmath oracle reproduces the repository's frozen rho value."""
    q_half = 0.47 ** 0.5
    rho = complex(verify.rho_oracle(0.6 + 0.2j, 0.31, q_half))
    assert verify.rel(rho, 1.3517393971096406 + 1.1874559064136709j) < 1e-12


def test_window_speed_averages_the_samples_in_the_window():
    nominal = run.PROBE_NOMINAL_S
    # full speed, then half speed, inside [1, 2]; a sample outside is ignored
    samples = [(0.5, 4 * nominal), (1.0, nominal), (1.5, 2 * nominal)]
    assert run.window_speed(samples, 1.0, 2.0) == pytest.approx((0.75, 3 * nominal))
    # no sample inside the window: the speed of all of them, no probe time
    assert run.window_speed(samples, 3.0, 4.0) == pytest.approx(((0.25 + 1 + 0.5) / 3, 0.0))


def test_time_at_nominal_speed():
    assert run.at_nominal_speed(2.0, 0.5, 1.0, 1.5) == 1.5
    assert run.at_nominal_speed(2.0, 0.0, 0.5, 1.0) == pytest.approx(1.0)
    assert run.at_nominal_speed(2.0, 0.0, 0.25, 1.5) == pytest.approx(0.25)


def test_probe_sample_is_timed():
    at, duration = run.probe_once()
    assert at > 0 and 0 < duration < 1


def test_worker_environment_has_no_program_config(monkeypatch):
    monkeypatch.setenv("DYNELL_CONFIG", "elsewhere.toml")
    assert "DYNELL_CONFIG" not in run.worker_env()


def test_missing_tracing_target_raises(monkeypatch):
    import dynell  # noqa: F401
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", (("special", "dynell.special", None, ("no_such_kernel",)),))
    with pytest.raises(tracer.TracerError, match="no_such_kernel"):
        tracer.Tracer().install()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_end_to_end_tiny(workload):
    rec = run.run_workload(workload, seed=1, seconds=0, trace=False, size=1,
                           min_passes=2, setup_starts=2)
    assert rec["correct"], rec["problems"]
    assert rec["passes"] == 2 and len(rec["setup_s"]) == 2
    assert rec["failed"] == 0 and rec["attempted"] > 0
    assert set(rec["metrics"]) == {"setup_s", "pass_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in rec["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_cover_the_pass(workload):
    rec = run.run_workload(workload, seed=1, seconds=0, trace=True, size=1, min_passes=1)
    Path(rec["trace_file"]).unlink()
    assert rec["correct"], rec["problems"]
    assert set(rec["metrics"]) == set(run.PER_LAYER_UNITS)
    assert rec["trace"]["layer_share_of_pass"] > 0.95
