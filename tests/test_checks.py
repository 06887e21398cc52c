"""Identity checks, negative controls, and the suite harness."""

import collections
import functools
import json
import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from dynell.checks import (
    _REGISTRY,
    CONTROL_THRESHOLD,
    GridSpec,
    all_check_names,
    check_a_equals_n,
    check_crossing,
    check_crossing_unitarity,
    check_dybe,
    check_lemma_p1,
    check_magic,
    check_n_forms,
    check_proof_chain_cor22,
    check_unitarity,
    integration_trace_check,
    resolve_check_names,
    run_suite,
    suite_passes,
    summarize,
)
from dynell import DynMatrix, Params, checks, rmatrix, shiftcalc, special, weight_shift_matrix
from dynell.special import SingularPointError

from helpers import make_params, skew_resid

PARAMS = make_params()
S0 = 0.37 + 0.11j
Z = (1.3 + 0.4j, 0.7 - 0.2j, 1.1 + 0.9j)


GRID = GridSpec()
POINT0 = GRID.sample_points()[0]


def assert_pass(residual, tol=None):
    assert isinstance(residual, float), residual
    assert residual <= (tol if tol is not None else PARAMS.tolerance)


def assert_control_fails(residual):
    # a control "passes" exactly when the corrupted identity fails
    assert isinstance(residual, float), residual
    assert residual > CONTROL_THRESHOLD


def suite_reports(name, points=(POINT0,), grid=GRID):
    """The reports of one suite row at the given grid points."""
    return _REGISTRY[name](grid, list(points))


@functools.cache
def one_point_reports():
    """Every suite row's reports at the first default grid point."""
    return {name: suite_reports(name) for name in _REGISTRY}


class TestDybe:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_passes(self, twisted):
        assert_pass(check_dybe(PARAMS, S0, *Z, twisted=twisted))

    def test_trigonometric_limit(self):
        params = Params.make(0.6855654600401044, 0.0)
        assert_pass(check_dybe(params, S0, *Z))

    def test_negative_control(self):
        assert_control_fails(check_dybe(PARAMS, S0, *Z, corruption="drop_spectator_shift"))
        [rep] = suite_reports("dybe.negctrl")
        assert (rep.name, rep.status) == ("dybe.negctrl", "pass")
        assert_control_fails(rep.residual)


class TestUnitarity:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_passes(self, twisted):
        assert_pass(check_unitarity(PARAMS, S0, Z[0], twisted=twisted))

    def test_unit_circle_point(self):
        z = np.exp(0.7j)
        assert_pass(check_unitarity(PARAMS, S0, z))

    def test_rescaling_control(self):
        assert_control_fails(check_unitarity(PARAMS, S0, Z[0], corruption="rescale"))


class TestCrossing:
    def test_plain(self):
        assert_pass(check_crossing(PARAMS, S0, Z[0]))

    def test_twisted(self):
        assert_pass(check_crossing(PARAMS, S0, Z[0], twisted=True))

    def test_trigonometric_limit(self):
        params = Params.make(0.6855654600401044, 0.0)
        assert_pass(check_crossing(params, S0, Z[0]))
        assert_pass(check_crossing(params, S0, Z[0], twisted=True))

    def test_gamma_removal_control(self):
        assert_control_fails(
            check_crossing(PARAMS, S0, Z[0], twisted=True, corruption="drop_gamma")
        )


class TestCrossingUnitarity:
    @pytest.mark.parametrize("twisted", [True, False])
    def test_passes(self, twisted):
        assert_pass(check_crossing_unitarity(PARAMS, S0, Z[0], twisted=twisted))

    def test_wrong_argument_control(self):
        assert_control_fails(
            check_crossing_unitarity(PARAMS, S0, Z[0], corruption="wrong_shift_arg")
        )


class TestProofChain:
    def test_all_steps_pass(self):
        steps = check_proof_chain_cor22(PARAMS, S0, Z[0])
        assert list(steps) == [f"step{n}" for n in range(1, 8)]
        for residual in steps.values():
            assert_pass(residual)

    def test_trigonometric_limit(self):
        params = Params.make(0.6855654600401044, 0.0)
        for residual in check_proof_chain_cor22(params, S0, Z[0]).values():
            assert_pass(residual)

    def test_steps_share_their_inverses(self, monkeypatch):
        # one chain run at the first default-grid point inverts no array twice
        inverted = []
        inv_guarded = shiftcalc.inv_guarded

        def counting(arrs, *args):
            inverted.extend(a.tobytes() for a in np.asarray(arrs))
            return inv_guarded(arrs, *args)

        monkeypatch.setattr(shiftcalc, "inv_guarded", counting)
        _, args = checks._chain_samples(GRID, POINT0)
        assert len(check_proof_chain_cor22(*args)) == 7
        assert inverted
        assert len(set(inverted)) == len(inverted)

    def test_pattern_work_happens_once_per_pattern(self, monkeypatch):
        # a second grid point rebuilds the same pattern graphs: every mask
        # and plan comes from the table the first point filled
        derived = []
        for name in (
            "_matmul_masks", "_matmul_plan", "_add_masks", "_add_plan",
            "_gather_table", "_gather_masks", "_gather_plan", "_shift_groups",
            "_shift_plan", "_off_weight",
        ):
            fn = getattr(shiftcalc, name)

            def counting(*args, fn=fn):
                derived.append(fn)
                return fn(*args)

            monkeypatch.setattr(shiftcalc, name, counting)
        monkeypatch.setattr(shiftcalc, "_PATTERNS", {})
        monkeypatch.setattr(shiftcalc, "_DERIVED", {})
        grid = GridSpec()
        points = grid.sample_points()
        sizes = []
        for pt in (points[0], points[2]):
            _, args = checks._chain_samples(grid, pt)
            for residual in check_proof_chain_cor22(*args).values():
                assert_pass(residual)
            tables = (shiftcalc._PATTERNS, shiftcalc._DERIVED, derived)
            sizes.append(tuple(map(len, tables)))
        assert sizes[0][2] == sizes[0][1] > 0
        assert sizes[1] == sizes[0]

    def test_mu_factor_control(self):
        assert_control_fails(
            check_proof_chain_cor22(PARAMS, S0, Z[0], corruption="drop_detg_sc")
        )
        [rep] = suite_reports("cor22chain.negctrl")
        assert (rep.name, rep.status) == ("cor22chain.negctrl", "pass")
        assert_control_fails(rep.residual)


def laurent_entry(rng):
    """One random Laurent entry drawn and evaluated per entry, in numpy scalar
    arithmetic: s -> checks._laurent of five drawn coefficients at w."""
    cs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return lambda s: checks._laurent(cs, rmatrix.dyn_w(s, PARAMS))


def hex_parts(x) -> tuple:
    return x.real.hex(), x.imag.hex()


def count_w_reads(monkeypatch) -> list:
    """The (samples, points) of each call the leaves make to the array form
    of dyn_w from here on."""
    calls, rows = [], checks._dyn_w_rows

    def counted(s, params, pts):
        calls.append((s.tolist(), pts.tolist()))
        return rows(s, params, pts)

    monkeypatch.setattr(checks, "_dyn_w_rows", counted)
    return calls


def skew_degrees(rng):
    return rng.choice(np.arange(-2, 3), size=3, replace=False)


class TestRandomLaurentLeaf:
    SAMPLES = [S0, -0.6 + 0.3j, 0.9 - 0.45j]
    # numpy's elementwise arithmetic rounds differently from the per-entry form
    EPS = 64 * np.finfo(float).eps

    @staticmethod
    def skew_leaf(seeds=(5, 6)):
        return checks._rand_matrix(
            0, [np.random.default_rng(x) for x in seeds], [PARAMS] * len(seeds),
            degrees=skew_degrees,
        )

    @pytest.mark.parametrize(
        "pattern", [None, np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]],
        ids=["full", "x"],
    )
    def test_leaf_matches_the_per_entry_polynomials(self, pattern, monkeypatch):
        samples = self.SAMPLES
        leaf = checks._rand_matrix(2, [np.random.default_rng(4)], [PARAMS], pattern)
        # the same draws, entry by entry in row-major order
        rng = np.random.default_rng(4)
        mask = np.ones((4, 4), dtype=bool) if pattern is None else pattern
        entries = [
            [laurent_entry(rng) if mask[i, j] else None for j in range(4)]
            for i in range(4)
        ]
        expect = np.array(
            [[[0.0 if e is None else e(s) for e in row] for row in entries] for s in samples]
        )
        calls = count_w_reads(monkeypatch)
        got = leaf.at(samples)
        assert calls == [(samples, [0] * 3)]  # w of the read's samples in one pass
        assert np.array_equal(got[:, ~mask], expect[:, ~mask])
        assert abs(got - expect).max() <= self.EPS * abs(expect).max()
        assert leaf.masks[0].tolist() == mask.tolist()

    def test_skew_element_leaf_equals_the_per_degree_polynomials(self, monkeypatch):
        samples = self.SAMPLES
        seeds = (5, 6)
        leaf = self.skew_leaf(seeds)
        # each point's draws: its degrees, then degree by degree in drawn order
        polys = []
        for x in seeds:
            rng = np.random.default_rng(x)
            polys.append({int(k): laurent_entry(rng) for k in skew_degrees(rng)})
        assert list(polys[0]) == [1, 0, -2] and list(polys[1]) == [-1, 2, 0]
        calls = count_w_reads(monkeypatch)
        got = leaf.coeffs_at(samples * 2)
        assert calls == [(samples * 2, [0] * 3 + [1] * 3)]  # one pass for all the degrees
        assert list(leaf.masks) == [-2, -1, 0, 1, 2]  # the sorted union
        for k, vals in got.items():
            for block, drawn in zip(vals[:, 0, 0].reshape(2, -1), polys):
                if k in drawn:
                    expect = np.array([drawn[k](s) for s in samples])
                    assert abs(block - expect).max() <= self.EPS * abs(expect).max()
                else:  # a degree the point did not draw holds exact zeros
                    assert block.tolist() == [0, 0, 0]

    def test_a_sample_reads_the_same_in_any_batch(self):
        # slice i depends on s[i] alone, bit for bit
        rng = np.random.default_rng(8)
        for nlegs, degrees in ((2, lambda r: (0,)), (0, skew_degrees)) * 10:
            s0, s1 = (complex(*rng.uniform(-1, 1, 2)) for _ in range(2))
            leaf = checks._rand_matrix(nlegs, [rng], [PARAMS], degrees=degrees)
            one, two = leaf.coeffs_at([s0]), leaf.coeffs_at([s0, s1])
            assert all(np.array_equal(one[k][0], two[k][0]) for k in leaf.masks)

    @pytest.mark.parametrize("n", (1, 3, 4, 8))
    def test_samples_are_the_scalar_uniform_draws(self, n):
        # one array draw per point gives each sample's two uniform draws to
        # the last bit and leaves every generator where the scalar draws do
        got = [np.random.default_rng(x) for x in range(1000)]
        want = [np.random.default_rng(x) for x in range(1000)]
        samples = checks._rand_samples(got, n)
        expect = [
            complex(r.uniform(-1.0, 1.0), r.uniform(-0.5, 0.5)) for r in want for _ in range(n)
        ]
        assert [hex_parts(x) for x in samples] == [hex_parts(x) for x in expect]
        assert [r.bit_generator.state for r in got] == [r.bit_generator.state for r in want]

    def test_leaf_equals_the_point_by_point_placement(self):
        # six points with their own Params, per-point degrees and a non-full
        # pattern, against coefficients drawn and placed point by point and
        # degree by degree, read through the same w and _laurent
        pattern = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
        params = [Params.make(0.45 + 0.03 * i, 0.31) for i in range(6)]
        rngs = [np.random.default_rng(40 + i) for i in range(6)]
        leaf = checks._rand_matrix(2, rngs, params, pattern, degrees=skew_degrees)
        ref = [np.random.default_rng(40 + i) for i in range(6)]
        drawn = []
        for r in ref:
            degs = [int(k) for k in skew_degrees(r)]
            raw = r.standard_normal((len(degs), int(pattern.sum()), 2, 5))
            drawn.append(dict(zip(degs, raw[..., 0, :] + 1j * raw[..., 1, :])))
        degs = sorted(set().union(*drawn))
        coeffs = np.zeros((6, len(degs), 5, 16), complex)
        for p, table in enumerate(drawn):
            for k, cs in table.items():
                coeffs[p, degs.index(k)][:, pattern.reshape(-1)] = cs.T
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref]
        s = np.array(self.SAMPLES * 6)
        pts = np.repeat(np.arange(6), len(self.SAMPLES))
        w = checks._dyn_w_rows(s, params, pts)[:, None]
        cs = coeffs[pts].transpose(1, 2, 0, 3)
        got = leaf.coeffs_at(s.tolist())
        assert list(got) == degs
        for k, vals in got.items():
            want = checks._laurent(cs[degs.index(k)], w).reshape(-1, 4, 4)
            assert vals.tobytes() == want.tobytes(), k

    def test_a_repeat_read_is_held(self, monkeypatch):
        leaf = self.skew_leaf()
        samples = self.SAMPLES * 2
        first = leaf.coeffs_at(samples)
        calls = count_w_reads(monkeypatch)
        again = leaf.coeffs_at(samples)
        assert calls == []
        assert list(again) == list(first) == list(leaf.masks)
        assert all(again[k].tobytes() == first[k].tobytes() for k in first)
        assert not any(v.flags.writeable for v in again.values())

    def test_a_popped_read_leaves_the_next_whole(self):
        leaf = self.skew_leaf()
        got = leaf.coeffs_at(self.SAMPLES * 2)
        for k in list(got):
            got.pop(k)
        assert list(leaf.coeffs_at(self.SAMPLES * 2)) == list(leaf.masks)

    def test_a_read_evaluates_what_its_leaf_does_not_hold(self, monkeypatch):
        # each read equals that of a leaf with nothing held, bit for bit
        leaf = self.skew_leaf()
        s, full = np.array([S0, S0]), leaf.masks
        reads = [  # (samples, points, demand, whether the leaf evaluates)
            (s, [0, 1], {0: full[0]}, True),
            (s, [1, 0], {0: full[0]}, True),  # the same samples at other points
            (s + 1, [1, 0], {0: full[0]}, True),
            (s + 1, [1, 0], full, True),  # degrees it does not hold
            (s + 1, [1, 0], {-1: full[-1], 2: full[2]}, False),  # held degrees
        ]
        calls = count_w_reads(monkeypatch)
        for x, pts, need, evaluated in reads:
            pts = np.array(pts)
            want = self.skew_leaf().ev(x, pts, need, [])
            before = len(calls)
            got = leaf.ev(x, pts, need, [])
            assert len(calls) - before == evaluated
            assert list(got) == list(want) == list(need)
            assert all(got[k].tobytes() == want[k].tobytes() for k in need)


# the rows that run once over all grid points
R_ROWS = (
    "dybe.r", "dybe.rtilde", "dybe.negctrl", "unitarity.r", "unitarity.rtilde",
    "unitarity.negctrl", "crossing.r", "crossing.rtilde", "crossing.negctrl",
    "crossunit.rtilde", "crossunit.r", "crossunit.negctrl", "cor22chain",
    "cor22chain.negctrl", "magic.critical", "magic.negctrl", "nforms",
    "nforms.negctrl", "traceint", "traceint.negctrl",
)
BATCHED = R_ROWS + (
    "lemmap1", "lemmap1.negctrl", "shiftcalc.sc_operator_form",
    "shiftcalc.sl_operator_form", "shiftcalc.transpose_exchange",
    "shiftcalc.zero_weight_commutation", "shiftcalc.sigma_y_transpose",
    "shiftcalc.skew_associativity", "shiftcalc.skew_defining",
)
# the scalar special-function rows, which build no DynMatrix
SCALAR_ROWS = (
    "theta.quasiperiodicity", "theta.inversion", "theta.truncation",
    "nscalar.q4period", "aequalsn",
)

# grids whose batches trip guards, by test id: det guards at seeds 0 and 1,
# and theta and rho guards inside the R assembly at p = 0.8
TRIPPING_GRIDS = {
    "0": GridSpec(seed=0),
    "1": GridSpec(seed=1),
    "p0.8": GridSpec(p_fixed=0.8, n_points=3),
}

# the cor22chain.step2 skips of the default grid (seed 0), by point index
CHAIN_SKIPS = {
    1: "singular point: |det| = 1.540e-13 below guard at s = "
       "(0.7148085531751387-0.46641442469453565j)",
    11: "singular point: |det| = 2.393e-10 below guard at s = "
        "(0.43843954565348064-0.484008270476428j)",
    18: "singular point: |det| = 1.959e-08 below guard at s = "
        "(-0.7175068861979368+0.17006184931493595j)",
    22: "singular point: |det| = 3.041e-12 below guard at s = "
        "(-0.8528741893387359-0.42967374643078193j)",
}

# the crossunit.r and magic.critical skips of the default grid at point 1
POINT1_SKIPS = {
    name: "singular point: |det| = 5.427e-14 below guard at s = "
          "(0.7148085531751387-0.46641442469453565j)"
    for name in ("crossunit.r", "magic.critical")
}


class TestGridBatch:
    """Batching a check over the grid moves no point's result."""

    def test_batched_rows(self):
        rows = {name: check for name, check, *_ in checks._SUITE}
        batched = {n for n, c in rows.items() if getattr(c, "over_points", False)}
        assert batched == set(BATCHED)
        assert set(rows) - batched == set(SCALAR_ROWS)

    @pytest.mark.parametrize("grid", TRIPPING_GRIDS.values(), ids=TRIPPING_GRIDS)
    def test_batch_equals_batches_of_one(self, grid):
        points = grid.sample_points()
        skipped = 0
        for name in BATCHED:
            runner = _REGISTRY[name]
            batch = runner(grid, points)
            alone = [rep for pt in points for rep in runner(grid, [pt])]
            per = 7 if name == "cor22chain" else 1  # reports per point
            assert len(batch) == len(alone) == per * len(points)
            for i, (b, a) in enumerate(zip(batch, alone)):
                assert b.residual == a.residual, (b.name, points[i // per].index)
                assert b.to_dict() == a.to_dict()
                assert b.point["index"] == points[i // per].index
            skipped += sum(r.residual is None for r in batch)
        assert skipped  # the trip records are exercised

    def test_a_skew_product_sums_each_degree_in_degree_order(self):
        # point 17 of seed 20 draws E-degrees whose product a @ b lists its
        # degrees in another order than the grid's union does; the terms of
        # each degree are summed by ascending degree either way
        grid = GridSpec(seed=20)
        points = grid.sample_points()
        run = _REGISTRY["shiftcalc.skew_associativity"]
        assert run(grid, points)[17].to_dict() == run(grid, [points[17]])[0].to_dict()

    def test_a_point_skips_on_the_first_trip_its_samples_meet(self):
        # at p = 0.8, point 1, chain step 4 reads four samples per point: an
        # R-leaf guard inside an inverse trips at one sample before the det
        # guard of that inverse trips at another, earlier sample
        grid = replace(TRIPPING_GRIDS["p0.8"], checks=("cor22chain",))
        [rep] = [r for r in run_suite(grid) if (r.name, r.point["index"]) == (
            "cor22chain.step4", 1)]
        assert rep.detail == (
            "singular point: |Theta(1/w)| = 5.812e-07 below guard at "
            "z=(0.6141524099641773-0.13155980471283732j), "
            "s=(-0.7473937224979892-0.3789769991999483j)"
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_points_equal_the_first_three_of_the_grid(self, seed):
        small = run_suite(GridSpec(seed=seed, n_points=3))
        full = run_suite(GridSpec(seed=seed))
        head = [r.to_dict() for r in full if r.point["index"] < 3]
        assert [r.to_dict() for r in small] == head
        # the chain makes seven reports per point, every other row one
        assert len(head) == 3 * (len(all_check_names()) + 6)

    def test_a_batch_with_trips_runs_each_step_and_row_once(self, monkeypatch):
        # point 1 of the default grid trips chain step 2, crossunit and magic
        calls = []
        chain_steps = checks._chain_steps

        def counting(params, *args, **options):
            steps = chain_steps(params, *args, **options)
            calls.append(("build", len(params)))

            def step(k, tr):
                calls.append((f"step{k + 1}", len(params)))
                return steps[k](tr)

            return [functools.partial(step, k) for k in range(len(steps))]

        monkeypatch.setattr(checks, "_chain_steps", counting)
        points = GRID.sample_points()[:3]
        reports = suite_reports("cor22chain", points)
        assert calls == [("build", 3)] + [(f"step{k}", 3) for k in range(1, 8)]
        skipped = [(r.point["index"], r.name) for r in reports if r.residual is None]
        assert skipped == [(1, "cor22chain.step2")]
        assert reports[8].detail == CHAIN_SKIPS[1]
        for name, check, inputs, options in checks._SUITE:
            if name not in R_ROWS:
                continue
            runs = []

            def once(*args, check=check, **kwargs):
                runs.append(len(args[0]))
                return check(*args, **kwargs)

            once.over_points = True
            reports = checks._runner(name, once, inputs, options)(GRID, points)
            assert runs == [3], name
            skips = {r.name: r.detail for r in reports if r.point["index"] == 1}
            if name in POINT1_SKIPS:
                assert skips == {name: POINT1_SKIPS[name]}

    def test_r_rows_do_the_same_work_at_3_and_25_points(self, monkeypatch):
        # R-leaf evaluations, R stacks, reads and np.linalg.inv calls per
        # row do not grow with the grid: each R-matrix family runs once over
        # the whole grid, tripped points included
        counts = {}
        r_dyn, inv = checks._r_dyn, np.linalg.inv
        stack, index = rmatrix._r_stack, shiftcalc.point_index

        def count(key, f):
            def counted(*args):
                counts[key] += 1
                return f(*args)
            return counted

        def counting_r_dyn(*args):
            m = r_dyn(*args)
            m.ev = count("r", m.ev)
            return m

        monkeypatch.setattr(checks, "_r_dyn", counting_r_dyn)
        monkeypatch.setattr(np.linalg, "inv", count("inv", inv))
        monkeypatch.setattr(rmatrix, "_r_stack", count("stack", stack))
        monkeypatch.setattr(shiftcalc, "point_index", count("reads", index))
        for name in R_ROWS:
            work = []
            for n in (3, 25):
                counts.update(r=0, stack=0, inv=0, reads=0)
                run_suite(GridSpec(n_points=n, checks=(name,)))
                work.append(dict(counts))
            assert work[0] == work[1], name
            assert work[0]["reads"] > 0, name

    def test_skew_rows_do_the_same_work_at_3_and_25_points(self, monkeypatch):
        # random-Laurent leaf evaluations per row do not grow with the grid
        calls, rand_matrix = [], checks._rand_matrix

        def counting(*args, **kwargs):
            m = rand_matrix(*args, **kwargs)
            ev = m.ev
            m.ev = lambda s, pts, need, log: calls.append(len(s)) or ev(s, pts, need, log)
            return m

        monkeypatch.setattr(checks, "_rand_matrix", counting)
        for name in ("shiftcalc.skew_associativity", "shiftcalc.skew_defining"):
            work = []
            for n in (3, 25):
                calls.clear()
                run_suite(GridSpec(n_points=n, checks=(name,)))
                assert calls and all(x == 4 * n for x in calls), name
                work.append(len(calls))
            assert work[0] == work[1], name

    def test_chain_skips_of_the_default_grid_keep_their_detail(self):
        reports = suite_reports("cor22chain", GRID.sample_points())
        skips = {r.point["index"]: r.detail for r in reports if r.residual is None}
        assert skips == CHAIN_SKIPS
        assert {r.name for r in reports if r.residual is None} == {"cor22chain.step2"}

    def test_guard_trip_in_a_batch_skips_only_its_point(self):
        def scalar(i):
            if i == 1:
                raise checks.SingularPointError(f"at index {i}")
            return float(i) * 1e-12

        @checks._over_points
        def check(tr, params, index):
            return tr.each(scalar, index)

        grid = GridSpec()
        run = checks._runner(
            "probe", check, lambda grid, pt: ({}, (pt.params, pt.index)), {}
        )
        reports = run(grid, grid.sample_points()[:3])
        assert [r.status for r in reports] == ["pass", "skipped-singular", "pass"]
        assert reports[1].detail == "at index 1"
        assert [r.residual for r in reports] == [0.0, None, 2e-12]
        assert [r.point["index"] for r in reports] == [0, 1, 2]

    def test_single_point_call_is_the_batch_of_one(self):
        residuals = check_lemma_p1([PARAMS, PARAMS], [3, 4])
        assert residuals == [check_lemma_p1(PARAMS, seed) for seed in (3, 4)]


def _clear_values():
    special._THETA.clear()
    special._RHO.clear()


class TestRepeatedWork:
    """Counted, not timed: a default pass assembles no grid read of R one
    sample at a time, evaluates each gauge sample once, forms the factors of
    R of w alone once per (s, Params, twisted), reads each side that its
    rows share once, and builds each kernel table once."""

    def test_grid_reads_stack_r_and_each_gauge_sample_is_evaluated_once(self, monkeypatch):
        assembled, r_array, g22_form, held = [], rmatrix._r_array, rmatrix._g22_form, special._held
        g22, thetas = [], []  # (x, Params) of each g22 and each Theta formed
        monkeypatch.setattr(rmatrix, "_g22_form", lambda s, pts, prms: g22.extend(zip(
            s.tolist(), map(prms.__getitem__, pts.tolist()))) or g22_form(s, pts, prms))

        def holding(cache, size, keys, form):
            if cache is special._THETA:
                return held(cache, size, keys, lambda at: thetas.extend(map(
                    keys.__getitem__, at)) or form(at))
            return held(cache, size, keys, form)

        monkeypatch.setattr(special, "_held", holding)
        monkeypatch.setattr(rmatrix, "_r_array", lambda *a: assembled.append(a) or r_array(*a))
        rmatrix._G22.clear()
        _clear_values()
        reports = run_suite(GRID)
        assert assembled == []
        # each distinct (s, Params) of the gauge formed once: 1,246 at seed 0
        assert len(g22) == len(set(g22)) == len(rmatrix._G22) == 1246
        # and each Theta of the pass, the gauges' among them, none twice
        assert len(thetas) == len(set(thetas)) == len(special._THETA) == 1496
        assert len(special._RHO) == 832
        assert summarize(reports) == {"pass": 971, "fail": 0, "skipped": 29}

    def test_memo_bounds_do_not_change_reports(self, monkeypatch):
        # the R-sample and gauge memos and the value caches held to a few
        # dozen keys empty themselves mid-read many times over; the reports
        # keep every byte
        stacked, r_stack = [], rmatrix._r_stack
        monkeypatch.setattr(rmatrix, "_r_stack", lambda zs, prms, tw, s, *a: stacked.append(
            len(s)) or r_stack(zs, prms, tw, s, *a))

        def reports():
            stacked.clear()
            rmatrix._G22.clear()
            _clear_values()
            doc = json.dumps([r.to_dict() for r in run_suite(GridSpec(n_points=3))])
            return doc, sum(stacked)

        unbounded, formed = reports()
        sizes = len(rmatrix._G22), len(special._THETA), len(special._RHO)
        monkeypatch.setattr(rmatrix, "_R_SAMPLES_SIZE", 24)
        monkeypatch.setattr(rmatrix, "_G22_SIZE", 24)
        monkeypatch.setattr(special, "_GRID_SIZE", 24)
        bounded, reformed = reports()
        assert bounded == unbounded
        assert min(sizes) > 4 * 24 and formed > 4 * 24
        # every memo emptied itself: R samples formed again, fewer keys held
        assert reformed > formed
        assert len(rmatrix._G22) < sizes[0]
        assert len(special._THETA) < sizes[1] and len(special._RHO) < sizes[2]

    def test_each_distinct_r_sample_and_grid_rho_is_formed_once(self, monkeypatch):
        read, reads, evaluated, rows = [], [], [], []
        r_read, r_stack, poch2_rows = rmatrix._r_read, rmatrix._r_stack, special._poch2_rows

        def samples(zs, params, twisted, s, pts):
            return [(zs[p], params[p], twisted, x) for p, x in zip(pts.tolist(), s.tolist())]

        def reading(zs, params, twisted, s, pts, log):
            reads.append(len(s))
            read.extend(samples(zs, params, twisted, s, pts))
            return r_read(zs, params, twisted, s, pts, log)

        def stacking(zs, params, twisted, s, pts, log):
            evaluated.extend(samples(zs, params, twisted, s, pts))
            return r_stack(zs, params, twisted, s, pts, log)

        monkeypatch.setattr(rmatrix, "_r_read", reading)
        monkeypatch.setattr(rmatrix, "_r_stack", stacking)
        monkeypatch.setattr(special, "_poch2_rows", lambda xs, *a: rows.append(len(xs)) or
                            poch2_rows(xs, *a))
        _clear_values()
        reports = run_suite(GRID)
        # 3,777 R samples in 134 grid reads, 1,951 of them distinct: Gamma's
        # diagonal pattern leaves unread the R entries that would meet its
        # structurally zero off-diagonal, and a control reads no side that
        # its identity's row reads (test_a_shared_side_is_read_once_per_run)
        assert (len(read), len(reads)) == (3777, 134)
        assert len(evaluated) == len(set(evaluated)) == len(set(read)) == 1951
        # rho's six two-base rows once per distinct grid (z, Params): 832 at seed 0
        assert sum(rows) == 6 * len(special._RHO) == 6 * 832
        assert summarize(reports) == {"pass": 971, "fail": 0, "skipped": 29}

    def test_each_set_of_factors_of_w_alone_is_formed_once(self, monkeypatch):
        formed, rows, inside = [], [], []
        held, poch1_rows, r_stack = rmatrix._held, special._poch1_rows, rmatrix._r_stack

        def holding(cache, size, keys, form):
            if cache is rmatrix._R_W:
                return held(cache, size, keys, lambda at: formed.extend(map(
                    keys.__getitem__, at)) or form(at))
            return held(cache, size, keys, form)

        def counting(x, table):
            if inside:
                rows.append(len(x))
            return poch1_rows(x, table)

        def stacking(*args):
            inside.append(True)
            try:
                return r_stack(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(rmatrix, "_held", holding)
        monkeypatch.setattr(rmatrix, "_r_stack", stacking)
        for module in (rmatrix, special):
            monkeypatch.setattr(module, "_poch1_rows", counting)
        _clear_values()
        reports = run_suite(GRID)
        # w and the factors of w alone once per distinct (s, Params, twisted):
        # 718 at seed 0, for 1,951 distinct R samples
        assert len(formed) == len(set(formed)) == 718
        assert {twisted for _, _, twisted in formed} == {False, True}
        # the one-base rows of grid R reads: those, Theta(w z) and Theta(z/w)
        # of each distinct sample, and the misses of Theta of z alone
        assert sum(rows) == 15896
        assert not rmatrix._R_W and not rmatrix._R_SAMPLES  # dropped with the run
        assert summarize(reports) == {"pass": 971, "fail": 0, "skipped": 29}

    def test_a_shared_side_is_read_once_per_run(self, monkeypatch):
        built, asked, side = collections.Counter(), collections.Counter(), checks._side

        def counting(shared, key, build):
            read = side(shared, key, lambda: built.update([key]) or build())
            return lambda samples: asked.update([key]) or read(samples)

        monkeypatch.setattr(checks, "_side", counting)
        grid = GridSpec(n_points=3)
        run_suite(grid)
        # each side built and read once per run, for every row that reads it
        assert set(built.values()) == {1}
        assert asked == {
            ("dybe.rhs", False): 2, ("dybe.rhs", True): 1, "unitarity.rhs": 3,
            ("crossing.rhs", False): 1, ("crossing.rhs", True): 2,
            ("crossunit.rhs", False): 1, ("crossunit.rhs", True): 2,
            "nforms.rhs": 2, "cor22chain.step7.rhs": 2, "lemmap1.lhs": 2,
            "traceint.lhs": 2,
        }
        # outside a run, every row builds and reads its own
        built.clear()
        points = grid.sample_points()
        for name in ("dybe.negctrl", "dybe.r"):
            _REGISTRY[name](grid, points)
        assert built == {("dybe.rhs", False): 2}

    def test_a_cold_pass_builds_each_kernel_table_once(self):
        tables = (special._powers, special._poch2_table)
        for f in tables + (special._poch1, special._poch2, special._grid_tables):
            f.cache_clear()
        _clear_values()
        rmatrix._R_SAMPLES.clear()
        run_suite(GRID)
        for f in tables:
            info = f.cache_info()
            # more keys than a table per kernel cache used to hold, none evicted
            assert info.misses == info.currsize > 16, (f.__name__, info)


class TestLemmaP1:
    def test_twenty_seeds(self):
        for seed in range(20):
            assert_pass(check_lemma_p1(PARAMS, seed))

    def test_identity_inputs_reduce_to_conjugated_trace(self):
        # A = C = identity: both sides equal tr_1 of the conjugated matrix
        eye = DynMatrix.identity(2)
        rng = np.random.default_rng(3)
        from helpers import rand_matrix

        m1 = rand_matrix(1, rng).embed(2, (1,))
        d1m = weight_shift_matrix(2, 1, -1)
        d1p = weight_shift_matrix(2, 1, +1)
        lhs = (eye @ d1m @ m1 @ d1p @ eye).partial_trace(1)
        core = (d1m @ m1 @ d1p).partial_trace(1)
        assert skew_resid(lhs, core, [S0, S0 + 0.4]) < 1e-12

    def test_swapped_dressing_control(self):
        assert_control_fails(check_lemma_p1(PARAMS, 11, corruption="swap_sl_sc"))


class TestMagic:
    def test_critical_locus_passes(self):
        q = PARAMS.q
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = np.exp(rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4))
            rep = check_magic(PARAMS, S0, Z[0], Z[1], q**-2 * t, q**-2 / t)
            assert_pass(rep)

    def test_canonical_pair(self):
        q = PARAMS.q
        assert_pass(check_magic(PARAMS, S0, Z[0], Z[1], q**-2, q**-2))

    @pytest.mark.parametrize("delta", [0.1, -0.1])
    def test_off_critical_fails(self, delta):
        q = PARAMS.q
        residual = check_magic(
            PARAMS, S0, Z[0], Z[1], q**-2 * np.exp(delta), q**-2
        )
        assert residual > PARAMS.tolerance
        assert residual > CONTROL_THRESHOLD

    def test_detail_reports_product_gap(self):
        for name in ("magic.critical", "magic.negctrl"):
            [rep] = suite_reports(name)
            assert rep.status == "pass"
            assert "alpha*beta" in rep.detail

    def test_offset_is_noted_on_evaluated_and_skipped_reports(self):
        # point 1 of the default grid is a singular point of the magic check
        grid = GridSpec(alpha_beta_offset=0.05)
        reports = suite_reports("magic.critical", grid.sample_points()[:2], grid)
        assert [r.status for r in reports] == ["fail", "skipped-singular"]
        evaluated, skipped = (r.detail.split("; ") for r in reports)
        note = "alpha*beta offset exp(0.05)"
        assert evaluated[0].startswith("|alpha*beta - q^-4| = ")
        assert evaluated[1:] == [note]
        assert skipped[0].startswith("singular point")
        assert skipped[1:] == [note]


class TestAEqualsN:
    def test_all_rows(self):
        assert_pass(check_a_equals_n(PARAMS, Z[0], Z[1]))


class TestNForms:
    def test_passes(self):
        assert_pass(check_n_forms(PARAMS, S0))

    def test_flip_control(self):
        assert_control_fails(check_n_forms(PARAMS, S0, corruption="flip_sc_sign"))


class TestTraceIntegration:
    def test_passes(self):
        assert_pass(integration_trace_check(PARAMS, S0, *Z))

    def test_identity_n_control(self):
        assert_control_fails(
            integration_trace_check(PARAMS, S0, *Z, corruption="identity_n")
        )

    def test_coincident_spectral_points_skip_deterministically(self):
        messages = []
        for _ in range(2):
            with pytest.raises(SingularPointError) as exc:
                integration_trace_check(PARAMS, S0, Z[0], Z[1], Z[0])
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestNonFiniteResiduals:
    """A side that is not finite gives its point a NaN residual, and a NaN
    residual fails, as an identity and as a negative control."""

    def test_folds_keep_a_nan(self):
        per_sample = np.zeros(4)
        per_sample[1] = np.nan
        assert [math.isnan(r) for r in checks._worst(per_sample, 2)] == [True, False]
        nan, one = DynMatrix.constant([[np.nan]]), DynMatrix.constant([[1.0]])
        for lhs, rhs in ((nan, one), (one, nan)):
            [res] = checks._skew_resids(lhs, rhs, [S0, S0 + 0.4])
            assert math.isnan(res)
        for name in ("x", "x.negctrl"):
            assert checks._report(name, {}, res, PARAMS.tolerance).status == "fail"

    def test_scalar_rows_keep_a_nan(self):
        with np.errstate(all="ignore"):  # theta overflows at z = 1e300
            for check in (checks.check_theta_quasiperiodicity, checks.check_theta_inversion,
                          checks.check_theta_truncation, checks.check_n_periodicity):
                assert math.isnan(check(PARAMS, [1.2, 1e300, 0.9])), check.__name__
            assert math.isnan(check_a_equals_n(PARAMS, 1e300, 1.0))

    # the unguarded gauge entry g22 (rmatrix._g22_form) overflows here, and numpy warns
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowed_chain_step_fails(self):
        grid = GridSpec(seed=17, p_fixed=0.8, n_points=5, checks=("cor22chain",))
        step4 = {r.point["index"]: r for r in run_suite(grid) if r.name == "cor22chain.step4"}
        for i in (1, 2):  # residual 0.0 and "pass" while the fold dropped NaN
            assert math.isnan(step4[i].residual)
            assert step4[i].status == "fail"


class TestResidualTruncationScaling:
    def test_doubling_order_does_not_degrade_residuals(self):
        coarse = make_params()
        fine = make_params(truncation_order=2 * coarse.truncation_order)
        pairs = [
            (check_dybe(p, S0, *Z) for p in (coarse, fine)),
            (check_crossing(p, S0, Z[0]) for p in (coarse, fine)),
            (check_unitarity(p, S0, Z[0]) for p in (coarse, fine)),
        ]
        for gen in pairs:
            r_coarse, r_fine = [next(gen) for _ in range(2)]
            assert r_fine <= 10 * max(r_coarse, 1e-16)


# small grids on which the rows of a run share sides, each with guard trips:
# a default one, one at large p and one of complex parameters
SHARING_GRIDS = [
    GridSpec(n_points=3),
    GridSpec(n_points=3, p_fixed=0.8),
    GridSpec(n_points=4, seed=1, q_half_fixed=0.55 + 0.2j, p_fixed=0.6),
]


class TestSuite:
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**32 + 5, 2**70 + 3])
    def test_grid_generators_are_those_of_the_seed_sequence_of_ints(self, seed):
        # entropy words give the state SeedSequence forms from the Python ints
        grid = GridSpec(seed=seed)
        crc = zlib.crc32(b"skassoc")
        for index in (0, 24):
            got = checks._rng_for(grid, replace(POINT0, index=index), "skassoc")
            want = np.random.default_rng(np.random.SeedSequence([seed, index, crc]))
            assert got.bit_generator.state == want.bit_generator.state

    def test_registry_contains_negative_controls(self):
        names = all_check_names()
        assert "dybe.negctrl" in names
        assert "cor22chain" in names

    def test_registry_keys_name_their_reports(self):
        for key, reports in one_point_reports().items():
            assert reports, key
            for rep in reports:
                assert rep.name == key or rep.name.startswith(key + "."), (key, rep.name)

    def test_negctrl_rows_and_only_they_are_controls(self):
        note = f"negative control: expected residual > {CONTROL_THRESHOLD:g}"
        controls = set()
        for key, reports in one_point_reports().items():
            control = key.endswith(".negctrl")
            for rep in reports:
                if rep.status == "skipped-singular":
                    continue
                assert rep.detail.startswith(note) == control, (key, rep.detail)
                if control:
                    ok = rep.residual > CONTROL_THRESHOLD
                    controls.add(key)
                else:
                    ok = rep.residual <= POINT0.params.tolerance
                assert rep.status == ("pass" if ok else "fail"), (key, rep.residual)
        assert controls == {k for k in _REGISTRY if k.endswith(".negctrl")}

    @pytest.mark.parametrize("grid", SHARING_GRIDS)
    def test_a_shared_side_gives_the_reports_of_a_side_read_in_place(self, grid, monkeypatch):
        # its trips are noted where the row's own read would note them
        shared = [r.to_dict() for r in run_suite(grid)]
        monkeypatch.setattr(checks, "_side", lambda shared, key, build: build())
        assert [r.to_dict() for r in run_suite(grid)] == shared
        assert any(r["status"] == "skipped-singular" for r in shared)  # trips are noted

    @pytest.mark.parametrize("grid", SHARING_GRIDS)
    def test_a_row_run_alone_gives_its_reports_of_the_full_run(self, grid):
        # a control without its identity reads the sides it would share
        # itself; a side keyed too loosely would hand a row another's read
        full = run_suite(grid)

        def row(report):
            return report.name if report.name in _REGISTRY else report.name.rsplit(".", 1)[0]

        for name in all_check_names():
            rows = set(resolve_check_names((name,)))
            alone = run_suite(replace(grid, checks=(name,)))
            assert [r.to_dict() for r in alone] == [r.to_dict() for r in full if row(r) in rows]

    def test_resolve_prefixes(self):
        assert resolve_check_names(["magic"]) == ["magic.critical", "magic.negctrl"]
        assert resolve_check_names(["all"]) == all_check_names()
        with pytest.raises(ValueError):
            resolve_check_names(["nonsense"])

    def test_empty_selection_gives_empty_report(self):
        grid = GridSpec(n_points=1, checks=())
        assert run_suite(grid) == []
        assert suite_passes([])

    def test_small_suite_passes_and_is_deterministic(self):
        grid = GridSpec(seed=3, n_points=2)
        r1 = run_suite(grid)
        r2 = run_suite(grid)
        assert suite_passes(r1)
        s1 = json.dumps([r.to_dict() for r in r1], sort_keys=True)
        s2 = json.dumps([r.to_dict() for r in r2], sort_keys=True)
        assert s1 == s2

    def test_reports_ordered_by_name_then_index(self):
        grid = GridSpec(seed=3, n_points=3, checks=("theta", "nforms"))
        reports = run_suite(grid)
        # scheduled names run in sorted order; per name, points run in order
        scheduled = sorted(resolve_check_names(("theta", "nforms")))
        expected = [(n, i) for n in scheduled for i in range(3)]
        assert [(r.name, r.point["index"]) for r in reports] == expected

    def test_summarize_and_coverage_rule(self):
        from dynell.checks import CheckReport

        mk = lambda st: CheckReport("x", {}, 0.0 if st != "skipped-singular" else None, st)
        reports = [mk("pass")] * 9 + [mk("skipped-singular")]
        assert suite_passes(reports)
        reports = [mk("pass")] * 8 + [mk("skipped-singular")] * 2
        assert not suite_passes(reports)
        reports = [mk("pass")] * 9 + [mk("fail")]
        assert not suite_passes(reports)
        assert summarize(reports) == {"pass": 9, "fail": 1, "skipped": 0}

    def test_fixed_params_grid(self):
        grid = GridSpec(
            seed=1, n_points=2, checks=("unitarity.r",),
            q_half_fixed=0.6855654600401044 + 0j, p_fixed=0.31 + 0j,
        )
        reports = run_suite(grid)
        assert all(r.point["q"] == pytest.approx(0.47) for r in reports)
        assert suite_passes(reports)
