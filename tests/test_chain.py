import json
import math
import runpy
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalflow import (
    BlowupError,
    BrownianPath,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    FormalMapping,
    MultilinearMap,
    ShapeError,
    TimeGrid,
    evaluate,
    evolution_check,
    forcing_terms,
    identity,
    one_step_map,
    sample_path,
    sample_paths,
    simulate_direct,
    solve_chain,
    truncation_scaling,
)
from formalflow.algebra import _contract
from formalflow import chain
from formalflow.chain import _euler_states, _noise, _path_states
from formalflow.cli import main
from conftest import mapping_equal, random_coefficients, random_mapping, zero_diffusion


class TestTimeGrid:
    def test_dt_and_knots(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.dt == 0.25
        assert np.allclose(grid.knots(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_knot_index(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.knot_index(0.5) == 2
        with pytest.raises(ShapeError):
            grid.knot_index(0.3)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ShapeError):
            TimeGrid(1.0, 0.0, 4)
        with pytest.raises(ShapeError):
            TimeGrid(0.0, 1.0, 0)
        # dt is computed from the interval, not given
        with pytest.raises(TypeError):
            TimeGrid(0.0, 1.0, 4, dt=0.3)

    def test_sub_grids_take_the_parent_step(self):
        # rebuilt from their end points, a third of these sub-grids got a step an ulp off
        for n in range(3, 200):
            grid = TimeGrid(0.0, 1.0, n)
            path = BrownianPath.from_increments(grid, np.zeros((n, 1)))
            for i in range(1, n):
                assert path.restrict(0, i).grid.dt == grid.dt
                assert path.restrict(i, n).grid.dt == grid.dt
            for factor in range(2, n + 1):
                if n % factor == 0:
                    assert path.coarsen(factor).grid.dt == factor * grid.dt

    @given(
        t_start=st.floats(-10.0, 10.0), span=st.floats(1e-3, 100.0), n=st.integers(1, 64), data=st.data()
    )
    @settings(max_examples=200, deadline=None)
    def test_sub_grids_keep_the_parent_knots_bit_for_bit(self, t_start, span, n, data):
        # t_start + i*dt of a sub-grid can be an ulp off its parent's knot
        grid = TimeGrid(t_start, t_start + span, n)
        knots = grid.knots()
        assert np.array([grid.knot(i) for i in range(n + 1)]).tobytes() == knots.tobytes()

        def divisor(m):
            return data.draw(st.sampled_from([f for f in range(1, m + 1) if m % f == 0]))

        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i + 1, n))
        path = BrownianPath.from_increments(grid, np.zeros((n, 1)))
        sub, f = path.restrict(i, j), divisor(n)
        coarse = sample_paths(grid, 1, 0, 2).coarsen(f) if data.draw(st.booleans()) else path.coarsen(f)
        g, k = divisor(j - i), data.draw(st.integers(0, n // f - 1))
        cases = [(sub, knots[i : j + 1]), (coarse, knots[::f]), (sub.coarsen(g), knots[i : j + 1 : g])]
        cases.append((coarse.restrict(k, n // f), knots[::f][k:]))
        for p, want in cases:
            assert p.grid.knots().tobytes() == want.tobytes()
            assert np.array([p.grid.knot(s) for s in range(p.grid.n_steps + 1)]).tobytes() == want.tobytes()


class TestSamplePath:
    def test_bit_identical_regeneration(self):
        grid = TimeGrid(0.0, 1.0, 32)
        p1 = sample_path(grid, 2, seed=7, path_index=3)
        p2 = sample_path(grid, 2, seed=7, path_index=3)
        assert np.array_equal(p1.increments, p2.increments)

    def test_distinct_path_indices_differ(self):
        grid = TimeGrid(0.0, 1.0, 32)
        p1 = sample_path(grid, 2, seed=7, path_index=0)
        p2 = sample_path(grid, 2, seed=7, path_index=1)
        assert not np.array_equal(p1.increments, p2.increments)

    def test_prefix_restriction_property(self):
        # same step size, longer horizon: leading increments are identical
        fine = sample_path(TimeGrid(0.0, 2.0, 64), 3, seed=11)
        short = sample_path(TimeGrid(0.0, 1.0, 32), 3, seed=11)
        assert np.array_equal(fine.increments[:, :32], short.increments)

    def test_increment_moments(self):
        # pool 10^5 increments: mean within the CLT band, variance within 5%
        grid = TimeGrid(0.0, 1.0, 100)
        dt = grid.dt
        pool = np.concatenate(
            [sample_path(grid, 1, seed=5, path_index=p).increments for p in range(1000)]
        ).ravel()
        assert pool.size == 100_000
        assert abs(pool.mean()) < 4.0 * math.sqrt(dt / pool.size)
        assert abs(pool.var() - dt) < 0.05 * dt

    def test_key_words_outside_64_bits_are_rejected(self):
        # -1 and 2**64 used to wrap onto the paths of 2**64 - 1 and 0
        grid = TimeGrid(0.0, 1.0, 4)
        for key in ("seed", "path_index"):
            for ok in (0, 2**64 - 1):
                sample_path(grid, 1, **{"seed": 0, key: ok})
            for bad in (-1, 2**64):
                with pytest.raises(ShapeError, match=f"{key} must be in"):
                    sample_path(grid, 1, **{"seed": 0, key: bad})

    @pytest.mark.parametrize(
        "name, draw",
        [
            ("seed", lambda v: sample_path(TimeGrid(0.0, 1.0, 4), 1, v)),
            ("path_index", lambda v: sample_path(TimeGrid(0.0, 1.0, 4), 1, 3, v)),
            ("n_paths", lambda v: sample_paths(TimeGrid(0.0, 1.0, 4), 1, 3, v)),
            ("n_steps", lambda v: sample_path(TimeGrid(0.0, 1.0, v), 1, 3)),
            ("noise_dim", lambda v: sample_path(TimeGrid(0.0, 1.0, 4), v, 3)),
            ("seed", lambda v: BrownianPath.from_increments(TimeGrid(0.0, 1.0, 4), np.zeros(4), v)),
            ("factor", lambda v: sample_path(TimeGrid(0.0, 1.0, 4), 1, 3).coarsen(v)),
        ],
        ids=["seed", "path_index", "n_paths", "n_steps", "noise_dim", "recorded seed", "coarsen factor"],
    )
    def test_non_integer_keys_and_sizes_are_rejected(self, name, draw):
        # seed 1.5 drew seed 1's path, path_index 0.7 index 0, n_steps 4.5
        # made a grid of dt 1/4.5, and a path kept seed 1.5 as its provenance
        for bad in (1.5, 2.0, True, np.True_, "2"):
            with pytest.raises(ShapeError, match=f"^{name} must be an integer, got {bad!r}$"):
                draw(bad)
        draw(np.int64(2))  # numpy integers stay accepted

    def test_cumulative_starts_at_zero(self):
        path = sample_path(TimeGrid(0.0, 1.0, 8), 2, seed=1)
        w = path.cumulative()
        assert w.shape == (1, 9, 2)
        assert np.array_equal(w[:, 0], np.zeros((1, 2)))
        assert np.allclose(w[:, -1], path.increments.sum(axis=1))

    def test_coarsen_sums_increments(self):
        path = sample_path(TimeGrid(0.0, 1.0, 8), 1, seed=2)
        coarse = path.coarsen(4)
        assert coarse.grid.n_steps == 2
        assert coarse.increments.shape == (1, 2, 1)
        assert np.allclose(coarse.increments[:, 0], path.increments[:, :4].sum(axis=1))


class TestOneStepMap:
    def test_zero_step_is_identity(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        psi = one_step_map(co.drift_at(0.0), co.diffusion_at(0.0), 0.0, np.zeros(2))
        assert mapping_equal(psi, identity(3, 2))

    def test_scalar_linear_drift(self):
        co = CoefficientFamily.constant_scalar([2.0])
        psi = one_step_map(co.drift_at(0.0), co.diffusion_at(0.0), 0.25, np.zeros(1))
        assert psi.component(1).entries.ravel()[0] == 1.5

    def test_quadratic_update_matches_explicit_euler(self, rng):
        # compose(Psi, S) component 2 must equal S2 + dt*(alpha*S2 + gamma*S1^2)
        from formalflow import compose

        alpha, gamma, dt = 1.3, 0.7, 0.01
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        s = random_mapping(rng, 2, 1, 1)
        psi = one_step_map(co.drift_at(0.0), co.diffusion_at(0.0), dt, np.zeros(1))
        s1, s2 = s.scalar_coeffs()
        expected = s2 + dt * (alpha * s2 + gamma * s1**2)
        got = compose(psi, s).scalar_coeffs()[1]
        assert got == pytest.approx(expected, rel=1e-14)


class TestOnGrid:
    def test_a_constant_family_calls_no_provider_per_knot(self, rng):
        """`constant` checks its one pair once, so `on_grid` calls no
        provider and gives the bits of the per-knot pass; families of
        other providers ("new object", "switch") still call both at
        every knot."""
        co = random_coefficients(rng, 3, 2, 2)
        a, b = co.drift_at(0.0), co.diffusion_at(0.0)
        a2 = a._of(3, (a.components[0], MultilinearMap.zero(2, 2, 2), a.components[2]))
        calls = []

        def counted(provider):
            def call(t):
                calls.append(t)
                return provider(t)

            return call

        families = {
            "constant": co,
            "per knot": CoefficientFamily(3, 2, 2, lambda t: a, lambda t: b),
            "new object": CoefficientFamily(3, 2, 2, lambda t: a._of(3, a.components), lambda t: b),
            "switch": CoefficientFamily(3, 2, 2, lambda t: a if t < 0.5 else a2, lambda t: b),
        }
        grid = TimeGrid(0.0, 1.0, 16)
        steps = {}
        for name, family in families.items():
            object.__setattr__(family, "drift", counted(family.drift))
            object.__setattr__(family, "diffusion", counted(family.diffusion))
            calls.clear()
            steps[name] = family.on_grid(grid)
            assert len(calls) == (0 if name == "constant" else 2 * grid.n_steps)
        got, want = steps["constant"], steps["per knot"]

        def same_bits(x, y):
            return x.shape == y.shape and x.tobytes() == y.tobytes()

        assert len(got.values) == len(want.values) == 1
        assert got.values[0][0] is want.values[0][0] is a and got.values[0][1] is want.values[0][1] is b
        assert got.index.dtype == want.index.dtype and same_bits(got.index, want.index)
        for x, y in zip(got.a + got.b, want.a + want.b, strict=True):
            assert (x is None and y is None) or same_bits(x, y)
        assert len(steps["new object"].values) == 16 and len(steps["switch"].values) == 2


class TestSolveChain:
    def test_zero_coefficients_stay_identity(self):
        co = CoefficientFamily.constant_scalar([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        path = sample_path(TimeGrid(0.0, 1.0, 16), 1, seed=1)
        sol = solve_chain(co, identity(3, 1), path)
        for i in range(17):
            assert mapping_equal(sol.state(i), identity(3, 1))

    def test_gbm_state_is_ordered_factor_product(self):
        alpha, beta = 1.0, 0.5
        co = CoefficientFamily.constant_scalar([alpha], [beta])
        grid = TimeGrid(0.0, 1.0, 64)
        path = sample_path(grid, 1, seed=4)
        sol = solve_chain(co, identity(1, 1), path)
        prod = 1.0
        for i in range(grid.n_steps):
            prod = (1.0 + alpha * grid.dt + beta * path.increments[0, i, 0]) * prod
        assert sol.state(-1).component(1).entries.ravel()[0] == prod

    def test_deterministic_quadratic_s2_closed_form(self):
        from formalflow import quadratic_chain_s2_closed_form

        alpha, gamma = 1.0, 0.5
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        grid = TimeGrid(0.0, 1.0, 512)
        path = BrownianPath.from_increments(grid, np.zeros((512, 1)))
        sol = solve_chain(co, identity(2, 1), path)
        got = sol.state(-1).component(2).entries.ravel()[0]
        assert got == pytest.approx(quadratic_chain_s2_closed_form(alpha, gamma, 1.0), rel=5e-3)

    def test_bitwise_determinism(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        path = sample_path(TimeGrid(0.0, 1.0, 32), 2, seed=9)
        s1 = solve_chain(co, identity(3, 2), path)
        s2 = solve_chain(co, identity(3, 2), path)
        assert all(map(np.array_equal, s1.entries, s2.entries))

    def test_triangularity_bitwise(self, rng):
        # higher-degree coefficients must not touch lower components
        order, dy, m = 4, 2, 2
        base = random_coefficients(rng, order, dy, m)
        grid = TimeGrid(0.0, 1.0, 16)
        path = sample_path(grid, m, seed=3)
        ref = solve_chain(base, identity(order, dy), path)
        for n in range(1, order):
            a_perturbed = tuple(
                c if c.degree <= n else MultilinearMap(c.degree, dy, dy, 10.0 + c.entries)
                for c in base.drift(0.0).components
            )
            b_perturbed = tuple(
                c
                if c.degree <= n
                else DiffusionMap(c.degree, dy, dy, m, 10.0 + c.entries)
                for c in base.diffusion(0.0).components
            )
            pert = CoefficientFamily.constant(
                FormalMapping(order, dy, dy, a_perturbed),
                DiffusionFamily(order, dy, m, b_perturbed),
            )
            got = solve_chain(pert, identity(order, dy), path)
            for k in range(1, n + 1):
                assert np.array_equal(got.entries[k - 1], ref.entries[k - 1])

    def test_adaptedness_bitwise(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        grid = TimeGrid(0.0, 1.0, 16)
        path = sample_path(grid, 2, seed=8)
        ref = solve_chain(co, identity(3, 2), path)
        cut = 10
        tampered_increments = path.increments.copy()
        tampered_increments[:, cut:] += 3.0
        tampered = BrownianPath.from_increments(grid, tampered_increments, seed=8)
        got = solve_chain(co, identity(3, 2), tampered)
        for e_got, e_ref in zip(got.entries, ref.entries):
            assert np.array_equal(e_got[: cut + 1], e_ref[: cut + 1])

    def test_zero_noise_ignores_increments_bitwise(self, rng):
        a = random_mapping(rng, 3, 2, 2)
        co = CoefficientFamily.constant(a, zero_diffusion(3, 2, 2))
        grid = TimeGrid(0.0, 1.0, 16)
        s1 = solve_chain(co, identity(3, 2), sample_path(grid, 2, seed=1))
        s2 = solve_chain(co, identity(3, 2), sample_path(grid, 2, seed=999))
        assert all(map(np.array_equal, s1.entries, s2.entries))

    def test_blowup_reports_step_and_component(self):
        co = CoefficientFamily.constant_scalar([1e160])
        grid = TimeGrid(0.0, 1.0, 4)
        path = BrownianPath.from_increments(grid, np.zeros((4, 1)))
        with pytest.raises(BlowupError) as exc:
            solve_chain(co, identity(1, 1), path)
        assert exc.value.component == 1
        assert 0 <= exc.value.step < 4

    def test_states_stream_up_to_the_blowup(self):
        # the state after step i is (1 + 3e15)^(i + 1): finite up to step 18
        co = CoefficientFamily.constant_scalar([1.2e17])
        grid = TimeGrid(0.0, 1.0, 40)
        path = BrownianPath.from_increments(grid, np.zeros((40, 1)))
        with pytest.raises(BlowupError) as exc:
            solve_chain(co, identity(1, 1), path)
        assert (exc.value.step, exc.value.component) == (19, 1)
        sol = solve_chain(co, identity(1, 1), path.restrict(0, 19))
        assert len(sol.entries[0]) == 20
        assert mapping_equal(sol.state(0), identity(1, 1))
        assert math.isclose(sol.entries[0][-1, 0, 0], (1 + 1.2e17 / 40) ** 19, rel_tol=1e-13)

    def test_solution_holds_one_read_only_array_per_degree(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        path = sample_path(TimeGrid(0.0, 1.0, 16), 2, seed=3)
        sol = solve_chain(co, identity(3, 2), path)
        # each state is valid until the next block: copy it to keep it
        streamed = [[e.copy() for e in state] for state in _path_states(co, identity(3, 2), path)]
        assert len(streamed) == 17
        for k, e in enumerate(sol.entries, start=1):
            assert e.shape == (17, 2) + (2,) * k and not e.flags.writeable
            for i, s in enumerate(streamed):
                assert e[i].tobytes() == s[k - 1][0].tobytes()
        assert all(np.array_equal(c.entries, e[0]) for c, e in zip(sol.state(-1).components, streamed[-1]))

    @pytest.mark.parametrize(
        "drift", [[1e160], [1.2e17], [0.0, 1.5e308], [5.0, 1e300, 1e300], [1e160, 1e160, 1e160]]
    )
    def test_blowup_is_where_chain_states_stops(self, tmp_path, capsys, drift):
        # solve_chain names the first non-finite step and its lowest
        # non-finite degree, as `formalflow solve` does while it streams states
        co = CoefficientFamily.constant_scalar(drift)
        path = BrownianPath.from_increments(TimeGrid(0.0, 4.0, 40), np.zeros((40, 1)))
        with pytest.raises(BlowupError) as solved:
            solve_chain(co, identity(len(drift), 1), path)
        terms = [{"degree": k, "dy": 1, "dz": 1, "entries": [c]} for k, c in enumerate(drift, start=1)]
        config = tmp_path / "c.json"
        cfg = {"dy": 1, "order": len(drift), "t_end": 4.0, "n_steps": 40, "drift": terms}
        config.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        where = f"step {solved.value.step}, component {solved.value.component}"
        assert capsys.readouterr().err == f"error: numerical blowup at {where}\n"

    @pytest.mark.parametrize(
        "drift, step, component",
        [
            ([1e160], 1, 1),
            ([1.2e17], 19, 1),
            ([0.0, 1.5e308], 11, 2),
            ([5.0, 1e300, 1e300], 1, 3),
            ([1e160, 1e160, 1e160], 1, 1),
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 40])
    def test_a_blowup_inside_a_block_is_where_the_step_loop_has_it(
        self, tmp_path, capsys, monkeypatch, drift, step, component, block
    ):
        """The blocks' later steps overflow too, and the first block's first
        steps have zero components: neither moves the first non-finite step
        or its lowest non-finite degree from those of a loop that runs one
        step at a time (the step and component here), in blocks of 1 to 40
        steps."""
        built = []

        class Steps(chain._Steps):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        order = len(drift)
        # every Psi_k is nonzero, and a step keeps every degree
        floats = chain._Steps((True,) * order, (True,) * order, 1, 1, 40, 0).floats
        monkeypatch.setattr(chain, "_Steps", Steps)
        monkeypatch.setattr(chain, "_EULER_FLOATS", block * floats)
        co = CoefficientFamily.constant_scalar(drift)
        path = BrownianPath.from_increments(TimeGrid(0.0, 4.0, 40), np.zeros((40, 1)))
        with pytest.raises(BlowupError) as solved:
            solve_chain(co, identity(order, 1), path)
        assert (solved.value.step, solved.value.component) == (step, component)
        terms = [{"degree": k, "dy": 1, "dz": 1, "entries": [c]} for k, c in enumerate(drift, start=1)]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"dy": 1, "order": order, "t_end": 4.0, "n_steps": 40, "drift": terms}))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: numerical blowup at step {step}, component {component}\n"
        assert not out.exists() or not any(out.iterdir())
        # each run built one schedule; in blocks of 2 or more, the blowup step is not a block's first
        assert [s.steps for s in built] == [block] * 2 and (block == 1 or step % block)

    def test_initial_condition_shape_checked(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        path = sample_path(TimeGrid(0.0, 1.0, 4), 2, seed=0)
        with pytest.raises(ShapeError):
            solve_chain(co, identity(2, 2), path)


class TestBufferDiscipline:
    """The Euler loop reuses buffers within one generator: a block it hands
    out is valid until the next is asked for, and the last after the loop.
    Another generator or thread never sees them change."""

    def instance(self, rng):
        # from the identity, the first step has a zero pattern of its own;
        # the budget makes blocks of 5 steps for 3 paths (the last of 4) and
        # of 15 for one path (the last of 9)
        return random_coefficients(rng, 4, 2, 2), TimeGrid(0.0, 1.0, 24)

    @pytest.fixture(autouse=True)
    def blocks_of_five(self, monkeypatch):
        # 1 152 floats make the buffers of a step of 3 paths at order 4, d 2
        monkeypatch.setattr(chain, "_EULER_FLOATS", 5 * 1152)

    def test_yielded_states_stay_unchanged(self, rng):
        """A block stays as it was yielded until its generator is asked for
        the next, however far another one runs meanwhile; the last stays
        after the loop.  Copied as they come, the blocks are the per-path
        solutions."""
        co, grid = self.instance(rng)
        rows = sample_paths(grid, 2, 5, 3)
        # read-only entries: the loop never writes its start
        start = [c.entries[None] for c in identity(4, 2).components]
        other = _euler_states(co, rows, start)
        copies = []
        for block in _euler_states(co, rows, start):
            copies.append([e.copy() for e in block])
            next(other, None)
            assert all(map(np.array_equal, block, copies[-1]))
        assert [len(c[0]) for c in copies] == [5] * 4 + [4]
        # the last block is still the loop's last state after the loop
        assert all(map(np.array_equal, block, copies[-1]))
        states = [np.concatenate(col) for col in zip(*copies)]
        for p in range(3):
            sol = solve_chain(co, identity(4, 2), sample_path(grid, 2, seed=5, path_index=p))
            assert all(np.array_equal(e[1:], s[:, p]) for e, s in zip(sol.entries, states))

    def test_interleaved_generators_equal_serial_runs(self, rng):
        co, grid = self.instance(rng)
        paths = [sample_path(grid, 2, seed=s) for s in (1, 2)]
        serial = [[[e.copy() for e in s] for s in _path_states(co, identity(4, 2), p)] for p in paths]
        # each pair of states is compared before either generator moves on
        compared = 0
        for (x, y), sx, sy in zip(zip(*(_path_states(co, identity(4, 2), p) for p in paths)), *serial):
            assert all(map(np.array_equal, x + y, sx + sy))
            compared += 1
        assert compared == grid.n_steps + 1

    def test_concurrent_threads_equal_serial_runs(self, rng):
        co, grid = self.instance(rng)
        paths = [sample_path(grid, 2, seed=s) for s in range(4)]
        serial = [solve_chain(co, identity(4, 2), p).entries for p in paths]
        got = [None] * len(paths)

        def solve(i):
            got[i] = solve_chain(co, identity(4, 2), paths[i]).entries

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(paths))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for entries, expected in zip(got, serial):
            assert len(entries[0]) == len(expected[0]) == grid.n_steps + 1
            assert all(map(np.array_equal, entries, expected))


class TestRunnerReuse:
    """The Euler loop builds one `_Steps` schedule per call, however many
    steps and zero patterns its states pass through and whatever objects
    the coefficient providers return: Psi's pattern is that of the
    coefficients over the whole grid, and the states' the one a step keeps."""

    @pytest.mark.parametrize(
        "provider, patterns", [("constant", 2), ("new object", 2), ("switch", 2), ("linear", 1)]
    )
    def test_one_schedule_serves_every_zero_pattern(self, rng, monkeypatch, provider, patterns):
        built = []

        class Steps(chain._Steps):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(chain, "_Steps", Steps)
        # 288 floats make the buffers of a step of 2 paths at order 3, d 2:
        # blocks of 7 steps, and of all 24 for the sparse linear chain
        monkeypatch.setattr(chain, "_EULER_FLOATS", 7 * 288)
        order, d, m = (4 if provider == "linear" else 3), 2, 2
        co = random_coefficients(rng, order, d, m)
        a, b = co.drift_at(0.0), co.diffusion_at(0.0)
        if provider == "new object":
            co = CoefficientFamily(
                order, d, m, lambda t: a._of(order, a.components), lambda t: b._of(order, b.components)
            )
        elif provider == "switch":
            # from t = 0.5 on, a_2 and b_3 are zero, but not before: Psi keeps
            # its pattern over the grid, and the schedule stays that of "constant"
            a2 = a._of(order, (a.components[0], MultilinearMap.zero(2, d, d), a.components[2]))
            b2 = b._of(order, b.components[:2] + (MultilinearMap.zero(3, d, d, (m,)),))
            co = CoefficientFamily(order, d, m, lambda t: a if t < 0.5 else a2, lambda t: b if t < 0.5 else b2)
        elif provider == "linear":
            zero_a = tuple(MultilinearMap.zero(k, d, d) for k in range(2, order + 1))
            zero_b = zero_diffusion(order, d, m).components[1:]
            co = CoefficientFamily.constant(
                a._of(order, a.components[:1] + zero_a), b._of(order, b.components[:1] + zero_b)
            )
        grid = TimeGrid(0.0, 1.0, 24)
        rows = sample_paths(grid, m, 1, 2)

        def run(co):
            # the identity's one row is broadcast to both paths' rows
            start = [c.entries[None] for c in identity(co.order, d).components]
            blocks = [[e.copy() for e in block] for block in _euler_states(co, rows, start)]
            states = [start] + [state for block in blocks for state in zip(*block)]
            assert len(states) == grid.n_steps + 1
            # the zero patterns of the states that the steps read
            return {tuple(bool(e.any()) for e in state) for state in states[:-1]}

        assert len(run(co)) == patterns
        assert len(built) == 1
        if provider != "linear":
            assert built[0].steps == 7 and built[0].nonzero == (True,) * order
        else:
            # a sparse chain stays sparse: the order-4 schedule makes the one
            # product per step of the schedule of the chain of degree 1 alone
            assert built[0].steps == 24 and built[0].nonzero == (True, False, False, False)
            run(CoefficientFamily.constant(a._of(1, a.components[:1]), b._of(1, b.components[:1])))
            ops = [[(f, x.shape, np.shape(y), z.shape) for f, x, y, z in r.compiled[r.steps]] for r in built]
            assert ops[:1] == ops[1:] and [f for f, *_ in ops[0]] == [np.matmul] * 24 + [np.add]


class TestSimulateDirect:
    def test_zero_initial_condition_stays_zero(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        path = sample_path(TimeGrid(0.0, 1.0, 16), 2, seed=6)
        traj = simulate_direct(co, np.zeros((1, 2)), path)
        assert np.array_equal(traj, np.zeros_like(traj))

    def test_degree_one_matches_chain_flow(self, rng):
        # with only linear coefficients both recursions coincide
        a = FormalMapping(1, 2, 2, (MultilinearMap(1, 2, 2, 0.3 * rng.standard_normal((2, 2))),))
        b = DiffusionFamily(
            1, 2, 2, (DiffusionMap(1, 2, 2, 2, 0.3 * rng.standard_normal((2, 2, 2))),)
        )
        co = CoefficientFamily.constant(a, b)
        path = sample_path(TimeGrid(0.0, 1.0, 32), 2, seed=5)
        sol = solve_chain(co, identity(1, 2), path)
        y0 = rng.standard_normal(2)
        traj = simulate_direct(co, y0[None], path)[:, 0]
        for i in range(33):
            assert np.allclose(traj[i], evaluate(sol.state(i), y0), rtol=1e-12, atol=1e-14)

    def test_bernoulli_convergence_order_one(self):
        from formalflow import bernoulli_closed_form

        alpha, gamma, y0 = 1.0, 0.5, 0.1
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        target = bernoulli_closed_form(alpha, gamma, 1.0, y0)
        errs = []
        for n_steps in (64, 128, 256):
            grid = TimeGrid(0.0, 1.0, n_steps)
            path = BrownianPath.from_increments(grid, np.zeros((n_steps, 1)))
            got = simulate_direct(co, np.array([[y0]]), path)[-1, 0, 0]
            errs.append(abs(got - target))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_value_is_rejected(self, bad):
        # this raised BlowupError("numerical blowup at step -1")
        co = CoefficientFamily.constant_scalar([1.0])
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ShapeError, match="^y0 has non-finite entries$"):
            simulate_direct(co, np.array([[bad]]), sample_path(grid, 1, seed=0))
        with pytest.raises(ShapeError, match="^y0 has non-finite entries$"):
            simulate_direct(co, np.array([[0.1], [bad]]), sample_paths(grid, 1, 0, 2))

    def test_blowup_reports_step(self):
        # simulate_direct leaves the blown-up path non-finite; its one
        # single-path caller, truncation_scaling, names the step
        co = CoefficientFamily.constant_scalar([0.0, 1e200])
        grid = TimeGrid(0.0, 1.0, 4)
        path = BrownianPath.from_increments(grid, np.zeros((4, 1)))
        traj = simulate_direct(co, np.array([[1.0]]), path)
        assert traj.shape == (5, 1, 1)
        knot = int(np.flatnonzero(~np.isfinite(traj[:, 0, 0]))[0])
        assert np.isfinite(traj[:knot]).all() and not np.isfinite(traj[knot:]).any()
        with pytest.raises(BlowupError) as exc:
            truncation_scaling(co, grid, np.array([1.0]), 1)
        assert exc.value.step == knot - 1
        assert 0 <= exc.value.step < 4

    def test_noise_dim_must_match_the_coefficients(self):
        # this was numpy's "matmul: Input operand 1 has a mismatch in its core dimension"
        co = CoefficientFamily.constant_scalar([0.5, 0.3], [0.2, 0.0])
        paths = sample_paths(TimeGrid(0.0, 1.0, 4), 2, 0, 3)
        with pytest.raises(ShapeError, match="^path noise_dim 2 != coefficients 1$"):
            simulate_direct(co, np.full((3, 1), 0.1), paths)

    def test_y0_needs_one_row_per_path(self):
        co = CoefficientFamily.constant_scalar([1.0])
        path = sample_path(TimeGrid(0.0, 1.0, 4), 1, seed=0)
        for y0 in (np.array([0.1]), np.full((2, 1), 0.1)):
            with pytest.raises(ShapeError, match=r"expected \(1, 1\)"):
                simulate_direct(co, y0, path)

    @given(
        order=st.integers(1, 4),
        d=st.integers(1, 3),
        m=st.integers(1, 3),
        paths=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_noise_slot_fixed_last_moves_by_round_off(self, order, d, m, paths, seed):
        """The noise term is the noise matrix b(y) times dw, so the noise slot
        is fixed last; the reference step below fixed it first.  Every term
        is a product of order + 1 contractions of length at most d (m <= d
        here), so either way rounds within about (order + 1)*d*eps of the
        same step on absolute values.  The bound is c = 2 times that; over
        5000 random cases like these (m <= d) the worst move was 0.49 of it,
        and 12% of the entries moved at all."""
        m = min(m, d)
        rng = np.random.default_rng(seed)
        co = random_coefficients(rng, order, d, m, magnitude=0.2)
        grid = TimeGrid(0.0, 0.5, 6)
        dw = np.sqrt(grid.dt) * rng.standard_normal((paths, grid.n_steps, m))
        traj = simulate_direct(co, 0.3 * rng.standard_normal((paths, d)), BrownianPath(grid, dw, seed))
        a, b = co.drift(0.0), co.diffusion(0.0)
        abs_a, abs_b = absolute(a), absolute(b)
        eps = np.finfo(float).eps
        for i in range(grid.n_steps):
            want = ref_direct_step(a, b, grid.dt, traj[i], dw[:, i])
            scale = ref_direct_step(abs_a, abs_b, grid.dt, np.abs(traj[i]), np.abs(dw[:, i]))
            assert np.all(np.abs(traj[i + 1] - want) <= 2 * (order + 1) * d * eps * scale)


def absolute(mapping):
    """mapping with each entry replaced by its absolute value."""
    comps = [MultilinearMap(c.degree, c.dy, c.dz, np.abs(c.entries), c.tail) for c in mapping.components]
    return FormalMapping._of(mapping.order, comps)


def ref_direct_step(a, b, dt, y, dw):
    """One step of simulate_direct as it was written before its noise term
    came from evaluate: each b_k with its noise slot fixed to dw first, then
    its k state slots plugged with y.  y is (P, dy), dw is (P, m)."""
    dy = dt * evaluate(a, y)
    for bk in b.components:
        if bk.is_zero:
            continue
        t = _noise(bk.slots_first[None], dw)
        for _ in range(bk.degree):
            t = _contract(t, y[..., None])
        dy = dy + t.reshape(dy.shape)
    return y + dy


class TestEvolutionCheck:
    def test_demo_script(self, monkeypatch, capsys):
        script = Path(__file__).resolve().parent.parent / "scripts" / "evolution_demo.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--steps", "32"])
        with pytest.raises(SystemExit) as info:
            runpy.run_path(str(script), run_name="__main__")
        assert info.value.code == 0
        assert float(capsys.readouterr().out.rsplit("max = ", 1)[1]) <= 1e-10

    def test_zero_coefficients_exact(self):
        co = CoefficientFamily.constant_scalar([0.0, 0.0], [0.0, 0.0])
        grid = TimeGrid(0.0, 1.0, 8)
        path = sample_path(grid, 1, seed=0)
        rep = evolution_check(co, path, 0.5)
        assert rep.max_discrepancy == 0.0

    def test_degree_one_scalar(self):
        co = CoefficientFamily.constant_scalar([1.0], [0.5])
        grid = TimeGrid(0.0, 1.0, 64)
        path = sample_path(grid, 1, seed=2)
        rep = evolution_check(co, path, 0.5)
        assert rep.max_discrepancy <= 1e-12

    def test_random_instance(self, rng):
        co = random_coefficients(rng, 4, 3, 2)
        grid = TimeGrid(0.0, 1.0, 128)
        path = sample_path(grid, 2, seed=13)
        rep = evolution_check(co, path, 0.25)
        assert rep.max_discrepancy <= 1e-10

    def test_coefficients_that_switch_at_a_knot(self):
        # the sub-path from knot 1 used to take step 5 at 0.1 + 5*0.1 = 0.6, an
        # ulp below the full path's step 6 at 6*0.1, and switch a step late
        a1, a2 = FormalMapping.from_scalar_coeffs([0.5, 0.3]), FormalMapping.from_scalar_coeffs([-0.4, 0.2])
        b = FormalMapping.from_scalar_coeffs([0.3, 0.1], (1,))
        co = CoefficientFamily(2, 1, 1, lambda t: a1 if t < 6 * 0.1 else a2, lambda t: b)
        grid = TimeGrid(0.0, 1.0, 10)
        rep = evolution_check(co, sample_path(grid, 1, seed=0), 0.1)
        assert rep.max_discrepancy <= 1e-14

    @given(
        order=st.integers(1, 3),
        d=st.integers(1, 2),
        m=st.integers(1, 2),
        n_steps=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        random_initial=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_restricted_solve_is_the_full_solve_bitwise(
        self, order, d, m, n_steps, seed, random_initial, data
    ):
        """evolution_check takes S(tau, s) from the full solve: the solve
        along the path restricted to [s, tau] has the full solve's rows
        0..tau bit for bit.  So it must where the coefficients switch at a
        knot, before or after tau, to a pair of another zero pattern, which
        changes Psi's pattern over the restricted grid."""
        rng = np.random.default_rng(seed)

        def pair():
            co = random_coefficients(rng, order, d, m)
            a, b = co.drift(0.0), co.diffusion(0.0)
            zero = st.lists(st.booleans(), min_size=order, max_size=order)
            drift = [
                MultilinearMap.zero(c.degree, d, d) if c.degree > 1 and z else c
                for c, z in zip(a.components, data.draw(zero))
            ]
            diffusion = [
                MultilinearMap.zero(c.degree, d, d, (m,)) if z else c for c, z in zip(b.components, data.draw(zero))
            ]
            return a._of(order, drift), b._of(order, diffusion)

        pairs = [pair(), pair()]
        grid = TimeGrid(0.0, 1.0, n_steps)
        switch = grid.knot(data.draw(st.integers(1, n_steps - 1)))
        co = CoefficientFamily(
            order, d, m, lambda t: pairs[t >= switch][0], lambda t: pairs[t >= switch][1]
        )
        initial = random_mapping(rng, order, d, d) if random_initial else identity(order, d)
        path = sample_path(grid, m, seed)
        tau = data.draw(st.integers(1, n_steps - 1))
        full = solve_chain(co, initial, path)
        left = solve_chain(co, initial, path.restrict(0, tau))
        for got, want in zip(left.entries, full.entries):
            assert got.tobytes() == want[: tau + 1].tobytes()

    def test_split_knot_must_be_a_knot(self, rng):
        co = random_coefficients(rng, 2, 2, 2)
        grid = TimeGrid(0.0, 1.0, 8)
        path = sample_path(grid, 2, seed=0)
        with pytest.raises(ShapeError):
            evolution_check(co, path, 0.3)
        with pytest.raises(ShapeError):
            evolution_check(co, path, 0.0)


class TestForcingTerms:
    def test_degree_two_formula(self, rng):
        co = random_coefficients(rng, 3, 2, 2)
        s = random_mapping(rng, 3, 2, 2)
        f2, g2 = forcing_terms(2, s, co.drift_at(0.0), co.diffusion_at(0.0))
        from formalflow import apply_to_tuple

        a2 = co.drift_at(0.0).component(2)
        expected_f = apply_to_tuple(a2, [s.component(1), s.component(1)]).entries
        assert np.allclose(f2.entries, expected_f)
        b2 = co.diffusion_at(0.0).component(2)
        expected_g = apply_to_tuple(b2, [s.component(1), s.component(1)]).entries
        assert np.allclose(g2.entries, expected_g)

    def test_zero_higher_coefficients_give_zero_forcing(self, rng):
        co = CoefficientFamily.constant_scalar([1.0, 0.0, 0.0], [0.5, 0.0, 0.0])
        s = random_mapping(rng, 3, 1, 1)
        for n in (2, 3):
            f, g = forcing_terms(n, s, co.drift_at(0.0), co.diffusion_at(0.0))
            assert f.is_zero and g.is_zero

    def test_scalar_quadratic_forcing_closed_form(self):
        # with S1 = e^{alpha t}, f2(t) = gamma * e^{2 alpha t}
        alpha, gamma, t = 0.8, 0.4, 0.6
        co = CoefficientFamily.constant_scalar([alpha, gamma])
        s1 = math.exp(alpha * t)
        states = FormalMapping.from_scalar_coeffs([s1, 0.0])
        f2, g2 = forcing_terms(2, states, co.drift_at(t), co.diffusion_at(t))
        assert f2.entries.ravel()[0] == pytest.approx(gamma * math.exp(2 * alpha * t), rel=1e-14)
        assert g2.is_zero

    def test_requires_degree_at_least_two(self, rng):
        co = random_coefficients(rng, 2, 2, 2)
        s = random_mapping(rng, 2, 2, 2)
        with pytest.raises(ShapeError):
            forcing_terms(1, s, co.drift_at(0.0), co.diffusion_at(0.0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: sample_path(TimeGrid(0.0, 1.0, 8), 1, seed=0).restrict(3, 3), r"bad knot range \[3, 3\]"),
        (lambda: sample_path(TimeGrid(0.0, 1.0, 8), 1, seed=0).coarsen(3), "factor 3 does not divide 8 steps"),
        (lambda: sample_path(TimeGrid(0.0, 1.0, 8), 0, seed=0), "noise_dim must be >= 1, got 0"),
        (
            lambda: one_step_map(identity(1, 1), zero_diffusion(1, 1, 1), 0.1, np.zeros(2)),
            r"dw has shape \(2,\), expected \(1,\)",
        ),
        (
            lambda: forcing_terms(3, identity(2, 1), identity(2, 1), zero_diffusion(2, 1, 1)),
            "need state components up to degree 2, coefficients up to 3",
        ),
    ],
    ids=["restrict", "coarsen", "sample-path-m-0", "one-step-dw", "forcing-order"],
)
def test_invalid_arguments_raise_their_message(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


def test_a_diffusion_without_a_noise_axis_is_a_shape_error():
    # both raised AttributeError: 'FormalMapping' object has no attribute 'noise_dim'
    message = r"^diffusion needs one trailing noise axis, got trailing axes \(\)$"
    with pytest.raises(ShapeError, match=message):
        CoefficientFamily.constant(identity(2, 2), identity(2, 2))
    with pytest.raises(ShapeError, match=message):
        forcing_terms(2, identity(1, 2), identity(2, 2), identity(2, 2))


def per_row_relative_errors(got, ref):
    """`chain._relative_errors` row by row, each norm math.sqrt(v @ v)."""
    out = []
    for g, r in zip(got.reshape(len(ref), -1), ref.reshape(len(ref), -1)):
        e = int(np.frexp(np.abs(r).max() or np.abs(g - r).max())[1])
        d, s = np.ldexp(g - r, -e), np.ldexp(r, -e)
        diff, norm = math.sqrt(d @ d), math.sqrt(s @ s)
        out.append(diff / norm if norm > 0 else math.ldexp(diff, e))
    return out


@given(
    rows=st.sampled_from([1, 4, 33, 65]),
    d=st.integers(1, 3),
    n=st.integers(1, 4),
    exponent=st.sampled_from([-600, 0, 530]),
    seed=st.integers(0, 2**32 - 1),
    huge=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_relative_errors_are_the_per_row_form(rows, d, n, exponent, seed, huge, data):
    """Rows of a formula-check degree, (N + 1, d) + (d,)*n, or of an
    evolution-check component, one row: the batched norms give each error
    the bits of the per-row form.  A zero reference row gives the norm of
    the difference and no warning, also where that difference is near
    1e200 (huge) and its squares would overflow; a NaN gives a NaN error."""
    rng = np.random.default_rng(seed)
    shape = (rows, d) + (d,) * n
    ref = np.ldexp(rng.standard_normal(shape), exponent)
    zero = data.draw(st.lists(st.integers(0, rows - 1), max_size=2))
    ref[zero] = 0.0
    got = ref + np.ldexp(1e-12 * rng.standard_normal(shape), exponent)
    if huge:
        got[zero] = np.ldexp(rng.standard_normal((len(zero),) + shape[1:]), 665)
    nan = data.draw(st.lists(st.integers(0, rows - 1), max_size=1))
    got[nan] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's default errstate warns on a division by zero
        errors = chain._relative_errors(got, ref)
    want = per_row_relative_errors(got, ref)
    assert len(errors) == rows and all(type(e) is float for e in errors)
    assert [math.isnan(e) for e in errors] == [i in nan for i in range(rows)]
    assert np.array(errors).tobytes() == np.array(want).tobytes()
    for i in set(zero) - set(nan):
        assert errors[i] == pytest.approx(math.hypot(*got[i].ravel()), rel=1e-14)
