"""Acceptance checklist for the assembled package.

Each test verifies one release criterion end to end and prints a single
``criterion N PASS/FAIL`` line, so a run of this file reads as a
checklist. Tolerances and runtime budgets are pinned inline next to the
assertions they guard. The ten-seed ablation is expensive and is shared
by the two criteria that inspect it.
"""

import csv
import io
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import qmc

from mixbo.arp import fit_classifier, filter_candidates, label_observations
from mixbo.bandit import BanditState, ts_select, update_rewards
from mixbo.bench import get_objective, run_ablation, run_study, write_traces_csv
from mixbo.cli import serve
from mixbo.optimizer import OptimizerConfig
from mixbo.space import ParamSpec, SearchSpace
from mixbo.surrogate import (
    KernelParams,
    gp_fit,
    gp_posterior,
    indicator_kernel,
    linear_kernel,
    matern52,
    mixture_gram,
    mixture_kernel,
)
from mixbo.turbo import (
    TrustRegionConfig,
    needs_restart,
    new_state,
    restarted,
    sobol_points,
    update_region,
)

EPS = float(np.finfo(float).eps)


@contextmanager
def criterion(num, title, capsys):
    """Print one checklist line for the enclosed assertions."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num:2d} FAIL: {title}")
        raise
    with capsys.disabled():
        print(f"\ncriterion {num:2d} PASS: {title}")


# --- criterion 1: kernel validity ---------------------------------------


def mixed_seven_dim_space():
    return SearchSpace(
        [
            ParamSpec("x1", "real", lo=0.0, hi=1.0),
            ParamSpec("x2", "real", lo=-1.0, hi=2.0),
            ParamSpec("x3", "real", lo=0.0, hi=5.0),
            ParamSpec("n1", "integer", lo=0, hi=9),
            ParamSpec("n2", "integer", lo=-4, hi=4),
            ParamSpec("c1", "categorical", categories=("a", "b", "c", "d")),
            ParamSpec("c2", "categorical", categories=("u", "v", "w")),
        ]
    )


def test_criterion_01_kernel_validity(capsys):
    with criterion(1, "grams are PSD and the mixture edge identities hold", capsys):
        t0 = time.perf_counter()
        space = mixed_seven_dim_space()
        bl = space.blocks
        rng = np.random.default_rng(2024)
        H = space.snap(rng.random((200, space.dim)))

        worst = math.inf
        params = None
        for _ in range(50):
            params = KernelParams(
                lengthscales=rng.uniform(0.05, 3.0, size=bl.x.size),
                signal_variance=float(rng.uniform(0.05, 8.0)),
                lam=float(rng.uniform(0.0, 1.0)),
                noise_variance=float(rng.uniform(1e-6, 1e-2)),
            )
            G = mixture_gram(H, None, params, bl)
            lo = float(np.linalg.eigvalsh(G + 1e-8 * np.eye(200)).min())
            worst = min(worst, lo)
        assert worst >= -1e-10

        # the vectorized gram is the scalar kernel applied pairwise
        sub = H[:8]
        S = np.array(
            [[mixture_kernel(sub[i], sub[j], params, bl) for j in range(8)] for i in range(8)]
        )
        np.testing.assert_allclose(mixture_gram(sub, None, params, bl), S, rtol=0.0, atol=1e-12)

        # edge identities: lam 0 is the kernel sum, lam 1 the product
        ls = rng.uniform(0.1, 2.0, size=bl.x.size)
        p0 = KernelParams(lengthscales=ls, signal_variance=1.7, lam=0.0)
        p1 = KernelParams(lengthscales=ls, signal_variance=1.7, lam=1.0)
        for _ in range(20):
            h1, h2 = H[rng.integers(200)], H[rng.integers(200)]
            km = matern52(h1[bl.x], h2[bl.x], ls, 1.7)
            kl = linear_kernel(h1[bl.y], h2[bl.y])
            ki = indicator_kernel(h1[bl.z], h2[bl.z])
            total, prod = km + kl + ki, km * kl * ki
            assert abs(mixture_kernel(h1, h2, p0, bl) - total) <= 4 * EPS * max(1.0, abs(total))
            assert abs(mixture_kernel(h1, h2, p1, bl) - prod) <= 4 * EPS * max(1.0, abs(prod))

        # a single-block space makes the mixture weight irrelevant
        cont = SearchSpace([ParamSpec(f"r{i}", "real", lo=0.0, hi=1.0) for i in range(3)])
        hc1, hc2 = rng.random(3), rng.random(3)
        want = matern52(hc1, hc2, ls, 1.7)
        for lam in (0.0, 0.3, 1.0):
            p = KernelParams(lengthscales=ls, signal_variance=1.7, lam=lam)
            got = mixture_kernel(hc1, hc2, p, cont.blocks)
            assert abs(got - want) <= 4 * EPS * max(1.0, abs(want))
        assert time.perf_counter() - t0 < 30.0


# --- criterion 2: posterior oracle equivalence ---------------------------


def test_criterion_02_gp_oracle_equivalence(capsys):
    with criterion(2, "gp posterior matches a dense linear-solve oracle", capsys):
        t0 = time.perf_counter()
        space = SearchSpace(
            [
                ParamSpec("a", "real", lo=0.0, hi=1.0),
                ParamSpec("b", "real", lo=0.0, hi=1.0),
                ParamSpec("n", "integer", lo=0, hi=6),
                ParamSpec("c", "categorical", categories=("p", "q", "r")),
            ]
        )
        rng = np.random.default_rng(11)
        for n in (2, 3):
            X = space.snap(rng.random((n, space.dim)))
            y = rng.standard_normal(n)
            model = gp_fit(X, y, space)
            Q = space.snap(rng.random((5, space.dim)))
            mu, cov = gp_posterior(model, Q)

            # the oracle repeats the algebra with a plain dense solve
            p, bl = model.params, space.blocks
            K = np.array(
                [[mixture_kernel(X[i], X[j], p, bl) for j in range(n)] for i in range(n)]
            )
            K[np.diag_indices(n)] += p.noise_variance + model.jitter
            ys = (y - model.target_mean) / model.target_std
            Ks = np.array(
                [[mixture_kernel(Q[i], X[j], p, bl) for j in range(n)] for i in range(5)]
            )
            Kss = np.array(
                [[mixture_kernel(Q[i], Q[j], p, bl) for j in range(5)] for i in range(5)]
            )
            mu_o = Ks @ np.linalg.solve(K, ys) * model.target_std + model.target_mean
            cov_o = (Kss - Ks @ np.linalg.solve(K, Ks.T)) * model.target_std**2
            np.testing.assert_allclose(mu, mu_o, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(cov, cov_o, rtol=0.0, atol=1e-10)

        # noise-free interpolation through 8 points of a smooth curve
        line = SearchSpace([ParamSpec("x", "real", lo=0.0, hi=1.0)])
        X = np.linspace(0.02, 0.98, 8).reshape(-1, 1)
        y = np.sin(3.0 * X[:, 0])
        mu, _ = gp_posterior(gp_fit(X, y, line), X)
        assert np.abs(mu - y).max() < 1e-3
        assert time.perf_counter() - t0 < 5.0


# --- criterion 3: trust region state machine ------------------------------


def test_criterion_03_trust_region_state_machine(capsys):
    with criterion(3, "region doubles, halves, and trips the restart floor", capsys):
        t0 = time.perf_counter()
        cfg = TrustRegionConfig(n_candidates=100)
        assert cfg.length_min == 2.0**-3
        # D = 3 in batches of 4: max(4, ceil(3 / 4)) = 4 failures halve
        batch, failure_tolerance = 4, 4

        # success streaks double the length from 0.8, capped at 1.6
        st = new_state()
        assert st.center is None and math.isinf(st.best_value)
        assert st.length == 0.8
        pt = np.full(3, 0.5)
        for k, val in enumerate((10.0, 9.0, 8.0), start=1):
            st = update_region(st, val, pt + 0.01 * k, batch)
            assert st.best_value == val
        assert st.length == 1.6 and st.success_count == 0
        for val in (7.0, 6.0, 5.0):
            st = update_region(st, val, pt, batch)
        assert st.length == 1.6

        # failure streaks halve it until the floor trips; halving is
        # exact in binary so the scripted lengths match bit for bit
        st = new_state()
        st = update_region(st, 1.0, pt, batch)
        assert np.array_equal(st.center, pt) and st.length == 0.8
        seen = [st.length]
        while not needs_restart(st, cfg):
            for _ in range(failure_tolerance):
                st = update_region(st, 2.0, pt, batch)
            seen.append(st.length)
        assert seen == [0.8, 0.4, 0.2, 0.1]

        # an improvement inside the relative margin counts as a failure
        # and leaves the incumbent alone
        st2 = new_state()
        st2 = update_region(st2, 10.0, pt, batch)
        st2 = update_region(st2, 9.999, pt + 0.3, batch)
        assert st2.best_value == 10.0 and st2.failure_count == 1
        assert np.array_equal(st2.center, pt)

        # a restart resets geometry and incumbent and bumps the counter
        fresh = restarted(st, np.full(3, 0.25))
        assert fresh.length == 0.8 and fresh.restarts == st.restarts + 1
        assert math.isinf(fresh.best_value)
        assert fresh.success_count == 0 and fresh.failure_count == 0
        assert time.perf_counter() - t0 < 1.0


# --- criterion 4: region partitioning --------------------------------------


def group_sse(vals, labels):
    a, b = vals[labels], vals[~labels]
    return float(((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum())


def brute_force_best_sse(vals):
    """Minimum within-group SSE over every nonempty bipartition.

    Enumerates all 2^n - 2 assignments by bitmask, so it does not assume
    the optimum is a split of the sorted values.
    """
    n = vals.size
    masks = np.arange(1, 2**n - 1, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    cnt = bits.sum(axis=1)
    s1 = bits @ vals
    q1 = bits @ (vals * vals)
    sse1 = q1 - s1**2 / cnt
    sse2 = (vals @ vals - q1) - (vals.sum() - s1) ** 2 / (n - cnt)
    return float((sse1 + sse2).min())


def test_criterion_04_region_partitioning(capsys):
    with criterion(4, "exact 1-d split, svm accuracy, never-empty filter", capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(404)

        # the 1-d two-group labeling attains the global SSE optimum
        for _ in range(500):
            n = int(rng.integers(4, 13))
            vals = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 2.0), size=n)
            labels = label_observations(vals)
            got = group_sse(vals, labels)
            best = brute_force_best_sse(vals)
            assert got <= best + 1e-9 * max(1.0, best)
            assert vals[labels].mean() < vals[~labels].mean()

        # clean clusters are classified perfectly
        a = rng.normal((-1.0, -1.0), 0.25, size=(20, 2))
        b = rng.normal((1.0, 1.0), 0.25, size=(20, 2))
        X = np.vstack([a, b])
        y = np.concatenate([np.ones(20, dtype=bool), np.zeros(20, dtype=bool)])
        clf = fit_classifier(X, y)
        assert clf.train_accuracy == 1.0
        np.testing.assert_array_equal(clf.decision(X) >= 0, y)

        # a checkerboard of four clusters with diagonal labels needs the
        # radial kernel; 90% training accuracy is the bar
        centers = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        Xg = np.vstack([rng.normal(c, 0.08, size=(15, 2)) for c in centers])
        yg = np.repeat(np.array([True, True, False, False]), 15)
        assert fit_classifier(Xg, yg).train_accuracy >= 0.9

        # the candidate filter never starves the acquisition step
        for _ in range(40):
            pts = rng.random((24, 3))
            lab = np.zeros(24, dtype=bool)
            lab[: int(rng.integers(4, 21))] = True
            rng.shuffle(lab)
            clf = fit_classifier(pts, lab)
            cand = rng.random((int(rng.integers(1, 40)), 3))
            kept = filter_candidates(clf, cand)
            assert kept.shape[0] >= 1
        assert time.perf_counter() - t0 < 60.0


# --- criterion 5: bandit convergence ---------------------------------------


def test_criterion_05_bandit_convergence(capsys):
    with criterion(5, "bandit locks the better arm and starts uniform", capsys):
        t0 = time.perf_counter()

        # two-arm Bernoulli game with success rates 0.8 and 0.2: over 50
        # seeds the better arm owns at least 90% of the last 100 rounds
        space = SearchSpace([ParamSpec("arm", "categorical", categories=("good", "bad"))])
        prob = (0.8, 0.2)
        hits, total = 0, 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            state = BanditState.from_space(space)
            picks = []
            for _ in range(500):
                k = ts_select(state, rng)["arm"]
                reward = bool(rng.random() < prob[k])
                update_rewards(state, [{"arm": k}], [reward])
                picks.append(k)
            hits += sum(1 for k in picks[-100:] if k == 0)
            total += 100
        assert hits / total >= 0.9

        # the flat Beta(1, 1) prior selects each arm with frequency
        # within 0.04 of 1/K
        for K in (2, 5):
            sp = SearchSpace(
                [ParamSpec("q", "categorical", categories=tuple(f"c{i}" for i in range(K)))]
            )
            state = BanditState.from_space(sp)
            rng = np.random.default_rng(99)
            counts = np.zeros(K)
            draws = 20000
            for _ in range(draws):
                counts[ts_select(state, rng)["q"]] += 1
            assert np.abs(counts / draws - 1.0 / K).max() <= 0.04
        assert time.perf_counter() - t0 < 10.0


# --- criterion 6: quasirandom generator -------------------------------------


# head of the standard direction-number table (dimension: s, a, m_k),
# transcribed by hand; dimension 1 uses the plain van der Corput rule
DIRECTION_HEAD = {2: (1, 0, (1,)), 3: (2, 1, (1, 3)), 4: (3, 1, (1, 3, 1))}
WORD = 32


def hand_sobol(n, d):
    """Digital construction from first principles, kept independent of
    the package's incremental generator: expand the direction numbers by
    the primitive-polynomial recurrence, then XOR them over the set bits
    of the gray code of each index."""

    def vectors(dim, depth):
        if dim == 1:
            return [1 << (WORD - k) for k in range(1, depth + 1)]
        s, a, m = DIRECTION_HEAD[dim]
        a_bits = [(a >> (s - 2 - i)) & 1 for i in range(s - 1)] if s > 1 else []
        v = [m[k - 1] << (WORD - k) for k in range(1, min(s, depth) + 1)]
        for k in range(s + 1, depth + 1):
            word = v[k - s - 1] ^ (v[k - s - 1] >> s)
            for i in range(1, s):
                if a_bits[i - 1]:
                    word ^= v[k - i - 1]
            v.append(word)
        return v

    depth = max(1, (n - 1).bit_length())
    vs = [vectors(j + 1, depth) for j in range(d)]
    out = np.empty((n, d))
    for i in range(n):
        g = i ^ (i >> 1)
        for j in range(d):
            acc = 0
            for k in range(depth):
                if (g >> k) & 1:
                    acc ^= vs[j][k]
            out[i, j] = acc / 2.0**WORD
    return out


def test_criterion_06_sobol_correctness(capsys):
    with criterion(6, "sobol matches the digital construction, beats uniform", capsys):
        t0 = time.perf_counter()
        for d in (1, 2, 3, 4):
            np.testing.assert_array_equal(sobol_points(8, d), hand_sobol(8, d))

        # centered discrepancy as the uniformity proxy, averaged over 20
        # scramble seeds against paired uniform draws
        s_disc = [qmc.discrepancy(sobol_points(64, 4, seed=s)) for s in range(20)]
        u_disc = [qmc.discrepancy(np.random.default_rng(s).random((64, 4))) for s in range(20)]
        assert float(np.mean(s_disc)) < float(np.mean(u_disc))
        assert time.perf_counter() - t0 < 10.0


# --- criteria 7 and 8: the ablation study -----------------------------------


@pytest.fixture(scope="module")
def ablation_run():
    """Ten paired seeds on the five noiseless objectives, run once."""
    t0 = time.perf_counter()
    report, traces = run_ablation(range(10))
    return report, traces, time.perf_counter() - t0


def test_criterion_07_end_to_end_beats_references(ablation_run, capsys):
    with criterion(7, "full arm beats random by 30+, baseline on 3+ of 5", capsys):
        report, traces, elapsed = ablation_run
        assert report["failures"] == []
        cfg = OptimizerConfig()
        assert cfg.max_iterations * cfg.batch_size == 128  # the evaluation budget
        assert all(len(t.best_values) == cfg.max_iterations for t in traces)

        agg = report["aggregate"]
        assert agg["full"] - agg["random"] >= 30.0
        per = report["scores"]
        wins = sum(1 for ob in report["objectives"] if per["full"][ob] > per["baseline"][ob])
        assert wins >= 3
        assert elapsed < 1200.0
    with capsys.disabled():
        report = ablation_run[0]
        print(
            f"    aggregate scores: random={report['aggregate']['random']:.1f} "
            f"full={report['aggregate']['full']:.1f} "
            f"(ran in {ablation_run[2]:.0f} s)"
        )


def test_criterion_08_ablation_report_structure(ablation_run, capsys):
    with criterion(8, "four-arm ablation report over paired seeds", capsys):
        report, traces, _ = ablation_run
        assert report["arms"] == ["baseline", "tuning", "arp", "full"]
        assert report["seeds"] == list(range(10))
        assert len(report["objectives"]) == 5
        for arm in ["random", *report["arms"]]:
            assert set(report["scores"][arm]) == set(report["objectives"])
            assert arm in report["aggregate"]
            assert arm in report["wall_seconds"]
        assert set(report["improvement_vs_baseline_pct"]) == set(report["arms"])

        # paired comparison: every optimizer saw the same seed list on
        # every objective
        seen = {}
        for t in traces:
            seen.setdefault((t.objective, t.optimizer), []).append(t.seed)
        assert all(s == list(range(10)) for s in seen.values())

    # the score ladder is reported for inspection, deliberately without
    # a monotonicity assertion: five synthetic objectives over ten seeds
    # are too small a sample to guarantee the ordering every time
    report = ablation_run[0]
    order = ["baseline", "tuning", "arp", "full"]
    ladder = "  ".join(f"{a}={report['aggregate'][a]:.1f}" for a in order)
    steps = [report["aggregate"][a] for a in order]
    trend = "monotone" if all(x <= y + 1e-9 for x, y in zip(steps, steps[1:])) else "mixed"
    with capsys.disabled():
        print(f"    ablation ladder ({trend}, reported not asserted): {ladder}")
        print("    tuning reproduces baseline: at the default budget no region reaches its restart floor")


# --- criterion 9: determinism ------------------------------------------------


def test_criterion_09_determinism(tmp_path, capsys):
    with criterion(9, "repeated runs write identical traces", capsys):
        cases = [
            ("full", "two-basin", [0], OptimizerConfig(batch_size=4, max_iterations=6)),
            ("baseline", "log-scale-tune", [3], OptimizerConfig(batch_size=4, max_iterations=4)),
        ]
        for arm, ob_name, seeds, cfg in cases:
            ob = get_objective(ob_name)
            rows = []
            for run in range(2):
                path = tmp_path / f"{arm}-{run}.csv"
                write_traces_csv(run_study(arm, ob, seeds, cfg), str(path))
                with open(path, newline="") as fh:
                    rows.append(list(csv.reader(fh)))
            a, b = rows
            assert len(a) == len(b) >= 1 + cfg.max_iterations
            assert a[0] == b[0]
            wall = a[0].index("wall_s")
            # values are written with repr, so string equality below is
            # bit-for-bit equality of the floats; the wall-clock column
            # is the one physically nondeterministic field and is the
            # only one excluded
            for ra, rb in zip(a[1:], b[1:]):
                assert [f for i, f in enumerate(ra) if i != wall] == [
                    f for i, f in enumerate(rb) if i != wall
                ]


# --- criterion 10: wire protocol ---------------------------------------------


def test_criterion_10_wire_protocol(capsys):
    with criterion(10, "fuzzed server never crashes; 16-round session ends well", capsys):
        # 10,000 junk lines of assorted shapes: raw bytes, truncated
        # JSON, bare scalars, objects without a kind, unknown kinds
        rng = np.random.default_rng(1012)
        junk = []
        for _ in range(10000):
            m = int(rng.integers(0, 5))
            if m == 0:
                raw = bytes(rng.integers(0, 256, size=int(rng.integers(1, 60))).tolist())
                line = raw.decode("latin-1").replace("\n", "?").replace("\r", "?")
            elif m == 1:
                line = '{"kind": "suggest_request"'[: int(rng.integers(1, 26))]
            elif m == 2:
                line = json.dumps(float(rng.standard_normal()))
            elif m == 3:
                line = json.dumps({"no_kind": int(rng.integers(100))})
            else:
                line = json.dumps({"kind": "mystery", "x": float(rng.random())})
            junk.append(line)
        out = io.StringIO()
        assert serve(io.StringIO("\n".join(junk) + "\n"), out) == 0
        replies = [json.loads(l) for l in out.getvalue().splitlines() if l.strip()]
        nonblank = sum(1 for l in junk if l.strip())
        assert len(replies) == nonblank
        assert all(r["kind"] == "error" for r in replies)

        # a scripted 16-round session; the driver generator evaluates
        # each suggestion batch locally, reading every reply from the
        # output buffer before producing the next request line
        ob = get_objective("mixed-sphere")
        sdoc = ob.space.to_dict()
        cdoc = {"batch_size": 2, "max_iterations": 16, "seed": 5}
        out = io.StringIO()
        pos = 0
        evaluated = []

        def take():
            nonlocal pos
            buf = out.getvalue()
            chunk, pos = buf[pos:], len(buf)
            msgs = [json.loads(l) for l in chunk.splitlines() if l.strip()]
            assert len(msgs) == 1, msgs
            return msgs[0]

        def script():
            yield json.dumps({"kind": "hello", "space": sdoc, "config": cdoc})
            assert take()["kind"] == "ack"
            for _ in range(16):
                yield json.dumps({"kind": "suggest_request"})
                sug = take()
                assert sug["kind"] == "suggestions"
                pts = sug["points"]
                vals = [ob.evaluate(p) for p in pts]
                evaluated.extend(vals)
                yield json.dumps({"kind": "observe", "points": pts, "values": vals})
                assert take()["kind"] == "ack"
            yield json.dumps({"kind": "best"})

        assert serve(script(), out) == 0
        final = take()
        assert final["kind"] == "best"
        assert len(evaluated) == 32  # 16 rounds of batch 2
        assert final["value"] == min(evaluated)
        assert set(final["point"]) == set(ob.space.names)
        ob.space.warp(final["point"])  # raises if the point is invalid
