"""The compiled sweep kernel against the generated one, and the compiled
step layers against their numpy bodies, bit for bit, and how the extension
holding them is built, cached, loaded and replaced by the fallbacks.

``inference._sweeps`` runs a batch of fits through the compiled kernel when
``inference._compiled`` returns it, and through the generated kernel for
k_a otherwise; patching ``_compiled`` to return None forces the fallback in
this process.  The build and cache tests run subprocesses whose
``XDG_CACHE_HOME`` is a fresh temporary directory, and take away the
compiler by giving them a ``PATH`` with nothing on it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import sysconfig
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import replace
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sparsewatch import (
    BasisDictionary, DecayedStats, ModelConfig, SpikeSlabPosterior, bspline_basis, detection,
    engine, fourier_basis, inference, sampling,
)
from sparsewatch.detection import DetectionInputs
from sparsewatch.inference import ALPHA_CLAMP
from sparsewatch.simgen import Scenario, gen_stream

SRC = Path(inference.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module", autouse=True)
def compiled():
    if inference._compiled() is None:
        pytest.skip("the compiled kernel cannot be built here")


def _cfg(k_a: int, w: float = 0.1) -> ModelConfig:
    return ModelConfig.homogeneous(
        k_a=k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=w, v=1e-7, decay=0.1, m=1
    )


def drawn_cases(seed: int = 0) -> list:
    """Batches of four fits, ``_sweeps``'s arguments, at k_a = 1, 10, 12, 13
    and 36 from dense M and random starts: to ``fit``'s stop rule, to
    ``max_iters`` at tol 0, at w = 1e-20, where the clamp below 1/2 binds
    (u at scale 1e3 binds the one above), and with a NaN in u."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in (1, 10, 12, 13, 36):
        n = 4
        a = rng.normal(size=(n, k + 3, k))
        raw_m = a.swapaxes(1, 2) @ a
        u = rng.normal(size=(n, k)) * np.array([1e-3, 1.0, 1e3, 1.0])[:, None]
        mu, alpha = rng.normal(size=(n, k)), rng.uniform(0.0, 1.0, size=(n, k))
        rows = np.stack([mu * alpha, mu, np.ones((n, k)), alpha, np.zeros((n, k))], axis=1)
        nan_u = u.copy()
        nan_u[1, k // 2] = np.nan
        cases += [
            (raw_m, rows, u, _cfg(k), 1e-6, 100),
            (raw_m, rows, u, _cfg(k), 0.0, 3),
            (raw_m, rows, u, _cfg(k, w=1e-20), 1e-6, 100),
            (raw_m, rows, nan_u, _cfg(k), 1e-6, 100),
        ]
    return cases


def run_both(case) -> list:
    """(compiled, generated): each kernel's final rows as bytes, convergence
    flags and sweep counts, each run on a copy of the case's rows."""
    raw_m, rows, u, cfg, tol, max_iters = case
    results = []
    for kernel in (inference._compiled(), None):
        out = rows.copy()
        with mock.patch.object(inference, "_compiled", lambda: kernel):
            converged, sweeps = inference._sweeps(raw_m, out, u, cfg, tol, max_iters)
        results.append((out.tobytes(), converged.tolist(), sweeps.tolist()))
    return results


def check_drawn_cases() -> None:
    """Every drawn case gives both kernels' outputs equal; the subprocess
    test runs this."""
    for case in drawn_cases():
        compiled, generated = run_both(case)
        assert compiled == generated


@pytest.fixture(scope="module")
def captured(default_dictionary, default_config):
    """The arguments of every ``_sweeps`` call of a lockstep null run."""
    calls = []
    real = inference._sweeps

    def record(raw_m, rows, u, cfg, tol, max_iters):
        calls.append((raw_m.copy(), rows.copy(), u.copy(), cfg, tol, max_iters))
        return real(raw_m, rows, u, cfg, tol, max_iters)

    with mock.patch.object(inference, "_sweeps", record):
        engine.collect_h0_trajectories(
            default_config, default_dictionary, n_reps=4, horizon=40, seed=3
        )
    return calls


class TestBitwise:
    def test_drawn_fits_are_equal(self):
        """Rows, flags and sweep counts; the cases run to the stop rule, to
        max_iters, bind both clamps and carry a NaN."""
        alphas = []
        for case in drawn_cases():
            (rows, converged, sweeps), generated = run_both(case)
            assert (rows, converged, sweeps) == generated
            _, _, u, _, tol, max_iters = case
            alphas.append(np.frombuffer(rows).reshape(len(u), 5, -1)[:, 3].ravel())
            stuck = np.isnan(u).any(axis=1) | (tol == 0.0)
            assert [(s, c) for s, c, x in zip(sweeps, converged, stuck) if x] == (
                [(max_iters, False)] * stuck.sum()
            )
        alpha = np.concatenate(alphas)
        assert (alpha == ALPHA_CLAMP).any() and (alpha == 1.0 - ALPHA_CLAMP).any()

    def test_fits_captured_from_a_lockstep_calibration_are_equal(self, captured):
        assert len(captured) == 40 and all(len(call[0]) == 4 for call in captured)
        for case in captured:
            compiled, generated = run_both(case)
            assert compiled == generated

    def test_fits_are_equal_in_a_forked_pool(self, captured):
        """Workers fork from this process, which holds the loaded kernel."""
        cases = drawn_cases() + captured[::8]
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            for compiled, generated in pool.map(run_both, cases):
                assert compiled == generated

    def test_fits_are_equal_with_blas_threads_unpinned(self):
        """In a subprocess without ``OPENBLAS_NUM_THREADS`` or
        ``OMP_NUM_THREADS``, so OpenBLAS picks its own thread count."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(TESTS)))
        code = "import test_compiled_kernel as t; t.check_drawn_cases()"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr

    def test_a_zero_slab_denominator_raises_in_both(self):
        """A hand-made M whose diagonal is −sigma_e²/sigma_j² makes the slab
        variance divide by zero: both kernels raise as Python's division."""
        cfg = ModelConfig.homogeneous(
            k_a=1, sigma_e=0.5, sigma_b=1.0, sigma_j=1.0, w=0.5, v=1e-7, decay=0.1, m=1
        )
        case = (np.full((1, 1, 1), -0.25), np.full((1, 5, 1), 0.5), np.ones((1, 1)), cfg, 1e-6, 5)
        for kernel in (inference._compiled(), None):
            with mock.patch.object(inference, "_compiled", lambda: kernel):
                with pytest.raises(ZeroDivisionError):
                    inference._sweeps(*case)

    def test_the_entry_refuses_arguments_of_the_wrong_size(self):
        sweep, cfg = inference._compiled().sweep, _cfg(3)
        args = [np.zeros((2, 3, 3)), np.zeros((2, 5, 3)), np.zeros((2, 3)), cfg._sweep_factors,
                cfg.sigma_e2, cfg.v, 1e-6, 5, np.zeros(2, dtype=bool), np.zeros(2, dtype=np.int64)]
        for i, bad in ((0, np.zeros((2, 3, 2))), (1, np.zeros((2, 4, 3))), (2, np.zeros(3)),
                       (3, np.zeros(7)), (8, np.zeros(2)), (9, np.zeros(3, dtype=np.int32))):
            with pytest.raises(ValueError, match="wrong size"):
                sweep(*args[:i], bad, *args[i + 1:])
        with pytest.raises(ValueError, match="max_iters"):
            sweep(*args[:7], 0, *args[8:])
        with pytest.raises(TypeError):
            sweep(*args[:9])


def _fit_bytes(result) -> tuple:
    """A ``FitResult`` as its posterior's and moments' bytes, flag and count."""
    post, stats, converged, n_iters = result
    fields = b"".join(getattr(post, name).tobytes() for name in inference._FIELDS)
    return fields, stats.raw_M.tobytes(), stats.raw_u.tobytes(), converged, n_iters


def _on_both_kernels(run) -> list:
    """``run()`` with the compiled kernel, then with the generated fallback."""
    results = []
    for kernel in (inference._compiled(), None):
        with mock.patch.object(inference, "_compiled", lambda: kernel):
            results.append(run())
    return results


@pytest.fixture(scope="module")
def stream_fit(default_dictionary, default_config):
    """The next observation, subset, posterior and moments after 12 fits of
    a stream of the p = 15 model's noise, where fits converge."""
    rng = np.random.default_rng(7)
    post, stats = SpikeSlabPosterior.prior(default_config), DecayedStats.empty(10)
    for _ in range(13):
        z = np.sort(rng.choice(15, 5, replace=False))
        x_z = default_config.sigma_e * rng.normal(size=5)
        if stats.n == 12:
            return x_z, z, post, stats
        post, stats, _, _ = inference.fit(x_z, z, post, stats, default_dictionary, default_config)


class TestArgumentsBothKernelsTake:
    @pytest.mark.parametrize("max_iters", [2**63, 10**30], ids=["2**63", "10**30"])
    def test_a_max_iters_beyond_a_c_long_fits_as_100_does(
        self, stream_fit, default_dictionary, default_config, max_iters
    ):
        """No fit reaches ``sys.maxsize`` sweeps, so the cap moves nothing."""
        def run(limit):
            return _fit_bytes(inference.fit(
                *stream_fit, default_dictionary, default_config, max_iters=limit
            ))

        compiled, generated = _on_both_kernels(lambda: run(max_iters))
        assert compiled == generated == run(100)
        assert compiled[3] and 1 < compiled[4] < 100

    @pytest.mark.parametrize("kind", ["fortran-M", "strided-u", "float32-M", "float32-u"])
    def test_stats_in_any_float_layout_fit_equally(
        self, stream_fit, default_dictionary, default_config, kind
    ):
        """``DecayedStats``' constructor takes its arrays as they are; both
        kernels fit and sweep a Fortran-ordered M, a strided u and float32
        of either, the sweep as on C-ordered float64 copies."""
        x_z, z, post, stats = stream_fit
        raw_m, raw_u = stats.raw_M, stats.raw_u
        raw_m, raw_u = {
            "fortran-M": (np.asfortranarray(raw_m), raw_u),
            "strided-u": (raw_m, np.stack([raw_u, -raw_u], axis=1)[:, 0]),
            "float32-M": (raw_m.astype(np.float32), raw_u),
            "float32-u": (raw_m, raw_u.astype(np.float32)),
        }[kind]
        odd = replace(stats, raw_M=raw_m, raw_u=raw_u)
        plain = replace(stats, raw_M=np.array(raw_m, dtype=np.float64),
                        raw_u=np.array(raw_u, dtype=np.float64))

        def sweep(moments):
            post_1 = inference.vb_coordinate_sweep(post, moments, default_config)
            return b"".join(getattr(post_1, name).tobytes() for name in inference._FIELDS)

        compiled, generated = _on_both_kernels(lambda: (
            sweep(odd),
            _fit_bytes(inference.fit(x_z, z, post, odd, default_dictionary, default_config)),
        ))
        assert compiled == generated
        assert compiled[0] == sweep(plain)


# One process's fits, lockstep null run and delay cells, whose replications
# step one at a time through every layer, the oracle's included: prints the
# sweep kernel that ran and a digest of every output.
DIGEST = """
import hashlib
import numpy as np
import sparsewatch
from sparsewatch import engine, inference
d = sparsewatch.BasisDictionary(
    b_b=sparsewatch.fourier_basis(15, 3), b_a=sparsewatch.bspline_basis(15, 4, 14))
cfg = sparsewatch.ModelConfig.homogeneous(
    k_a=10, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1, m=5)
rng = np.random.default_rng(0)
h = hashlib.sha256()
post, stats = sparsewatch.SpikeSlabPosterior.prior(cfg), sparsewatch.DecayedStats.empty(10)
for _ in range(30):
    z = np.sort(rng.choice(15, 5, replace=False))
    post, stats, converged, sweeps = sparsewatch.fit(rng.normal(size=5), z, post, stats, d, cfg)
    h.update(post.mu_tilde.tobytes() + post.s2.tobytes() + post.alpha.tobytes())
    h.update(repr((converged, sweeps)).encode())
h.update(engine.collect_h0_trajectories(cfg, d, n_reps=4, horizon=40, seed=1, workers=2).tobytes())
cell = sparsewatch.Scenario(dictionary=d, cfg=cfg, tau=10, change=((0, 1.0),), horizon=40,
                            random_change_basis=True)
h.update(repr(engine.evaluate(cfg, d, 10.0, cell, 3, 2, return_records=True)).encode())
h.update(repr(engine.evaluate(cfg, d, 10.0, cell, 3, 2, sampler="oracle",
                              return_records=True)).encode())
print("compiled" if inference._compiled() else "generated", h.hexdigest())
"""


def _env(cache: Path, path: str | None = None) -> dict:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC))
    if path is not None:
        env["PATH"] = path
    return env


def _digest(env: dict) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", DIGEST], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _cached(cache: Path) -> list[str]:
    return sorted(p.name for p in (cache / "sparsewatch").iterdir())


class TestBuildAndCache:
    def test_without_a_compiler_the_fallback_gives_the_same_bytes(self, tmp_path):
        """``fit`` and a pooled ``collect_h0_trajectories``; the process
        without a compiler writes nothing to its cache."""
        bare = tmp_path / "bin"
        bare.mkdir()
        built = _digest(_env(tmp_path / "built"))
        fallback = _digest(_env(tmp_path / "bare", str(bare)))
        assert (built[0], fallback[0]) == ("compiled", "generated")
        assert built[1] == fallback[1]
        assert _cached(tmp_path / "bare") == []

    def test_a_warm_cache_runs_no_compiler(self, tmp_path):
        bare = tmp_path / "bin"
        bare.mkdir()
        first = _digest(_env(tmp_path / "cache"))
        (name,) = _cached(tmp_path / "cache")
        assert name.startswith("_sweep-") and name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
        assert _digest(_env(tmp_path / "cache", str(bare))) == first

    def test_two_processes_building_at_once_both_load_it(self, tmp_path):
        code = "from sparsewatch import inference; print(inference._compiled() is not None)"
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=_env(tmp_path),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=300) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        assert [out.strip() for out, _ in outs] == ["True", "True"]
        assert len(_cached(tmp_path)) == 1  # no temporary file is left

    def test_an_unwritable_cache_builds_in_a_private_directory(self, tmp_path, monkeypatch):
        """The cache's place is a file, so no directory can be made there;
        the kernel built privately fits as the generated one does."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        module = inference._compiled.__wrapped__()
        assert module is not None and module is not inference._compiled()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        with mock.patch.object(inference, "_compiled", lambda: module):
            case = drawn_cases()[4]
            compiled, generated = run_both(case)
        assert compiled == generated

    def test_no_compiler_or_no_bundled_blas_loads_nothing(self, tmp_path, monkeypatch):
        """Without a compiler the build fails in the cache and again in a
        private directory, and leaves no file; without numpy's bundled
        OpenBLAS nothing is built."""
        bare = tmp_path / "bin"
        bare.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(bare))
        assert inference._compiled.__wrapped__() is None
        assert _cached(tmp_path / "cache") == []
        monkeypatch.setattr(inference, "_BLAS", "libno-such-blas")
        assert inference._compiled.__wrapped__() is None

    def test_a_failing_compiler_loads_nothing(self, tmp_path, monkeypatch):
        """As a compiler without ``Python.h`` fails: the interpreter's
        ``CC`` is a stand-in that exits 1.  No private build is tried."""
        compiler = tmp_path / "cc"
        compiler.write_text("#!/bin/sh\necho run >> \"$0.log\"\nexit 1\n")
        compiler.chmod(0o755)
        config_var = sysconfig.get_config_var
        monkeypatch.setattr(
            sysconfig, "get_config_var", lambda name: str(compiler) if name == "CC" else config_var(name)
        )
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert inference._compiled.__wrapped__() is None
        assert (tmp_path / "cc.log").read_text() == "run\n"
        assert _cached(tmp_path / "cache") == []


# ── The step layers' entries ──────────────────────────────────────────────
#
# Each step layer (absorb_sample, lambda_stat, draw_anomaly_sample,
# synthesize_anomaly_signal, score_variables, select_top_m) runs its
# extension entry when ``_compiled`` returns the module and its numpy body
# when it returns None.  A case is (layer, arguments), picklable, with each
# Generator given as its state, so a case replays in a pool worker and its
# draws are compared too.


def _rng(state) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def _state(seed: int) -> dict:
    return np.random.default_rng(seed).bit_generator.state


ENTRIES = ("absorb", "statistic", "draw", "synthesize", "score", "top")

LAYERS = {
    "absorb": lambda stats, x_z, z, d, cfg: inference.absorb_sample(stats, x_z, z, d, cfg),
    "stat": lambda x_z, z, post, d, cfg: detection.lambda_stat(
        DetectionInputs(x_z, z, post), d, cfg),
    "draw": lambda post, cfg, state: _drawn(sampling.draw_anomaly_sample, post, cfg, state),
    "synthesize": lambda theta, d, cfg, state: _drawn(
        sampling.synthesize_anomaly_signal, theta, d, cfg, state),
    "score": lambda x1_hat, post, d: sampling.score_variables(x1_hat, post, d),
    "top": lambda scores, m, state: _drawn(sampling.select_top_m, scores, m, state),
}


def _drawn(layer, *args):
    """The layer's output on a Generator at the state ``args[-1]``, and the
    state it leaves."""
    rng = _rng(args[-1])
    return layer(*args[:-1], rng), repr(rng.bit_generator.state)


def _described(value):
    """A layer's output as comparable values: each array as its dtype, shape,
    C-contiguity and bytes, each float as its bytes."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.flags.c_contiguous, value.tobytes())
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_described(v) for v in value)
    if isinstance(value, (DecayedStats, sampling.SensingPlan)):
        return (type(value).__name__, _described(list(vars(value).values())))
    return (type(value).__name__, value)


def _outcome(case):
    layer, args = case
    try:
        return _described(LAYERS[layer](*args))
    except Exception as exc:  # both paths must raise alike
        return ("raised", type(exc).__name__, str(exc))


class _Logged:
    """The extension module, logging (entry, whether it ran) per entry call;
    an entry that did not run returned NotImplemented."""

    def __init__(self, module, log: list):
        self.module, self.log = module, log

    def __getattr__(self, name):
        entry = getattr(self.module, name)

        def call(*args):
            result = entry(*args)
            self.log.append((name, result is not NotImplemented))
            return result

        return call


def run_layer_both(case, log=None) -> list:
    """(compiled, numpy): the case's outcome on either path; the entry calls
    go into ``log`` where one is given."""
    results = []
    for module in (_Logged(inference._compiled(), [] if log is None else log), None):
        with mock.patch.object(inference, "_compiled", lambda: module):
            results.append(_outcome(case))
    return results


def _layouts(v: np.ndarray) -> list:
    """``v`` as given, Fortran-ordered (as a 2-D array where its length is
    even), strided and float32."""
    fortran = np.asfortranarray(v.reshape(2, -1) if v.size % 2 == 0 else v[None])
    return [v, fortran, np.stack([v, -v], axis=1)[:, 0], v.astype(np.float32)]


SHAPES = [  # (p, m, k_a, k_b): the study's, then each degenerate one ndarray.dot special-cases
    (15, 5, 10, 3), (6, 1, 4, 2), (6, 3, 4, 0), (6, 3, 4, 1), (6, 3, 1, 2), (4, 4, 3, 2),
    (6, 2, 4, 3), (3, 1, 1, 1), (5, 1, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1), (2, 2, 1, 1),
]


def _posteriors(rng, k: int, cfg) -> list:
    """Posteriors from the checked constructor: drawn, at both clamps, the
    prior, slab variances under ``_VAR_FLOOR`` and fields given as a list,
    float32 and strided."""
    mu, alpha = rng.normal(size=k), rng.uniform(size=k)
    clamped = alpha.copy()
    clamped[::2], clamped[1::2] = 0.0, 1.0
    return [
        SpikeSlabPosterior(mu_a=mu, s2=rng.uniform(0.01, 1.0, size=k), alpha=alpha),
        SpikeSlabPosterior(mu_a=mu, s2=rng.uniform(0.01, 1.0, size=k), alpha=clamped),
        SpikeSlabPosterior.prior(cfg),
        SpikeSlabPosterior(mu_a=mu, s2=np.full(k, 1e-30), alpha=np.full(k, 0.5)),
        SpikeSlabPosterior(mu_a=mu.tolist(), s2=np.full(k, 0.5, dtype=np.float32),
                           alpha=np.stack([alpha, alpha], axis=1)[:, 0]),
    ]


def _specials(v: np.ndarray) -> list:
    """``v``, zeros, and ``v`` with a NaN, +inf and −inf."""
    out = [v, np.zeros_like(v)]
    for bad in (np.nan, np.inf, -np.inf):
        w = v.copy()
        w[len(w) // 2] = bad
        out.append(w)
    return out


def _score_sets(rng, p: int) -> list:
    """Scores drawn, tied in runs (so ties meet the cut), all equal, signed
    zeros, with ±inf, and with NaN: one, and all but one."""
    drawn = rng.normal(size=p)
    ties = np.round(rng.normal(size=p))
    zeros = np.where(rng.uniform(size=p) < 0.5, 0.0, -0.0)
    infs = drawn.copy()
    infs[::3] = np.inf
    infs[1::3] = -np.inf
    one_nan = drawn.copy()
    one_nan[0] = np.nan
    nans = np.full(p, np.nan)
    nans[-1] = 1.0
    return [drawn, ties, np.full(p, 2.5), zeros, infs, one_nan, nans]


def layer_cases(seed: int = 0) -> list:
    """Drawn cases of every layer at every ``SHAPES`` shape: the special
    values, layouts and posteriors above, stats of odd layout, and
    arguments each layer refuses."""
    rng = np.random.default_rng(seed)
    cases = []
    for p, m, k_a, k_b in SHAPES:
        d = BasisDictionary(b_b=rng.normal(size=(p, k_b)), b_a=rng.normal(size=(p, k_a)))
        cfg = _cfg(k_a)
        cfg = replace(cfg, m=m)
        posts = _posteriors(rng, k_a, cfg)
        z = np.sort(rng.choice(p, m, replace=False))
        x = 0.05 * rng.normal(size=m)
        stats = DecayedStats.empty(k_a)
        with mock.patch.object(inference, "_compiled", lambda: None):
            for _ in range(3):
                stats = inference.absorb_sample(stats, 0.05 * rng.normal(size=m), z, d, cfg)
        odd = [replace(stats, raw_M=np.asfortranarray(stats.raw_M), raw_u=stats.raw_u[::1]),
               replace(stats, raw_u=stats.raw_u.astype(np.float32))]
        for x_z in _specials(x) + _layouts(x)[1:]:
            cases += [("absorb", (stats, x_z, zs, d, cfg)) for zs in (z, z[::-1])]
            cases += [("stat", (x_z, z, post, d, cfg)) for post in posts]
        cases += [("absorb", (s, x, z, d, cfg)) for s in odd]
        for post in posts:
            cases.append(("draw", (post, cfg, _state(int(rng.integers(2**32))))))
            x1_hats = _specials(rng.normal(size=p)) + _layouts(rng.normal(size=p))[1:]
            cases += [("score", (x1_hat, post, d)) for x1_hat in x1_hats]
        for theta in _specials(rng.normal(size=k_a)) + _layouts(rng.normal(size=k_a))[1:]:
            cases.append(("synthesize", (theta, d, cfg, _state(int(rng.integers(2**32))))))
        for scores in _score_sets(rng, p) + _layouts(rng.normal(size=p))[1:]:
            cases += [("top", (scores, budget, _state(int(rng.integers(2**32)))))
                      for budget in sorted({1, m, p})]
        wider = _posteriors(rng, k_a + 1, cfg)[0]
        cases += [  # refused alike on both paths
            ("absorb", (stats, x[:-1], z[:-1], d, cfg)),
            ("absorb", (DecayedStats.empty(k_a + 1), x, z, d, cfg)),
            ("absorb", (stats, x, np.r_[z[:-1], p], d, cfg)),
            ("stat", (x, z, wider, d, cfg)),
            ("score", (np.zeros(p + 1), posts[0], d)),
            ("synthesize", (np.zeros(k_a + 1), d, cfg, _state(0))),
            ("top", (np.zeros(p), p + 1, _state(0))),
            ("top", (np.zeros(p), 0, _state(0))),
        ]
    return cases


def layer_digest() -> str:
    """Which path ran, and a digest of every drawn case's outcome on it, the
    oracle's included, with numpy's RuntimeWarnings raised, as this suite
    raises them."""
    import hashlib
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = [_outcome(case) for case in layer_cases()]
        outcomes += [_oracle_outcome(case) for case in oracle_cases()]
        digest = hashlib.sha256(repr(outcomes).encode())
    return ("compiled" if inference._compiled() else "numpy") + " " + digest.hexdigest()


def _captured_layers(run) -> list:
    """The cases of every step layer call ``run()`` makes, each Generator
    taken at its state before the call."""
    calls = []
    names = {
        (inference, "absorb_sample"): lambda stats, x_z, z, d, cfg: (
            "absorb", (stats, x_z.copy(), z.copy(), d, cfg)),
        (engine, "lambda_stat"): lambda inp, d, cfg: (
            "stat", (inp.x_z.copy(), inp.z.copy(), inp.post, d, cfg)),
        (engine, "draw_anomaly_sample"): lambda post, cfg, rng: (
            "draw", (post, cfg, rng.bit_generator.state)),
        (engine, "synthesize_anomaly_signal"): lambda theta, d, cfg, rng: (
            "synthesize", (theta.copy(), d, cfg, rng.bit_generator.state)),
        (engine, "score_variables"): lambda x1_hat, post, d: (
            "score", (x1_hat.copy(), post, d)),
        (engine, "select_top_m"): lambda scores, m, rng: (
            "top", (scores.copy(), m, rng.bit_generator.state)),
    }
    with ExitStack() as stack:
        for (owner, name), case in names.items():
            real = getattr(owner, name)

            def record(*args, _real=real, _case=case):
                calls.append(_case(*args))
                return _real(*args)

            stack.enter_context(mock.patch.object(owner, name, record))
        run()
    return calls


@pytest.fixture(scope="module")
def study_layers(default_config):
    """The layer calls of a delay cell of the study's model (p = 15, unit-norm
    splines, m = 5), whose replications step one at a time."""
    d = BasisDictionary(
        b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14, normalize_columns=True)
    )
    scenario = Scenario(dictionary=d, cfg=default_config, tau=20, change=((0, 1.0),), horizon=60,
                        random_change_basis=True)
    return _captured_layers(lambda: engine.evaluate(default_config, d, 20.0, scenario, 3, 7))


@pytest.fixture(scope="module")
def kron_layers(kron_dictionary):
    """The layer calls of 30 steps of a p = 400 stream (m = 20), a change on
    one anomaly column from step 10."""
    cfg = ModelConfig.homogeneous(k_a=36, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7,
                                  decay=0.1, m=20)
    scenario = Scenario(dictionary=kron_dictionary, cfg=cfg, tau=10, change=((5, 1.0),), horizon=30)
    stream = gen_stream(scenario, np.random.default_rng(3))

    def run():
        state = engine.init(cfg, kron_dictionary, h=math.inf, seed=3)
        for x in stream:
            engine.step(state, x)

    return _captured_layers(run)


class TestStepLayers:
    def test_drawn_cases_are_equal(self):
        """Every layer at every degenerate shape, with NaN and ±inf inputs,
        ties at the cut, both clamps, variances under the floor, inputs of
        any layout and the refusals; the cases reach each branch."""
        cases, log = layer_cases(), []
        outcomes = [run_layer_both(case, log) for case in cases]
        assert [case for case, (c, n) in zip(cases, outcomes) if c != n] == []
        raised = {case[0] for case, (c, _) in zip(cases, outcomes) if c[0] == "raised"}
        assert raised == set(LAYERS) - {"draw"}
        # every entry ran; inf inputs raised exceptions that sent these to numpy
        assert {name for name, ran in log if ran} == set(ENTRIES)
        assert {name for name, ran in log if not ran} >= {"absorb", "statistic", "score"}
        # the cut reached by exactly m scores, by more (a tie) and by fewer (NaN)
        counts = set()
        for scores, m, _ in (args for layer, args in cases if layer == "top"):
            if 1 <= m <= np.size(scores):
                scores = np.ravel(scores).astype(np.float64)
                counts.add(np.sign(inference._compiled().top(scores, np.empty(m, np.intp)) - m))
        assert counts == {-1, 0, 1}

    @pytest.mark.parametrize("captured", ["study_layers", "kron_layers"])
    def test_captured_calls_are_equal_and_each_runs_its_entry(self, captured, request):
        """From a study cell (p = 15) and a p = 400 stream: no call of a
        monitoring run declines its entry."""
        cases, log = request.getfixturevalue(captured), []
        assert {case[0] for case in cases} == set(LAYERS)
        for case in cases:
            compiled, numpy = run_layer_both(case, log)
            assert compiled == numpy
        assert set(log) == {(name, True) for name in ENTRIES}

    def test_cases_are_equal_in_a_forked_pool(self, study_layers, kron_layers):
        """Workers fork from this process, which holds the loaded module."""
        cases = layer_cases(1)[::3] + study_layers[::10] + kron_layers[::10]
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            for compiled, numpy in pool.map(run_layer_both, cases, chunksize=16):
                assert compiled == numpy

    def test_without_a_compiler_the_numpy_bodies_give_the_same_bytes(self, tmp_path):
        """A subprocess with no compiler on ``PATH`` and a fresh cache runs
        the numpy bodies; its digest of the drawn cases is this process's
        on the entries."""
        bare = tmp_path / "bin"
        bare.mkdir()
        env = _env(tmp_path / "cache", str(bare))
        env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(TESTS)))
        code = "import test_compiled_kernel as t; print(t.layer_digest())"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        fallback = done.stdout.split()
        assert fallback[0] == "numpy" and _cached(tmp_path / "cache") == []
        assert layer_digest().split() == ["compiled", fallback[1]]

    def test_entries_decline_what_they_do_not_mirror(self):
        """An argument of another size, dtype or layout gets NotImplemented,
        before anything is written; a wrong argument count, TypeError."""
        module = inference._compiled()
        x, b_a, z = np.ones(3), np.ones((6, 4)), np.arange(3)
        scores, out = np.arange(6.0), np.full(6, -1.0)
        draws = [np.full(4, 0.5), np.ones(4), np.full(4, 0.5), np.zeros(4), np.ones(4)]
        entries = {
            "absorb": [x, z, b_a, np.ones((3, 2)), np.ones(2), np.ones((4, 4)), np.ones((4, 4)),
                       np.ones(4), 0.9, np.empty((4, 4)), np.empty(4)],
            "statistic": [x, z, b_a, np.ones(4), np.ones((3, 2)), np.ones(4), np.ones(4)],
            "draw": [*draws, 1e-7],
            "synthesize": [b_a, np.ones(4), np.ones(6), 0.05],
            "score": [np.ones(6), b_a, b_a, np.ones(4), np.ones(4), out],
            "top": [scores, np.empty(2, dtype=np.intp)],
        }
        for name, args in entries.items():
            entry = getattr(module, name)
            for i, arg in enumerate(args):
                if not isinstance(arg, np.ndarray):
                    continue
                bads = [arg.astype(np.float32 if arg.dtype == np.float64 else np.int32),
                        np.stack([arg, arg], axis=-1)[..., 0]]
                if arg.ndim == 2:
                    bads.append(np.asfortranarray(arg))
                if name != "top":  # which takes any p and m it can cut
                    bads.append(arg[..., :-1])
                for bad in bads:
                    before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
                    assert entry(*args[:i], bad, *args[i + 1:]) is NotImplemented, (name, i)
                    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(args, before)
                               if isinstance(a, np.ndarray))
            assert entry(*args) is not NotImplemented, name
            with pytest.raises(TypeError, match="arguments"):
                entry(*args[:-1])
        assert module.absorb(x, np.array([0, 1, 6]), *entries["absorb"][2:]) is NotImplemented
        assert module.top(scores, np.empty(7, dtype=np.intp)) is NotImplemented


# ── The oracle's entry ────────────────────────────────────────────────────
#
# ``OracleScorer.subset_scores`` and ``select`` run the extension's
# ``oracle`` entry when ``_compiled`` returns the module and the numpy body
# when it returns None.  A case is (scorer, x1_hat, posterior, Generator
# state), picklable, so it replays in a pool worker.


def _oracle_outcome(case):
    """The case's subset scores, then its plan and the Generator state
    ``select`` leaves, as comparable values; or the error either raised."""
    scorer, x1_hat, post, state = case
    rng = _rng(state)
    try:
        scores = scorer.subset_scores(x1_hat, post)
        plan = scorer.select(x1_hat, post, rng)
        return _described((scores, plan)), repr(rng.bit_generator.state)
    except Exception as exc:  # both paths must raise alike
        return ("raised", type(exc).__name__, str(exc))


def run_oracle_both(case, log=None) -> list:
    """(compiled, numpy): the case's outcome on either path; the entry calls
    go into ``log`` where one is given."""
    results = []
    for module in (_Logged(inference._compiled(), [] if log is None else log), None):
        with mock.patch.object(inference, "_compiled", lambda: module):
            results.append(_oracle_outcome(case))
    return results


def oracle_cases(seed: int = 0) -> list:
    """Drawn cases at p = 6 and 15, m = 1, a middle m and m = p (one
    subset), k_b = 0 (no ``bases``) and 3: drawn posteriors and the prior,
    whose zero mean ties every subset; x1_hat drawn, zero, with a NaN, ±inf
    or a value whose score overflows, Fortran-ordered, strided and float32;
    and a dictionary with two equal rows, where some subsets tie at the top."""
    rng = np.random.default_rng(seed)
    cases = []
    for p, k_b in ((6, 0), (6, 3), (15, 0), (15, 3)):
        d = BasisDictionary(b_b=rng.normal(size=(p, k_b)), b_a=rng.normal(size=(p, 4)))
        posts = _posteriors(rng, 4, _cfg(4))[:3]
        for m in (1, p // 3, p):
            scorer = sampling.OracleScorer(d, m)
            for post in posts:
                huge = rng.normal(size=p)
                huge[1] = 1e308
                x1_hats = _specials(rng.normal(size=p)) + _layouts(rng.normal(size=p))[1:]
                cases += [(scorer, x1_hat, post, _state(int(rng.integers(2**32))))
                          for x1_hat in x1_hats + [huge]]
    for k_b in (0, 3):  # rows 0 and 1 alike, and best: subsets that swap them tie
        b_b, b_a = rng.normal(size=(6, k_b)), rng.normal(size=(6, 4))
        b_b[1], b_a[1] = b_b[0], b_a[0]
        d, post = BasisDictionary(b_b=b_b, b_a=b_a), _posteriors(rng, 4, _cfg(4))[0]
        x1_hat = np.zeros(6)
        x1_hat[:2] = 100.0 * np.sign(d.b_a[0] @ post.mu_tilde)
        cases += [(sampling.OracleScorer(d, m), x1_hat, post, _state(int(rng.integers(2**32))))
                  for m in (1, 3)]
    return cases


@pytest.fixture(scope="module")
def oracle_round():
    """Every ``select`` call of one ``oracle-pool-p15`` benchmark round, run
    in this process: its lockstep null rows and its delay cells' steps."""
    sys.path.insert(0, str(SRC.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(SRC.parent / "bench"))
    spec = workloads.WORKLOADS["oracle-pool-p15"]
    d = spec.dictionary()
    cfg = workloads.model_config(d, spec.m)
    calls = []
    real = sampling.OracleScorer.select

    def record(self, x1_hat, post, rng):
        calls.append((self, np.array(x1_hat), post, rng.bit_generator.state))
        return real(self, x1_hat, post, rng)

    with mock.patch.object(sampling.OracleScorer, "select", record):
        workloads.run_study_round(
            spec, d, cfg, workloads.round_seeds(1, 0, 1 + len(spec.cells)), workers=1
        )
    return calls


class TestOracle:
    def test_drawn_cases_are_equal(self):
        """Scores, plans, Generator states and errors; the entry runs on the
        drawn, tied and NaN cases and declines where a score overflows."""
        cases, log = oracle_cases(), []
        outcomes = [run_oracle_both(case, log) for case in cases]
        assert [case for case, (c, n) in zip(cases, outcomes) if c != n] == []
        raised = {c[1:] for c, _ in outcomes if c[0] == "raised"}
        assert {kind for kind, _ in raised} == {"NumericalError", "RuntimeWarning"}
        assert {ran for _, ran in log} == {True, False}
        # a unique maximum, every subset tied, and a NaN score
        module, counts = inference._compiled(), set()
        for scorer, x1_hat, post, _ in cases:
            d, scores = scorer.dictionary, np.empty(len(scorer.subsets))
            signal = np.ravel(x1_hat).astype(np.float64)
            with np.errstate(all="ignore"):
                found = module.oracle(signal, d.b_a, d.b_a_sq, post.mu_tilde, post.spread,
                                      scorer.incidence, scorer.bases, scores)
            if found is not NotImplemented:
                counts.add(min(found[1], 2) if found[1] < len(scores) else "all")
        assert counts == {0, 1, 2, "all"}

    def test_every_select_of_a_benchmark_round_is_equal_and_runs_the_entry(self, oracle_round):
        cases, log = oracle_round, []
        assert len(cases) > 10_000
        for case in cases:
            compiled, numpy = run_oracle_both(case, log)
            assert compiled == numpy
        assert set(log) == {("oracle", True)}

    def test_cases_are_equal_in_a_forked_pool(self, oracle_round):
        """Workers fork from this process, which holds the loaded module."""
        cases = oracle_cases(1)[::3] + oracle_round[::200]
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            for compiled, numpy in pool.map(run_oracle_both, cases, chunksize=16):
                assert compiled == numpy

    def test_scores_are_a_new_array_each_call(self, default_dictionary):
        scorer = sampling.OracleScorer(default_dictionary, 5)
        rng = np.random.default_rng(5)
        post = SpikeSlabPosterior(mu_a=rng.normal(size=10), s2=np.ones(10), alpha=np.full(10, 0.5))
        first = scorer.subset_scores(rng.normal(size=15), post)
        kept = first.copy()
        second = scorer.subset_scores(rng.normal(size=15), post)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() != second.tobytes()

    def test_selecting_leaves_a_pickled_engine_state_as_it_was(
        self, default_dictionary, default_config
    ):
        """The entry keeps no scratch on the scorer, which a pickled
        ``EngineState`` carries."""
        state = engine.init(default_config, default_dictionary, h=math.inf, seed=2,
                            sampler="oracle")
        before = pickle.dumps(state.scorer)
        for x in np.random.default_rng(6).normal(scale=0.05, size=(5, 15)):
            engine.step(state, x)
        assert pickle.dumps(state.scorer) == before
        assert len(pickle.dumps(state)) < len(before) + 4096

    def test_the_entry_declines_what_it_does_not_mirror(self):
        """An argument of another size, dtype or layout, p = 1 and a
        one-column ``bases`` get NotImplemented before anything is written;
        a wrong argument count, TypeError."""
        module = inference._compiled()
        d = BasisDictionary(b_b=fourier_basis(6, 2), b_a=np.ones((6, 4)))
        scorer = sampling.OracleScorer(d, 3)
        out = np.full(20, -1.0)
        args = [np.ones(6), d.b_a, d.b_a_sq, np.ones(4), np.ones(4), scorer.incidence,
                scorer.bases, out]
        for i, arg in enumerate(args):
            bads = [arg.astype(np.float32), np.stack([arg, arg], axis=-1)[..., 0], arg[..., :-1]]
            if arg.ndim == 2:
                bads.append(np.asfortranarray(arg))
            for bad in bads:
                assert module.oracle(*args[:i], bad, *args[i + 1:]) is NotImplemented, i
                assert (out == -1.0).all()
        one = sampling.OracleScorer(BasisDictionary(b_b=np.ones((1, 1)), b_a=np.ones((1, 1))), 1)
        assert module.oracle(np.ones(1), np.ones((1, 1)), np.ones((1, 1)), np.ones(1), np.ones(1),
                             one.incidence, one.bases, np.empty(1)) is NotImplemented
        column = np.ones((6, 1))
        assert module.oracle(*args[:5], column, column, np.empty(1)) is NotImplemented
        first, ties = module.oracle(*args)
        assert (first, ties) == (out.argmax(), 1 + (out[first + 1:] == out[first]).sum())
        with pytest.raises(TypeError, match="arguments"):
            module.oracle(*args[:-1])


def test_the_c_source_ships_as_package_data():
    """Read through ``importlib.resources`` as the builder reads it, and
    declared in ``pyproject.toml`` so an installed package carries it."""
    tomllib = pytest.importorskip("tomllib")
    source = resources.files("sparsewatch").joinpath("_sweep.c").read_text(encoding="utf-8")
    assert "PyInit__sweep" in source
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["sparsewatch"]
    assert declared == ["_sweep.c"]
