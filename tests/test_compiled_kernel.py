"""The compiled sweep kernel against the generated one, bit for bit, and how
it is built, cached, loaded and replaced by the generated fallback.

``inference._sweeps`` runs a batch of fits through the compiled kernel when
``inference._compiled`` returns it, and through the generated kernel for
k_a otherwise; patching ``_compiled`` to return None forces the fallback in
this process.  The build and cache tests run subprocesses whose
``XDG_CACHE_HOME`` is a fresh temporary directory, and take away the
compiler by giving them a ``PATH`` with nothing on it.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import sysconfig
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sparsewatch import DecayedStats, ModelConfig, SpikeSlabPosterior, engine, inference
from sparsewatch.inference import ALPHA_CLAMP

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
        sweep, cfg = inference._compiled(), _cfg(3)
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


# One process's fits and lockstep null run: prints the kernel that ran and
# a digest of every output.
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
        sweep = inference._compiled.__wrapped__()
        assert sweep is not None and sweep is not inference._compiled()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        with mock.patch.object(inference, "_compiled", lambda: sweep):
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


def test_the_c_source_ships_as_package_data():
    """Read through ``importlib.resources`` as the builder reads it, and
    declared in ``pyproject.toml`` so an installed package carries it."""
    tomllib = pytest.importorskip("tomllib")
    source = resources.files("sparsewatch").joinpath("_sweep.c").read_text(encoding="utf-8")
    assert "PyInit__sweep" in source
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["sparsewatch"]
    assert declared == ["_sweep.c"]
