import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.linalg.blas import zherk

from onebitphase import blas, recovery
from onebitphase.blas import TridiagonalTopPair, UpperCholesky, rank_k_update
from onebitphase.sensing import MatrixOperator


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRankKUpdate:
    @pytest.mark.parametrize("kind", ["complex", "strided", "real"])
    def test_accumulates_the_bits_of_scipy_zherk(self, kind):
        rng = np.random.default_rng(1)
        rows = {"complex": _complex(rng, 40, 7), "strided": _complex(rng, 80, 7)[::2],
                "real": rng.standard_normal((40, 7))}[kind]
        c = rank_k_update(0.25, rows.T)
        expected = zherk(0.25, rows.T)
        assert c.tobytes() == expected.tobytes()
        # a second update in place, as the dense surrogate adds its chunks
        out = rank_k_update(-0.5, rows[:9].T, beta=1.0, c=c)
        assert out is c
        assert c.tobytes() == zherk(-0.5, rows[:9].T, beta=1.0, c=expected).tobytes()

    def test_rejects_a_c_it_cannot_update_in_place(self):
        a = np.ones((3, 5), dtype=complex)
        for c in (np.zeros((3, 3), dtype=complex), np.zeros((3, 3), order="F"),
                  np.zeros((4, 4), dtype=complex, order="F")):
            with pytest.raises(ValueError, match="Fortran-ordered complex128"):
                rank_k_update(1.0, a, beta=1.0, c=c)


class TestUpperCholesky:
    def test_factor_is_the_bits_of_cho_factor(self):
        g = rank_k_update(1.0, _complex(np.random.default_rng(2), 30, 6).T)
        u, _ = cho_factor(g, lower=False)
        assert UpperCholesky(g).u.tobytes() == u.tobytes()

    def test_failures(self):
        indefinite = np.asfortranarray(np.diag([1.0, -1.0, 2.0]).astype(complex))
        with pytest.raises(np.linalg.LinAlgError, match="potrf .* info=2"):
            UpperCholesky(indefinite)
        with pytest.raises(ValueError, match="finite"):
            UpperCholesky(np.asfortranarray(np.diag([1.0, np.inf]).astype(complex)))
        with pytest.raises(ValueError, match="Fortran-ordered"):
            UpperCholesky(np.eye(3, dtype=complex) + np.triu(np.ones((3, 3)), 1))

    def test_solve_rows_rejects_rows_it_cannot_solve_in_place(self):
        factor = UpperCholesky(np.asfortranarray(np.eye(4, dtype=complex)))
        for x in (np.ones(4), np.ones((4, 2), dtype=complex).T, np.ones(5, dtype=complex)):
            with pytest.raises(ValueError, match="C-ordered complex128"):
                factor.solve_rows(x)
        empty = np.empty((0, 4), dtype=complex)
        factor.solve_rows(empty)


class TestTridiagonalTopPair:
    def test_buffers_and_steps_are_checked(self):
        with pytest.raises(ValueError, match="e must be"):
            TridiagonalTopPair(np.zeros(5), np.zeros(3))
        with pytest.raises(ValueError, match="d must be"):
            TridiagonalTopPair(np.zeros(5, dtype=np.float32), np.zeros(5))
        top_pair = TridiagonalTopPair(np.arange(1.0, 4.0), np.zeros(2))
        with pytest.raises(ValueError, match="outside 1..3"):
            top_pair(4)
        theta, s = top_pair(3)
        assert theta == 3.0 and abs(s[2]) == 1.0


def test_a_library_without_the_symbols_raises_import_error(monkeypatch):
    monkeypatch.setattr(blas, "_SPELLINGS", (("nosuch_{}_", np.int32),))
    with pytest.raises(ImportError, match="nosuch_zherk_, nosuch_zpotrf_, .* nosuch_dstein_"):
        blas._resolve()


def test_thread_count_reads_the_library_setting():
    # in a fresh interpreter, since the library reads the variable at start-up
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "from onebitphase import blas; print(blas.thread_count())"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]


def test_an_unknown_thread_count_keeps_the_stages_serial(monkeypatch):
    monkeypatch.setattr(blas, "_THREAD_COUNT_SYMBOLS", ("nosuch_get_num_threads",))
    assert blas.thread_count() is None
    assert not recovery._spare_core()
    op = MatrixOperator(np.eye(4, dtype=complex))
    before = threading.enumerate()
    with recovery.factor_ahead([(op, np.ones(4))]) as stages:
        assert threading.enumerate() == before
        assert [stage_op for stage_op, _ in stages] == [op]
