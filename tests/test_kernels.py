"""The compiled and pure-Python Howell kernels must agree bit for bit."""

import importlib
import importlib.util
import itertools
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from ringscope import _backend
from ringscope._howell_py import _howell_f2, _howell_general
from ringscope._howell_py import howell_mod as howell_py


def _brute_span(rows, ncols, n):
    """Every element of the row span, by closure (small cases only)."""
    seen = {tuple([0] * ncols)}
    frontier = list(seen)
    rows = [tuple(x % n for x in r) for r in rows]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % n for a, b in zip(v, r))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_backend_exposes_kernel():
    assert _backend.BACKEND in ("cython", "python")
    assert callable(_backend.howell_mod)


def test_kernels_agree_exhaustive_small():
    for n in (2, 3, 4, 6):
        vecs = list(itertools.product(range(n), repeat=2))
        for r1 in vecs:
            for r2 in vecs:
                a = howell_py([list(r1), list(r2)], 2, n)
                b = _backend.howell_mod([list(r1), list(r2)], 2, n)
                assert [tuple(r) for r in a] == [tuple(r) for r in b]


def test_kernels_agree_random():
    rng = random.Random(20260826)
    for _ in range(300):
        n = rng.choice([2, 4, 8, 12, 16, 36, 60, 256])
        rows = rng.randrange(0, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(n) for _ in range(cols)] for _ in range(rows)]
        a = howell_py([list(r) for r in m], cols, n)
        b = _backend.howell_mod([list(r) for r in m], cols, n)
        assert [tuple(r) for r in a] == [tuple(r) for r in b]


def test_f2_path_matches_general_elimination_exhaustive():
    """Every F_2 matrix of 0-3 rows and 1-3 columns."""
    for ncols in (1, 2, 3):
        vecs = list(itertools.product(range(2), repeat=ncols))
        for nrows in range(4):
            for m in itertools.product(vecs, repeat=nrows):
                assert (_howell_f2(m, ncols)
                        == _howell_general(m, ncols, 2)), m


def test_f2_path_matches_general_elimination_random():
    """Up to 8 x 10, with negative entries and entries above 1."""
    rng = random.Random(20261019)
    for _ in range(2000):
        nrows, ncols = rng.randrange(0, 9), rng.randrange(1, 11)
        m = [[rng.randrange(-5, 6) for _ in range(ncols)]
             for _ in range(nrows)]
        assert howell_py(m, ncols, 2) == _howell_general(m, ncols, 2), m


def test_howell_is_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([4, 8, 9, 12, 30])
        m = [[rng.randrange(n) for _ in range(3)] for _ in range(3)]
        h = [list(r) for r in howell_py(m, 3, n)]
        h2 = howell_py([list(r) for r in h], 3, n)
        assert [tuple(r) for r in h2] == [tuple(r) for r in h]


def test_howell_canonicalizes_span():
    # generator order must not matter
    rng = random.Random(99)
    for _ in range(100):
        n = rng.choice([4, 6, 8, 12])
        m = [[rng.randrange(n) for _ in range(3)] for _ in range(3)]
        shuf = [list(r) for r in m]
        rng.shuffle(shuf)
        a = howell_py([list(r) for r in m], 3, n)
        b = howell_py(shuf, 3, n)
        assert [tuple(r) for r in a] == [tuple(r) for r in b]


def test_howell_span_matches_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice([2, 4, 6])
        m = [[rng.randrange(n) for _ in range(2)] for _ in range(2)]
        h = howell_py([list(r) for r in m], 2, n)
        assert _brute_span([list(r) for r in h], 2, n) == _brute_span(m, 2, n)


def test_howell_property_leading_span():
    # any span element with zero first entry lies in the span of the
    # trailing rows -- the defining extra condition beyond echelon form
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([4, 8, 12])
        m = [[rng.randrange(n) for _ in range(3)] for _ in range(2)]
        h = [list(r) for r in howell_py(m, 3, n)]
        full = _brute_span(m, 3, n)
        tail = [r for r in h if r[0] % n == 0]
        tail_span = _brute_span(tail, 3, n) if tail else {(0, 0, 0)}
        for v in full:
            if v[0] == 0:
                assert v in tail_span


def test_forced_python_backend(monkeypatch):
    monkeypatch.setenv("RINGSCOPE_BACKEND", "py")
    mod = importlib.reload(_backend)
    try:
        assert mod.BACKEND == "python"
    finally:
        monkeypatch.delenv("RINGSCOPE_BACKEND")
        importlib.reload(_backend)


_COMPILED = importlib.util.find_spec("ringscope._howell") is not None
_CYTHON = "cython" if _COMPILED else None  # None: import must fail


@pytest.mark.parametrize("value, expected", [
    ("python", "python"), ("PYTHON", "python"),
    ("c", _CYTHON), ("cython", _CYTHON),
    ("", _CYTHON or "python"),
    ("bogus", None),
])
def test_backend_variable(monkeypatch, value, expected):
    """Both spellings select a kernel; empty is automatic; requiring an
    absent compiled kernel or naming an unknown one fails at import."""
    monkeypatch.setenv("RINGSCOPE_BACKEND", value)
    try:
        if expected is None:
            with pytest.raises(ImportError, match="RINGSCOPE_BACKEND"):
                importlib.reload(_backend)
        else:
            assert importlib.reload(_backend).BACKEND == expected
    finally:
        monkeypatch.delenv("RINGSCOPE_BACKEND")
        importlib.reload(_backend)


def _build_shipped_kernel(tmp_path):
    """The shipped _howell.c built with gcc into tmp_path and loaded; skips
    when gcc or Python.h is missing."""
    gcc = shutil.which("gcc")
    include = Path(sysconfig.get_paths()["include"])
    if gcc is None or not (include / "Python.h").exists():
        pytest.skip("building the C kernel needs gcc and Python.h")
    source = Path(_backend.__file__).with_name("_howell.c")
    target = tmp_path / ("_howell" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([gcc, "-shared", "-fPIC", "-O1", "-w", f"-I{include}",
                    str(source), "-o", str(target)], check=True)
    spec = importlib.util.spec_from_file_location("ringscope._howell", target)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_compiled_kernel_agrees_on_every_modulus(tmp_path, monkeypatch):
    """The compiled kernel agrees with the Python one below its modulus
    limit, at n = 2 with the Python kernel's F_2 path too; under the
    cython backend, larger moduli reach the Python kernel, so the
    backend's kernel agrees at 2^33 and 2^62 too."""
    compiled = _build_shipped_kernel(tmp_path)
    rng = random.Random(20261018)

    def agree(kernel, n):
        for _ in range(50):
            m = [[rng.randrange(n) for _ in range(4)] for _ in range(4)]
            assert ([tuple(r) for r in kernel([list(r) for r in m], 4, n)]
                    == [tuple(r) for r in howell_py(m, 4, n)]), (n, m)

    for n in (2, 6, 1 << 16, _backend.COMPILED_MODULUS_LIMIT - 1):
        agree(compiled.howell_mod, n)
    monkeypatch.setitem(sys.modules, "ringscope._howell", compiled)
    monkeypatch.setenv("RINGSCOPE_BACKEND", "cython")
    try:
        backend = importlib.reload(_backend)
        assert backend.BACKEND == "cython"
        for n in (1 << 16, 1 << 33, 1 << 62):
            agree(backend.howell_mod, n)
    finally:
        monkeypatch.undo()
        importlib.reload(_backend)
