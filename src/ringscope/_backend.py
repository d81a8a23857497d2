"""Kernel backend selection.

RINGSCOPE_BACKEND picks the Howell kernel: ``python`` (or ``py``) forces
the pure-Python kernel, ``cython`` (or ``c``) requires the compiled one,
and unset or empty uses the compiled kernel when it is built.  Requiring
the compiled kernel when it is not built, or any other value, fails at
import.

The compiled kernel works in signed 64-bit integers, where a sum of two
products of residues is exact only below COMPILED_MODULUS_LIMIT; larger
moduli go to the Python kernel, so both kernels answer every modulus.
"""

import os

from ._howell_py import howell_mod as howell_mod_py

COMPILED_MODULUS_LIMIT = 1 << 31


def _routed(compiled):
    """The compiled kernel below COMPILED_MODULUS_LIMIT, the Python one
    from there on."""
    def howell_mod(rows, ncols, n):
        if n >= COMPILED_MODULUS_LIMIT:
            return howell_mod_py(rows, ncols, n)
        return compiled(rows, ncols, n)
    return howell_mod


_SPELLINGS = {"": "auto", "python": "python", "py": "python",
              "cython": "cython", "c": "cython"}

_value = os.environ.get("RINGSCOPE_BACKEND", "").strip().lower()
if _value not in _SPELLINGS:
    raise ImportError(f"RINGSCOPE_BACKEND={_value!r}: expected python, py, "
                      "cython, c or empty")
_choice = _SPELLINGS[_value]

if _choice == "python":
    howell_mod = howell_mod_py
    BACKEND = "python"
else:
    try:
        from ._howell import howell_mod as _howell_mod_c
        howell_mod = _routed(_howell_mod_c)
        BACKEND = "cython"
    except ImportError as exc:
        if _choice == "cython":
            raise ImportError(f"RINGSCOPE_BACKEND={_value}: the compiled "
                              "kernel is not built") from exc
        howell_mod = howell_mod_py
        BACKEND = "python"
