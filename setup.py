"""Build script: compiles the optional Howell kernel extension.

With Cython installed the kernel is cythonized from ``_howell.pyx``;
without it the shipped ``_howell.c``, which a plain C compiler builds, is
compiled instead.  The package works without the extension (a
pure-Python kernel is used as fallback), so a failed compile only costs
speed.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: skipping the kernel extension build ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: failed to build {ext.name} ({exc}); "
                  "falling back to the pure-Python kernel")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return [Extension("ringscope._howell", ["src/ringscope/_howell.c"])]
    return cythonize(
        ["src/ringscope/_howell.pyx"],
        compiler_directives={"language_level": "3"},
    )


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
