from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

# The compiled kernels are optional: the package falls back to the pure
# Python implementation in reciprocity._kernels.pure when the build fails.
# Without Cython, the shipped generated C file is compiled instead.
extensions = [
    Extension(
        "reciprocity._kernels._core",
        ["src/reciprocity/_kernels/_core.pyx" if cythonize else "src/reciprocity/_kernels/_core.c"],
        optional=True,
    )
]

setup(
    ext_modules=cythonize(
        extensions,
        compiler_directives={
            "language_level": "3",
            "cdivision": True,
            "boundscheck": False,
            "wraparound": False,
        },
    )
    if cythonize
    else extensions,
)
