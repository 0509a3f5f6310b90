from setuptools import Extension, setup

# The compiled kernels are the hand-written C file _core.c.  They are
# optional: when the build fails (no compiler), the package falls back to
# the pure Python kernels in reciprocity._kernels.pure.
setup(
    ext_modules=[
        Extension("reciprocity._kernels._core", ["src/reciprocity/_kernels/_core.c"], optional=True),
    ],
)
