"""Build script for the optional compiled alignment kernel.

The package works without the extension (the pure-Python kernel is selected
at import time), so ``optional=True`` turns a failed compile into a warning
and a working pure-Python install.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("gec_editkit._levenshtein_c", ["src/gec_editkit/_levenshtein.c"], optional=True)])
