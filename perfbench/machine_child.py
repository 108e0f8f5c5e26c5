"""Print, as JSON, the numerical stack a `tsvf-sim` child process loads."""

import ctypes
import glob
import json
import os
import platform

import numpy

info = {"python": platform.python_version(), "numpy": numpy.__version__}
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
info["blas"] = f"{blas.get('name')} {blas.get('version')}"
# numpy wheels bundle OpenBLAS; ask it for its runtime configuration and
# thread count. Other BLAS builds are reported by name only.
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_get_", "openblas_get_"):
        for suffix in ("64_", ""):
            config = getattr(lib, f"{prefix}config{suffix}", None)
            threads = getattr(lib, f"{prefix}num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, config.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                info["openblas_config"] = config().decode()
                info["blas_threads"] = threads()
print(json.dumps(info))
