"""The compiled kernel under AddressSanitizer and UBSan.

The same ``native.SOURCE``, built with the sanitizer flags appended to
``native.COMPILE_ARGS``.  ``native.module_name()`` hashes those flags,
so the sanitized module has its own name and never loads in place of
the real one.  The flags only compile: the runtimes must be preloaded
into the interpreter that loads the module.

Build it into the kernel cache, then run tests with it as a pytest
plugin, or replay corpus files::

    export XDG_CACHE_HOME=/tmp/asan-cache
    python tests/sanitized_kernel.py build
    export LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
        $(gcc -print-file-name=libubsan.so)" ASAN_OPTIONS=detect_leaks=0
    python -m pytest -p tests.sanitized_kernel tests/crn/test_native_ode.py
    python tests/sanitized_kernel.py replay tests/conformance/corpus/*.crn

A sanitizer finding aborts the process (``-fno-sanitize-recover``), and
a kernel that fails to load fails the run instead of falling back.
"""

from __future__ import annotations

import sys
import warnings

from repro.crn import native

#: Appended to ``native.COMPILE_ARGS``.
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-g")


def install() -> None:
    """Point every later kernel load at the sanitized build."""
    if native.COMPILE_ARGS[-len(SANITIZE):] != SANITIZE:
        native.COMPILE_ARGS = native.COMPILE_ARGS + SANITIZE


def build() -> str:
    """Compile the sanitized module into the cache (without loading it:
    that needs the runtimes preloaded); returns its path."""
    install()
    name = native.module_name()
    path = native.cache_dir() / (name + native._ext_suffix())
    if not path.is_file():
        native._build(name, path)
    return str(path)


def load():
    """The sanitized module; any fallback is an error."""
    install()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        module = native.load()
    assert module.__name__ == native.module_name(), module.__name__
    return module


def pytest_configure(config) -> None:
    load()


def main(argv: list[str]) -> int:
    if argv[:1] == ["build"]:
        print(build())
        return 0
    if argv[:1] == ["replay"] and argv[1:]:
        from repro.cli import main as cli

        load()
        return max(cli(["conformance", "--replay", path])
                   for path in argv[1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
