#!/usr/bin/env python3
"""List the library functions that no program of a build links.

    python3 tools/unused_symbols.py BUILD_DIR

Reads every `BUILD_DIR/src/*/lib*.a` and every executable under BUILD_DIR
(tests, benches, examples) with `nm`, and prints each `pia::` function that
a library defines strong (`T`) but that survives in no executable.  The
answer is only meaningful on a build that lets the linker drop what nothing
reaches and that inlines nothing away:

    cmake -B build-gc -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -g0 -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake --build build-gc -j "$(nproc)"
    python3 tools/unused_symbols.py build-gc

A function listed here has no caller in any program: delete it, or give it
one.  Exits 0 when the list is empty, 1 when it is not, and 2 when the build
directory holds no library or no executable.
"""

import glob
import os
import subprocess
import sys


def nm(path, *flags):
    """Mangled symbol lines `ADDR TYPE NAME` that `path` defines."""
    result = subprocess.run(["nm", "--defined-only", *flags, path],
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


def library_functions(lib):
    """Mangled names of the strong text symbols an archive defines."""
    names = set()
    for line in nm(lib):
        parts = line.split()
        if len(parts) == 3 and parts[1] == "T":
            names.add(parts[2])
    return names


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(build_dir):
    for root, dirs, files in os.walk(build_dir):
        dirs[:] = [d for d in dirs if d != "CMakeFiles"]
        for name in files:
            path = os.path.join(root, name)
            if is_elf_executable(path):
                yield path


def demangle(names):
    result = subprocess.run(["c++filt"], input="\n".join(names),
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


def main(argv):
    if len(argv) != 2:
        print("usage: unused_symbols.py BUILD_DIR", file=sys.stderr)
        return 2
    build_dir = argv[1]
    libs = sorted(glob.glob(os.path.join(build_dir, "src", "*", "lib*.a")))
    programs = sorted(executables(build_dir))
    if not libs or not programs:
        print(f"unused_symbols: no libraries or no executables in {build_dir}",
              file=sys.stderr)
        return 2

    linked = set()
    for program in programs:
        linked.update(line.split()[-1] for line in nm(program))

    unused = {}  # demangled name -> library
    for lib in libs:
        dead = sorted(library_functions(lib) - linked)
        for name in demangle(dead) if dead else []:
            # A constructor or destructor has several mangled variants that
            # demangle alike; list it once.
            if name.startswith("pia::"):
                unused[name] = os.path.basename(lib)

    for name in sorted(unused):
        print(f"{unused[name]}: {name}")
    print(f"unused_symbols: {len(unused)} function(s) in no executable of "
          f"{len(programs)}", file=sys.stderr)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
