#!/usr/bin/env python3
"""Link-time reachability check: src/ holds what the system binaries run.

Build the root project (tests off) and perfbench/ with function sections
and section garbage collection, so that a system binary (every program
the builds leave in tools/, bench/, examples/ and the perfbench tree)
keeps only the library functions it can reach:

    FLAGS="-O0 -g0 -ffunction-sections -fdata-sections"
    cmake -S . -B scan -DCMAKE_BUILD_TYPE=Debug -DYOUTIAO_BUILD_TESTS=OFF \\
        -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build scan
    cmake -S perfbench -B scan-perf -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build scan-perf --target youtiao_perfbench
    python3 tools/reachability.py scan scan-perf tests/test_seams.txt

The library set is every strong (nm type T) youtiao:: function in the
module archives; the reachable set is every symbol defined in the system
binaries. A library function that is in no binary must be named in the
seams file, and every name in the seams file must be such a function.
Seams match by qualified name, so one entry covers all overloads.
Exits 1 on any violation. A header-inline function that no translation
unit uses is in no archive, so this check cannot see it.
"""

import glob
import os
import re
import subprocess
import sys


def executables(directory):
    """The built programs directly inside @p directory."""
    return sorted(p for p in glob.glob(os.path.join(directory, '*'))
                  if os.path.isfile(p) and os.access(p, os.X_OK))


def defined_symbols(paths):
    """(type, demangled name) of every defined symbol in @p paths."""
    out = subprocess.run(['nm', '-C', '--defined-only', *paths],
                         check=True, capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(' ', 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            symbols.append((parts[1], parts[2]))
    return symbols


def qualified_name(signature):
    """Drop the parameter list, cv-qualifier and ABI tags of a
    demangled function signature."""
    s = signature.replace('[abi:cxx11]', '')
    s = re.sub(r'\s+(const|volatile|&|&&)$', '', s)
    if not s.endswith(')'):
        return s
    depth = 0
    for i in range(len(s) - 1, -1, -1):
        if s[i] == ')':
            depth += 1
        elif s[i] == '(':
            depth -= 1
            if depth == 0:
                return s[:i]
    return s


def read_seams(path):
    """Qualified names listed in the seams file (first field of each
    non-comment line)."""
    seams = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith('#'):
                seams.append(line.split()[0])
    return seams


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    root, perf, seams_path = argv[1:]
    binaries = (executables(os.path.join(root, 'tools')) +
                executables(os.path.join(root, 'bench')) +
                executables(os.path.join(root, 'examples')) +
                executables(perf))
    archives = sorted(glob.glob(os.path.join(root, 'src', '*', 'lib*.a')))
    if not binaries or not archives:
        print('no system binaries or library archives under', root, perf,
              file=sys.stderr)
        return 2

    library = {name for kind, name in defined_symbols(archives)
               if kind == 'T' and 'youtiao::' in name}
    reachable = {name for _, name in defined_symbols(binaries)}
    unreachable = sorted(library - reachable)
    seams = read_seams(seams_path)
    seam_set = set(seams)

    unlisted = [s for s in unreachable if qualified_name(s) not in seam_set]
    covered = {qualified_name(s) for s in unreachable}
    stale = [s for s in seams if s not in covered]

    print(f'{len(library)} library functions, {len(binaries)} binaries, '
          f'{len(unreachable)} unreachable, {len(seams)} seams')
    for s in unlisted:
        print(f'unreachable and not a test seam: {s}')
    for s in stale:
        print(f'{seams_path}: {s} is not an unreachable library function')
    return 1 if unlisted or stale else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
