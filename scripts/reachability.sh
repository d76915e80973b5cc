#!/usr/bin/env bash
# Test-only code gate: lists the src library functions that a test links
# but no tool, example, bench or perfbench binary keeps, and fails when
# one of them is not declared in scripts/reachability_allow.txt.
#
# It configures a Release build with -ffunction-sections and
# -Wl,--gc-sections (of the repo and of perfbench/) so that each binary
# keeps only the functions it can reach, then compares the defined
# ofdm:: text symbols of the src libraries against the symbols the
# binaries keep, by demangled name with compiler "[clone ...]" suffixes
# ignored. A function is test-only when some test binary keeps it and no
# other binary does.
#
# Each allowlist line is a ROADMAP item number and a demangled name
# prefix. The script fails on a test-only function that matches no
# prefix, on a prefix that matches no test-only function (so the list
# only shrinks), and on an item number that is not an open ROADMAP item.
#
# Usage: scripts/reachability.sh [build-dir]   (default: build-reach)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(realpath -m "${1:-${repo}/build-reach}")"
flags=(-DCMAKE_BUILD_TYPE=Release
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

cmake -B "${build}" -S "${repo}" "${flags[@]}" > /dev/null
cmake --build "${build}" -j "$(nproc)" > /dev/null
cmake -B "${build}/perfbench" -S "${repo}/perfbench" "${flags[@]}" > /dev/null
cmake --build "${build}/perfbench" -j "$(nproc)" > /dev/null

python3 - "${repo}" "${build}" <<'EOF'
import glob, os, re, subprocess, sys

repo, build = sys.argv[1], sys.argv[2]
clone = re.compile(r' \[clone [^\]]*\]')

def text_symbols(path):
    """(size, demangled name) of each defined text symbol in `path`."""
    out = subprocess.run(['nm', '-C', '--defined-only', '-S', path],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        m = re.match(r'[0-9a-f]+ ([0-9a-f]+) [TtWw] (.*)$', line)
        if m:
            yield int(m.group(1), 16), m.group(2)

def kept(paths):
    return {clone.sub('', n) for p in paths for _, n in text_symbols(p)}

def executables(pattern):
    return [p for p in sorted(glob.glob(os.path.join(build, pattern)))
            if os.path.isfile(p) and os.access(p, os.X_OK)]

# Weak symbols repeat across objects; a name counts once, at its size.
lib = {}
for a in sorted(glob.glob(os.path.join(build, 'src', '**', '*.a'),
                          recursive=True)):
    for size, name in text_symbols(a):
        if name.startswith('ofdm::'):
            lib[name] = max(lib.get(name, 0), size)

users = (executables('tools/*') + executables('examples/*') +
         executables('bench/*') + executables('perfbench/perfbench'))
tests = executables('tests/test_*')
if not users or not tests:
    sys.exit(f'reachability: no binaries under {build}')
by_users, by_tests = kept(users), kept(tests)

test_only = {}  # function -> bytes, clone parts included
for name, size in lib.items():
    fn = clone.sub('', name)
    if fn in by_tests and fn not in by_users:
        test_only[fn] = test_only.get(fn, 0) + size

open_items = set(re.findall(r'^### (\d+)\.',
                            open(os.path.join(repo, 'ROADMAP.md')).read(),
                            re.M))
allow = []  # (line number, item, prefix)
allow_path = os.path.join(repo, 'scripts', 'reachability_allow.txt')
for no, line in enumerate(open(allow_path), 1):
    line = line.strip()
    if line and not line.startswith('#'):
        item, prefix = line.split(None, 1)
        allow.append((no, item, prefix))

failures = []
for no, item, prefix in allow:
    if item not in open_items:
        failures.append(f'allowlist line {no}: item {item} is not an open '
                        f'ROADMAP item')
    if not any(fn.startswith(prefix) for fn in test_only):
        failures.append(f'allowlist line {no}: "{prefix}" matches no '
                        f'test-only function; delete the line')
for fn in sorted(test_only):
    if not any(fn.startswith(prefix) for _, _, prefix in allow):
        failures.append(f'undeclared test-only function '
                        f'({test_only[fn]} B): {fn}')

print(f'src text: {len(lib)} ofdm:: symbols, {sum(lib.values())} B; '
      f'test-only: {len(test_only)} functions, '
      f'{sum(test_only.values())} B')
for f in failures:
    print('FAIL ' + f)
sys.exit(1 if failures else 0)
EOF
