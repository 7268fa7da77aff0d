"""Count the pdmlab source that each benchmark command compiles.

    python3 tools/compiled.py [ROOT]

Each command of CLI_COMMANDS in ROOT/perfbench/run.py (ROOT defaults to
this checkout) runs once under ROOT/src, in a fresh interpreter with
PYTHONDONTWRITEBYTECODE=1, as the benchmark runs it: every pdmlab source
that the command imports is compiled in that process.  The child records
each code object that it enters (sys.settrace, 'call' events only).
`catalog verify` runs on one CPU, so that its forked worker never takes a
job and every job runs in the traced process.

Per command the tool prints one line per pdmlab module that the command
imported: the AST nodes of its source (ast.walk over the parsed file), and
those of them that lie in top-level definitions (functions and classes)
that the command never entered.  A class counts as entered when one of its
methods ran; its own body runs at import.  A class that defines no method
(a NamedTuple record, an exception, a verdict type) is never entered
even where commands build or raise it, since a call trace cannot see a
class being named: its nodes are left out of the never-entered count and
counted apart.  Then it prints the command's totals, and at the end the
totals of the pass, followed by each top-level definition (module, kind,
name, first and last line) that no command entered, and by each class that
defines no method in a module that some command loaded.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent

# Runs `pdmlab.cli.main(argv)` with the call tracer on, then writes
# {module: [file, [(first line, name), ...]]} of every pdmlab module loaded,
# where the pairs name the code objects entered in that file.
_CHILD = """
import json, os, sys
out_path, one_cpu, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
if one_cpu:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
seen = set()

def trace(frame, event, arg):
    seen.add(frame.f_code)

sys.settrace(trace)
from pdmlab import cli
try:
    cli.main(argv)
finally:
    sys.settrace(None)
    sys.stdout.flush()
entered = {}
for code in seen:
    entered.setdefault(code.co_filename, []).append((code.co_firstlineno, code.co_name))
mods = {name: [m.__file__, entered.get(m.__file__, [])]
        for name, m in list(sys.modules.items())
        if (name == "pdmlab" or name.startswith("pdmlab.")) and getattr(m, "__file__", None)}
with open(out_path, "w") as fh:
    json.dump(mods, fh)
"""

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def cli_commands(root: Path) -> list:
    """CLI_COMMANDS of root/perfbench/run.py, read from its source."""
    tree = ast.parse((root / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLI_COMMANDS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no CLI_COMMANDS in {root / 'perfbench' / 'run.py'}")


def _size(node) -> int:
    return sum(1 for _ in ast.walk(node))


def module_nodes(path: str, entered: list) -> tuple:
    """(nodes of the source, nodes of its top-level definitions that no
    entered code object (first line, name) lies in, those definitions as a
    frozenset of (first line, last line, kind, name), the nodes of its
    top-level classes that define no method, and those classes as a
    frozenset of (first line, last line, name))."""
    tree = ast.parse(Path(path).read_text(), path)
    never = methodless = 0
    never_defs = set()
    methodless_defs = set()
    for stmt in tree.body:
        if not isinstance(stmt, _DEFS):
            continue
        start = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
        if isinstance(stmt, ast.ClassDef) and not any(isinstance(s, _FUNCS) for s in stmt.body):
            methodless += _size(stmt)
            methodless_defs.add((start, stmt.end_lineno, stmt.name))
            continue
        body_of_class = (start, stmt.name) if isinstance(stmt, ast.ClassDef) else None
        if not any(start <= line <= stmt.end_lineno and (line, name) != body_of_class
                   for line, name in entered):
            never += _size(stmt)
            kind = "class" if isinstance(stmt, ast.ClassDef) else "def"
            never_defs.add((start, stmt.end_lineno, kind, stmt.name))
    return _size(tree), never, frozenset(never_defs), methodless, frozenset(methodless_defs)


def run_command(root: Path, args: list, work: Path) -> dict:
    """{module: module_nodes(...)} of one command's process."""
    out_path = work / "modules.json"
    args = [a if a != "--json" else f"--json={work / 'report.json'}" for a in args]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    one_cpu = "1" if args[:2] == ["catalog", "verify"] else "0"
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(out_path), one_cpu, *args],
                          cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if not out_path.exists():
        raise SystemExit(f"{' '.join(args)}: rc {proc.returncode}\n{proc.stderr}")
    mods = json.loads(out_path.read_text())
    out_path.unlink()
    return {name: module_nodes(path, [tuple(e) for e in entered])
            for name, (path, entered) in sorted(mods.items())}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]).resolve() if argv else DEFAULT_ROOT
    total = never_total = methodless_total = 0
    # per module, the definitions that no command so far entered: the
    # intersection of the never-entered sets of the commands that loaded it
    unused: dict = {}
    methodless_defs: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for args in cli_commands(root):
            counts = run_command(root, args, Path(tmp))
            nodes = sum(c[0] for c in counts.values())
            never = sum(c[1] for c in counts.values())
            methodless = sum(c[3] for c in counts.values())
            total += nodes
            never_total += never
            methodless_total += methodless
            print(f"{' '.join(args)}")
            for name, (n, u, defs, m, classes) in counts.items():
                print(f"    {name:<28} {n:>7,} nodes {u:>7,} never entered {m:>5,} methodless")
                unused[name] = unused.get(name, defs) & defs
                methodless_defs[name] = classes
            print(f"    {len(counts)} modules, {nodes:,} nodes, {never:,} never entered, "
                  f"{methodless:,} in classes that define no method")
    print(f"pass: {total:,} nodes, {never_total:,} in top-level definitions never entered "
          f"({never_total / total:.1%}), {methodless_total:,} in classes that define no method")
    rows = [(name, *d) for name, defs in sorted(unused.items()) for d in sorted(defs)]
    print(f"top-level definitions that no command entered: {len(rows)}")
    for name, first, last, kind, fn in rows:
        print(f"    {name:<28} {kind:<5} {fn:<32} lines {first}-{last}")
    rows = [(name, *d) for name, defs in sorted(methodless_defs.items()) for d in sorted(defs)]
    print(f"classes that define no method (a call trace cannot see them used): {len(rows)}")
    for name, first, last, cls in rows:
        print(f"    {name:<28} class {cls:<32} lines {first}-{last}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
