"""Reachability: every function, class and method in a source module is
referred to by some other source name or attribute, is exported by
`__init__`, or is on the allowlist below with its reason.  A name load
that a local variable of an enclosing function shadows refers to that
variable.  A method named like a field, a self.<name> assignment or a
method of a library type the sources use is ambiguous, since its
attribute references may read the data or call the library instead.

Write-only data: every dataclass and namedtuple field is read as an
attribute by some source file, or is on the field allowlist below with
its reason."""

import ast
import random
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src" / "roundlab"

# attributes of the library types the sources call methods on: a
# reference such as rng.randint(...) on a random.Random counts for any
# method of that name
LIBRARY_ATTRS = frozenset().union(*map(dir, (
    random.Random, dict, list, set, tuple, str, np.ndarray)))

# definitions no source refers to, kept as public API or as checkers, and
# ambiguous methods, each with where it is really used
ALLOWED = {
    "evaluate": "checkers: the truth of BooleanCircuit and "
                "ComposedFunction that compiled protocols are tested against",
    "bits": "ambiguous: PublicRandomness.bits, the public coins of every "
            "protocol step, read by the tests' random protocols; also "
            "Transcript's field",
    "extract_two_party": "public API of the two-party extraction, called "
                         "by the tests and the benchmark's cut certificate",
    "k": "ambiguous: Graph.k, read by format_graph_text; also the "
         "ED circuit's field",
    "max_degree": "checker: the degree of a distributed input, read by "
                  "the rebalance tests",
    "paths": "ambiguous: FlowSolution.paths, the unit paths of "
             "max_route_flow, read by the tests and the benchmark's cut "
             "certificate",
    "sorting_network_sorts": "checker: the 0-1 principle test of the "
                             "sorting networks behind ED circuits",
    "tau_mcf_flow_bound": "public API: the flow-over-time cut bound on "
                          "tau_mcf, tested against the exhaustive "
                          "reference; tau_mcf reuses its n'-free cuts "
                          "through _flow_bound",
    "tau_mcf_lower_bound": "public API: the base-cut bound on tau_mcf, "
                           "tested against tau_mcf",
    "value": "ambiguous: TreePacking.value, read by disjointness_bound "
             "and the CLI; also the flow results' field",
}

# dataclass and namedtuple fields no source reads, each with who reads it
ALLOWED_FIELDS = {
    "LevelVector.cost": "the cut's cost, read by the tests and the "
                        "benchmark's cut certificate",
    "TwoPartyTranscript.output_a": "Alice's answer, read by the tests and "
                                   "the benchmark's cut certificate",
    "TwoPartyTranscript.output_b": "Bob's answer, read by the tests and "
                                   "the benchmark's cut certificate",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(func):
    """The variables a function or lambda binds: its parameters and the
    names it assigns, imports or catches, outside nested functions."""
    args = func.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if arg is not None}
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _fields(tree):
    """Attribute names that data can hold: class-body assignments (dataclass
    fields included) and assignments to self.<name>."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                           else [])
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def _scan(node, bound, enclosing, refs, own):
    """Count the references below `node`: attribute loads, and name loads
    that no enclosing function binds as a variable (`bound`).  A reference
    inside a definition of the same name (`enclosing`) also counts in
    `own`."""
    if isinstance(node, SCOPES):
        bound = bound | _locals(node)
    if isinstance(node, DEFS):
        enclosing = enclosing | {node.name}
    name = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = None if node.id in bound else node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    if name is not None:
        refs[name] += 1
        own[name] += name in enclosing
    for child in ast.iter_child_nodes(node):
        _scan(child, bound, enclosing, refs, own)


def _unreached(sources):
    """Sorted (name, file, line, why) of the definitions in `sources`
    ({file name: text}) that are "unreached": no name or attribute outside
    their own body refers to them, or "ambiguous": methods named like a
    field, a self.<name> assignment or a LIBRARY_ATTRS name, whose
    attribute references cannot be told apart from reads of the data or
    library calls.  The names `__init__.py` imports
    count as referred to; dunder methods are called implicitly and are
    skipped."""
    defs, refs, own, fields = [], Counter(), Counter(), set()
    for fname, text in sources.items():
        tree = ast.parse(text)
        fields |= _fields(tree)
        methods = {id(stmt) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for stmt in node.body
                   if isinstance(stmt, SCOPES)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and fname == "__init__.py":
                refs.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, DEFS):
                defs.append((node.name, fname, node.lineno,
                             id(node) in methods))
        _scan(tree, frozenset(), frozenset(), refs, own)
    found = []
    for name, fname, line, is_method in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if refs[name] <= own[name]:
            found.append((name, fname, line, "unreached"))
        elif is_method and (name in fields or name in LIBRARY_ATTRS):
            found.append((name, fname, line, "ambiguous"))
    return sorted(found)


def _is_named(node, name):
    """Whether `node`, or the function it calls, is `name` or
    <module>.`name`."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _namedtuple_fields(call):
    """(typename, field names) of a namedtuple(typename, fields) call with
    literal arguments, fields a string or a list or tuple of strings."""
    typename, spec = (arg.value if isinstance(arg, ast.Constant) else arg
                      for arg in call.args[:2])
    names = (spec.replace(",", " ").split() if isinstance(spec, str)
             else [elt.value for elt in spec.elts])
    return typename, names


def _unread_fields(sources):
    """Sorted (Class.field, file, line) of the dataclass and namedtuple
    fields in `sources` ({file name: text}) whose name no attribute load
    in any source reads."""
    fields, reads = [], set()
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                    _is_named(d, "dataclass") for d in node.decorator_list):
                fields += [(f"{node.name}.{stmt.target.id}", fname,
                            stmt.lineno) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Call) and _is_named(node, "namedtuple"):
                typename, names = _namedtuple_fields(node)
                fields += [(f"{typename}.{name}", fname, node.lineno)
                           for name in names]
    return sorted(f for f in fields if f[0].split(".")[1] not in reads)


def test_scan_finds_a_planted_dead_function():
    sources = {
        "__init__.py": "from .m import public\n",
        "m.py": ("def public():\n"
                 "    return helper() + Box().used()\n"
                 "\n"
                 "def helper():\n"
                 "    return 1\n"
                 "\n"
                 "def dead(n):\n"
                 "    return dead(n - 1) if n else 0\n"
                 "\n"
                 "class Box:\n"
                 "    def __init__(self):\n"
                 "        self.size = 0\n"
                 "\n"
                 "    def used(self):\n"
                 "        return self.size\n"
                 "\n"
                 "    def unused(self):\n"
                 "        return self.used()\n"),
    }
    assert _unreached(sources) == [("dead", "m.py", 7, "unreached"),
                                   ("unused", "m.py", 17, "unreached")]


def test_scan_sees_through_locals_and_fields():
    # a dead method named like a local variable, one named like a
    # dataclass field and one named like a random.Random method called
    # elsewhere are all reported; a call from a lambda inside a function
    # that does not bind the name still counts
    sources = {
        "__init__.py": "from .g import route\n",
        "g.py": ("import random\n"
                 "from dataclasses import dataclass\n"
                 "\n"
                 "class Graph:\n"
                 "    def dist(self, a):\n"
                 "        return a\n"
                 "\n"
                 "    def diameter(self):\n"
                 "        return 0\n"
                 "\n"
                 "    def randint(self, lo, hi):\n"
                 "        return lo\n"
                 "\n"
                 "@dataclass\n"
                 "class Tree:\n"
                 "    diameter: int\n"
                 "\n"
                 "def route(size):\n"
                 "    tree, dist = Tree(size), [Graph()] * size\n"
                 "    size += random.Random(size).randint(0, 1)\n"
                 "    return dist, tree.diameter + (lambda: cut())()\n"
                 "\n"
                 "def cut():\n"
                 "    return 0\n"),
    }
    assert _unreached(sources) == [("diameter", "g.py", 8, "ambiguous"),
                                   ("dist", "g.py", 5, "unreached"),
                                   ("randint", "g.py", 11, "ambiguous")]


def test_every_definition_is_reachable():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unreached = _unreached(sources)
    assert [d for d in unreached if d[0] not in ALLOWED] == []
    # an allowlisted name that gained a reference leaves the list
    assert sorted(ALLOWED.keys() - {d[0] for d in unreached}) == []


def test_scan_finds_a_planted_write_only_field():
    # a field read through an instance or through self counts as read; a
    # field only ever written is reported, as is one of a dataclass
    # decorated with arguments; a plain class's attributes are not fields.
    # namedtuple fields count too, named by a string (as a base class) or
    # by a list; one passed only by keyword to _replace is not read
    sources = {
        "m.py": ("import collections\n"
                 "import dataclasses\n"
                 "from collections import namedtuple\n"
                 "from dataclasses import dataclass\n"
                 "\n"
                 "@dataclass(frozen=True)\n"
                 "class Run:\n"
                 "    rounds: int\n"
                 "    label: str\n"
                 "\n"
                 "@dataclasses.dataclass\n"
                 "class Box:\n"
                 "    size: int\n"
                 "    note: str = ''\n"
                 "\n"
                 "    def grow(self):\n"
                 "        return self.size + 1\n"
                 "\n"
                 "class Plain:\n"
                 "    tag: str\n"
                 "\n"
                 "class Span(namedtuple('Span', 'start stop '\n"
                 "                      'stride')):\n"
                 "    def width(self):\n"
                 "        return self._replace(stride=1).stop - self.start\n"
                 "\n"
                 "Pair = collections.namedtuple('Pair', ['left', 'right'])\n"
                 "\n"
                 "def main():\n"
                 "    Box(1, note='x').note = 'y'\n"
                 "    return Run(3, 'r').rounds + Pair(1, 2).left\n"),
    }
    assert _unread_fields(sources) == [("Box.note", "m.py", 14),
                                       ("Pair.right", "m.py", 27),
                                       ("Run.label", "m.py", 9),
                                       ("Span.stride", "m.py", 22)]


def test_every_dataclass_field_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unread = _unread_fields(sources)
    assert [f for f in unread if f[0] not in ALLOWED_FIELDS] == []
    # an allowlisted field that gained a reader leaves the list
    assert sorted(ALLOWED_FIELDS.keys() - {f[0] for f in unread}) == []
