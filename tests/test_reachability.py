"""Reachability: every function, class and method in a source module is
referred to by some other source name or attribute, is exported by
`__init__`, or is on the allowlist below with its reason."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "roundlab"

# definitions no source refers to, kept as public API or as checkers
ALLOWED = {
    "audit_schedule": "checker: validates a routing schedule's paths, "
                      "loads and deliveries in the tests",
    "congestion_to_delay": "kept for ROADMAP item 6, the dilated "
                           "schedule audit",
    "evaluate": "checkers: the truth of BooleanCircuit and "
                "ComposedFunction that compiled protocols are tested against",
    "extract_two_party": "public API of the two-party extraction, called "
                         "by the tests and the benchmark's cut certificate",
    "max_degree": "checker: the degree of a distributed input, read by "
                  "the rebalance tests",
    "max_nonmemory_load": "checker: the congestion of a FlowSolution, "
                          "asserted to be at most 1 in the tests",
    "reset_tau_mcf_ledger": "clears the process-wide tau_mcf ledger "
                            "between tests",
    "sorting_network_sorts": "checker: the 0-1 principle test of the "
                             "sorting networks behind ED circuits",
    "tau_mcf_flow_bound": "public API: the certified start of the tau_mcf "
                          "search, tested against tau_mcf",
    "tau_mcf_lower_bound": "public API: the base-cut bound on tau_mcf, "
                           "tested against tau_mcf",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _ref(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unreached(sources):
    """Sorted (name, file, line) of the definitions in `sources` ({file
    name: text}) that no name or attribute outside their own body refers
    to.  The names `__init__.py` imports count as referred to; dunder
    methods are called implicitly and are skipped."""
    defs, refs, own = [], Counter(), Counter()
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and fname == "__init__.py":
                refs.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, DEFS):
                defs.append((node.name, fname, node.lineno))
                own[node.name] += sum(_ref(sub) == node.name
                                      for sub in ast.walk(node))
            elif _ref(node) is not None:
                refs[_ref(node)] += 1
    return sorted((name, fname, line) for name, fname, line in defs
                  if refs[name] <= own[name]
                  and not (name.startswith("__") and name.endswith("__")))


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
    assert _unreached(sources) == [("dead", "m.py", 7),
                                   ("unused", "m.py", 17)]


def test_every_definition_is_reachable():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unreached = _unreached(sources)
    assert [d for d in unreached if d[0] not in ALLOWED] == []
    # an allowlisted name that gained a reference leaves the list
    assert sorted(ALLOWED.keys() - {d[0] for d in unreached}) == []
