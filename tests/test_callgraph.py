"""The package's static call graph: one fast path and one oracle per quantity.

A certificate from this package equates two independently computed sides,
so it is worth something only while each fast path shares no code with its
oracle beyond the list SHARED below.  The graph is built from the AST of
src/padicheights/*.py.  A reference (a call, or a function passed as a
value) is an edge, resolved in four ways:

- bare and dotted names in the module's namespace, with the function's own
  imports added and its local variables left out;
- a receiver named in RECEIVERS (by its last name: ctx, ctx.chi, char,
  self.group, ...) to that class;
- self.f to the enclosing class, as is any receiver's method inside a
  class that defines a method of that name;
- PadicNumber, KElem and RationalPoly are one node each, since their
  operators are implicit; a method of theirs on any other receiver is an
  edge to each of them that defines it.

Any other reference to a method name of a package class fails the test, so
no edge goes missing unseen.  A class reaches its own dunder methods, and
those that override a library base class (argparse calls _Parser.error).
Annotations run no code and make no edge.
"""

import ast
import importlib
import inspect
from collections import deque

import pytest

from testkit import resolve, src_modules

VALUE_TYPES = {"padic.PadicNumber", "quadfield.KElem", "polykit.RationalPoly"}

RECEIVERS = {
    "ctx": "heights.HeightContext",
    "chi": "heckechar.HeckeChar",
    "char": "heckechar.HeckeChar",
    "group": "quadfield.ClassGroup",
    "ledger": "heights.PrecisionLedger",
    "bank": "heights._ThetaBank",
    "_bank": "heights._ThetaBank",
    "store": "heights._SigmaStore",
}

# the console script, and the oracles no command runs
ROOTS = ("cli.main", "heckechar.HeckeChar.r_chi",
         "heckechar.lattice_theta_coeffs", "padic.sigma_A",
         "heights.local_height_sum_direct", "heights.fourier_am_direct")

# quantity -> (fast path, oracle), each a tuple of roots; the theta bank is
# filled by ensure (the lattice scan) and read by series
PAIRS = {
    "theta (bank)": (("heights._ThetaBank.ensure",
                      "heights._ThetaBank.series"),
                     ("heckechar.HeckeChar.r_chi",)),
    "theta (lattice)": (("heckechar.HeckeChar.r_chi",),
                        ("heckechar.lattice_theta_coeffs",)),
    "sigma": (("heights.HeightContext.sigma_res",), ("padic.sigma_A",)),
    "C": (("heights.HeightContext._cb",),
          ("heights.local_height_sum_direct",)),
    "a_m": (("heights.fourier_am",), ("heights.fourier_am_direct",)),
}

# quantity -> {node: reason}: an entry admits itself and all it reaches
LOG = ("one log for both sides until ROADMAP item 3, which deletes this "
       "entry")
CHI = ("the character on one ideal (and the ideal arithmetic under it): "
       "the lattice sums are normalised once per class by chi of the "
       "conjugate of the class's ideal, while r_chi sums chi over every "
       "ideal of norm n")
REFUSAL = "the exception type of the refusals on both sides; it holds no code"
SHARED = {
    "theta (bank)": {},
    "theta (lattice)": {"heckechar.HeckeChar.chi_value": CHI},
    "sigma": {"padic.iwasawa_log": LOG},
    "C": {"heckechar.HeckeChar.chi_value": CHI,
          "padic.iwasawa_log": LOG,
          "heights.HeightError": REFUSAL},
    "a_m": {"heckechar.HeckeChar.chi_value": CHI,
            "padic.iwasawa_log": LOG,
            "heights.HeightError": REFUSAL,
            "heights._require_p_divides":
                "the hypothesis p | m, refused by both sides with one "
                "message",
            "heights._fourier_const":
                "the constant (-1)^r / (binom |D|^k) that scales both sums, "
                "one rational in the context's integers: the oracle checks "
                "the sum, not this constant"},
}


# ---------------------------------------------------------------------------
# the graph

def _annotations(fn):
    """The ids of the nodes inside fn's annotations, which run no code."""
    out = set()
    for node in ast.walk(fn):
        notes = [getattr(node, "returns", None),
                 getattr(node, "annotation", None)]
        for note in filter(None, notes):
            out |= {id(n) for n in ast.walk(note)}
    return out


def _local_names(fn):
    """Parameters and assigned names of fn and of the functions inside it."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out


def _local_imports(fn, module):
    """The names that the import statements inside fn bind."""
    out = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.import_module(
                "." * node.level + (node.module or ""), module.__package__)
            for a in node.names:
                out[a.asname or a.name] = getattr(base, a.name)
    return out


def _last_name(expr):
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _base_name(expr):
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


class CallGraph:
    def __init__(self):
        self.body = {}          # node -> (AST, module, enclosing class node)
        self.methods = {}       # class node -> {name: method node}
        self.edges = {}
        self.unresolved = []
        for path, module, tree in src_modules():
            stem = path.stem
            for top in tree.body:
                name = f"{stem}.{getattr(top, 'name', '')}"
                if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.body[name] = (top, module, None)
                elif isinstance(top, ast.ClassDef):
                    self._add_class(name, top, module)
        self._value_methods = {}
        for cls in VALUE_TYPES:
            for meth in self.methods[cls]:
                self._value_methods.setdefault(meth, set()).add(cls)
        self._class_methods = {m for cls, ms in self.methods.items()
                               if cls not in VALUE_TYPES for m in ms}
        for name in self.body:
            self.edges[name] = self._references(name)

    def _add_class(self, name, cls, module):
        self.methods[name] = {}
        defs = [d for d in cls.body
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if name in VALUE_TYPES:
            self.body[name] = (cls, module, name)
            self.methods[name] = {d.name: name for d in defs}
            return
        # the class node holds its bases and class-level statements
        shell = ast.ClassDef(name=cls.name, bases=cls.bases, keywords=[],
                             body=[s for s in cls.body if s not in defs],
                             decorator_list=cls.decorator_list)
        self.body[name] = (shell, module, name)
        for d in defs:
            self.methods[name][d.name] = f"{name}.{d.name}"
            self.body[f"{name}.{d.name}"] = (d, module, name)

    def node_of(self, obj):
        """The graph node of a package function or class, else None."""
        if isinstance(obj, property):
            obj = obj.fget
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            return None
        module = getattr(obj, "__module__", "") or ""
        if not module.startswith("padicheights."):
            return None
        stem, qual = module.split(".")[1], obj.__qualname__
        top = f"{stem}.{qual.split('.')[0]}"
        if top in VALUE_TYPES:
            return top
        return f"{stem}.{qual}" if f"{stem}.{qual}" in self.body else None

    def _references(self, name):
        tree, module, cls = self.body[name]
        namespace = dict(vars(module))
        namespace.update(_local_imports(tree, module))
        local = _local_names(tree)
        out = set()
        if cls == name and name not in VALUE_TYPES:
            # the interpreter calls dunders, and a library base class the
            # methods it defines
            bases = [resolve(b, namespace) for b in tree.bases]
            out |= {m for meth, m in self.methods[name].items()
                    if meth.startswith("__") and meth.endswith("__")
                    or any(self.node_of(b) is None and hasattr(b, meth)
                           for b in bases)}
        skip = _annotations(tree)
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in local:
                    out.add(self.node_of(resolve(node, namespace)))
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                out |= self._attribute(node, namespace, local, cls, module)
        out.discard(None)
        out.discard(name)
        return out

    def _attribute(self, node, namespace, local, cls, module):
        if _base_name(node) not in local:
            target = self.node_of(resolve(node, namespace))
            if target is not None:
                return {target}
        attr = node.attr
        owner = RECEIVERS.get(_last_name(node.value))
        if owner is not None and attr in self.methods[owner]:
            return {self.methods[owner][attr]}
        # self.f, and inside a class any operand's method of a name the
        # class defines (PadicNumber's o.inv()), is the class's own
        if cls and attr in self.methods[cls]:
            return {self.methods[cls][attr]}
        if attr in self._value_methods:
            return set(self._value_methods[attr])
        if attr in self._class_methods:
            self.unresolved.append(
                f"{module.__name__.split('.')[1]}.py:{node.lineno} "
                f"{ast.unparse(node)}")
        return set()

    def reach(self, roots):
        seen, todo = set(roots), deque(roots)
        while todo:
            for nxt in self.edges[todo.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen


@pytest.fixture(scope="module")
def graph():
    return CallGraph()


def test_graph_resolves_every_name(graph):
    assert graph.unresolved == []
    declared = {*ROOTS, *(n for pair in PAIRS.values() for side in pair
                          for n in side),
                *(n for shared in SHARED.values() for n in shared)}
    assert sorted(declared - set(graph.body)) == []


@pytest.mark.parametrize("quantity", sorted(PAIRS))
def test_fast_path_and_oracle_share_only_the_list(graph, quantity):
    fast, oracle = PAIRS[quantity]
    shared = SHARED[quantity]
    meet = graph.reach(fast) & graph.reach(oracle)
    print(f"\n{quantity}: {' + '.join(fast)} against {' + '.join(oracle)}")
    for entry, reason in sorted(shared.items()):
        print(f"  {entry}: {reason}")
    leaked = sorted(meet - graph.reach(tuple(shared)))
    assert not leaked, f"{quantity}: shared beyond the list: {leaked}"
    # every entry is shared: a stale one would admit code unseen
    assert sorted(set(shared) - meet) == []


def test_no_unreached_code(graph):
    unreached = sorted(set(graph.body) - graph.reach(ROOTS))
    assert not unreached, f"reached from no command or oracle: {unreached}"
