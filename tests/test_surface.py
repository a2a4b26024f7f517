"""The package surface is what the CLI, the verify targets and the benchmark
reach.  The rules read the source with ``ast``, so docstrings and comments
never count as uses:

* every public function, class and method of ``src/fracmeas`` is referenced
  from package code other than its own definition, or from ``perfbench/``
  (so the CLI, the verify targets or the benchmark reach it);
* every defaulted parameter of a function in ``src/fracmeas`` is set, by
  keyword or by position, by some call in ``src/`` or ``perfbench/``: a
  parameter that only tests set is a mode no command uses.  The verify
  parameters that ``cli.cmd_verify`` fills from the parsed flags count as
  set;
* every annotated field of a class in ``src/fracmeas`` is read as an
  attribute somewhere in ``src/`` or ``perfbench/``, or by an
  ``asdict(self)`` call in its own class, which reads every field: a result
  field that nothing reads is bookkeeping no command uses.

* outside ``_kernels``, no module names the pair driver's block rule
  (``_block_rows``, ``BLOCK_TERMS``) or its distance kernel
  (``_sq_dists``), or calls ``einsum`` or ``subtract.outer``: every sum over
  masses runs in ``_kernels._pair_sums``, in its blocks;
* no module uses ``@``, ``matmul``, ``dot`` or ``linalg.norm``: on floats
  they run the BLAS kernel that the host's CPU picks, and each kernel rounds
  in its own way.  The rule cannot tell floats from integers, so integer
  products are written as elementwise sums too.

References, calls and attribute reads are matched to definitions by the
bare name alone, so two definitions of one name share their uses: the checks
can miss an unused name, parameter or field, never flag a used one.  They
fail at a package that still carries API, a mode of it or a result field
that only the tests read.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from fracmeas import cli, verify

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracmeas"

# public names kept although only tests call them, each with its reason
ALLOWED_UNREACHED = {}

# defaulted parameters kept although only tests set them, each with its reason
ALLOWED_UNSET = {
    "content.choquet_integral.thresholds":
        "ROADMAP direction 9 redefines the default threshold grid; until then "
        "the golden digests and the hypothesis properties pin today's grid, "
        "and the tests check the layer-cake sum on thresholds of their own",
    "content.choquet_integral.n_thresholds":
        "the size of today's default grid, which direction 9 redefines",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_modules():
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def _trees(*dirs):
    return [_parse(p) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def _referenced_names(tree: ast.AST) -> set:
    """Every name a module uses in code: bare names, attributes and the
    names it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def _public_definitions(module: ast.Module):
    """``(qualified name, bare name)`` of the module's public functions and
    classes and of the public methods of its public classes."""
    for node in module.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def unreached_names() -> list:
    """Public package names that no package or benchmark code references."""
    modules = _package_modules()
    used = set().union(*(_referenced_names(t) for t in _trees("src", "perfbench")))
    out = []
    for mod, tree in modules.items():
        for qual, bare in _public_definitions(tree):
            if bare not in used:
                out.append(f"{mod}.{qual}")
    return sorted(out)


def _is_asdict_self(node: ast.AST) -> bool:
    """``asdict(self)`` or ``dataclasses.asdict(self)``."""
    if not isinstance(node, ast.Call) or len(node.args) != 1 or node.keywords:
        return False
    func, arg = node.func, node.args[0]
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "asdict" and isinstance(arg, ast.Name) and arg.id == "self"


def _attributes_read(tree: ast.AST) -> set:
    """Every attribute name a module reads (``x.name`` in a load), and every
    field of a class that calls ``asdict(self)``."""
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(_is_asdict_self, ast.walk(node))):
            read.update(_class_fields(node))
    return read


def _class_fields(cls: ast.ClassDef) -> list:
    """The bare names of a class's annotated fields."""
    return [item.target.id for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def _fields(module: ast.Module):
    """``(qualified name, bare name)`` of the annotated fields of every
    class of the module, nested classes included."""
    for node in ast.walk(module):
        if isinstance(node, ast.ClassDef):
            for name in _class_fields(node):
                yield f"{node.name}.{name}", name


def unread_fields() -> list:
    """Package class fields that no package or benchmark code reads."""
    read = set().union(*(_attributes_read(t) for t in _trees("src", "perfbench")))
    return sorted(f"{mod}.{qual}" for mod, tree in _package_modules().items()
                  for qual, bare in _fields(tree) if bare not in read)


def _defaulted_parameters(module: ast.Module):
    """``(qualified name, bare name, parameter, position)`` for every
    defaulted parameter of the module's functions and methods; ``position``
    counts the positional arguments a call passes (after ``self``/``cls``),
    None for keyword-only parameters."""

    def visit(node, prefix, in_class):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}{item.name}.", True)
            elif isinstance(item, ast.FunctionDef):
                args = item.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                skip = 1 if in_class and not static else 0
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield f"{prefix}{item.name}", item.name, arg.arg, i - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{item.name}", item.name, arg.arg, None
                yield from visit(item, f"{prefix}{item.name}.", False)

    yield from visit(module, "", False)


def _set_parameters(trees) -> dict:
    """Called name -> (largest positional count, keyword names); a starred
    argument counts as every position, ``**`` as every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            n_pos, kws = calls.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_pos = max(n_pos, 10 ** 6 if starred else len(node.args))
            for kw in node.keywords:
                kws = kws | {"**" if kw.arg is None else kw.arg}
            calls[name] = (n_pos, kws)
    return calls


def _introspected() -> set:
    """``verify.<function>.<parameter>`` pairs that ``cli.cmd_verify``
    fills from the parsed flags."""
    out = set()
    for fn in verify.VERIFIERS.values():
        for p in inspect.signature(fn).parameters:
            if p in cli._VERIFY_FLAGS or p == "dirac_seed":
                out.add(f"verify.{fn.__name__}.{p}")
    return out


def unset_parameters() -> list:
    """Defaulted package parameters that no call in src/ or perfbench/
    sets."""
    calls = _set_parameters(_trees("src", "perfbench"))
    filled = _introspected()
    out = []
    for mod, tree in _package_modules().items():
        for qual, bare, param, pos in _defaulted_parameters(tree):
            n_pos, kws = calls.get(bare, (0, set()))
            name = f"{mod}.{qual}.{param}"
            if name in filled or param in kws or "**" in kws:
                continue
            if pos is not None and pos < n_pos:
                continue
            out.append(name)
    return sorted(out)


# the pair driver's own: its block rule and its distance kernel
KERNEL_NAMES = {"_block_rows", "BLOCK_TERMS", "_sq_dists"}
# the dense pair sums it replaces, as the tails of called names
DENSE_SUMS = ("einsum", "subtract.outer")


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` of a chain of names and attributes, "" for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _pair_code(tree: ast.AST) -> list:
    """The pair-driver names a module uses and the dense pair sums it calls
    (``einsum``, ``subtract.outer``)."""
    found = _referenced_names(tree) & KERNEL_NAMES
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = "." + _dotted(node.func)
            found.update(s for s in DENSE_SUMS if called.endswith("." + s))
    return sorted(found)


def pair_code_outside_kernels() -> list:
    """``module: name`` for each pair-driver name or dense pair sum in a
    package module other than ``_kernels``."""
    return [f"{mod}: {name}" for mod, tree in _package_modules().items()
            if mod != "_kernels" for name in _pair_code(tree)]


# the BLAS products and norms, as the tails of used names
BLAS_NAMES = ("matmul", "dot", "linalg.norm")


def _blas_code(tree: ast.AST) -> list:
    """Each ``@`` (also ``@=``) of a module and each name or attribute it
    uses that ends in a BLAS product or norm, in the order ``ast.walk``
    meets them, sorted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            used = "." + _dotted(node)
            found.extend(s for s in BLAS_NAMES if used.endswith("." + s))
    return sorted(found)


def test_every_public_name_is_reached():
    unreached = unreached_names()
    stale = sorted(set(ALLOWED_UNREACHED) - set(unreached))
    assert not stale, f"allowlist entries now reached or gone: {stale}"
    missing = [n for n in unreached if n not in ALLOWED_UNREACHED]
    assert not missing, ("public names no package or benchmark code references "
                         f"(delete them, or make them private): {missing}")


def test_every_field_is_read():
    unread = unread_fields()
    assert not unread, ("class fields no package or benchmark code reads "
                        f"(delete them): {unread}")


def test_every_defaulted_parameter_is_set():
    unset = unset_parameters()
    stale = sorted(set(ALLOWED_UNSET) - set(unset))
    assert not stale, f"allowlist entries now set or gone: {stale}"
    missing = [n for n in unset if n not in ALLOWED_UNSET]
    assert not missing, ("defaulted parameters no package or benchmark call sets "
                         "(make each a constant in the body or the module): "
                         f"{missing}")


_SAMPLE = """
class A:
    read: int
    unread: int = 0

    def m(self, x, k=2):
        "unused(x) is named here in a docstring only"
        self.unread = x.read
        return x * k


def unused(y, *, z=1):
    return A().m(y)

"""


def test_the_checks_see_a_stale_name_and_parameter():
    tree = ast.parse(_SAMPLE)
    assert [q for q, _ in _public_definitions(tree)] == ["A", "A.m", "unused"]
    assert "unused" not in _referenced_names(tree)
    # self is not counted: a call's one positional argument is x, not k
    assert [(p[2], p[3]) for p in _defaulted_parameters(tree)] == [("k", 1), ("z", None)]
    assert _set_parameters([tree])["m"] == (1, set())
    # a store is no read
    assert [q for q, _ in _fields(tree)] == ["A.read", "A.unread"]
    assert {"read", "unread"} & _attributes_read(tree) == {"read"}


_ASDICT_SAMPLE = """
class B:
    whole: int

    def to_dict(self):
        return asdict(self)


class C:
    other: int

    def to_dict(self, x):
        return dataclasses.asdict(x)
"""


def test_asdict_self_reads_every_field():
    # asdict(self) reads every field of its own class; asdict of another
    # object reads none
    tree = ast.parse(_ASDICT_SAMPLE)
    assert [q for q, _ in _fields(tree)] == ["B.whole", "C.other"]
    assert {"whole", "other"} & _attributes_read(tree) == {"whole"}


def test_every_sum_over_masses_runs_in_the_pair_driver():
    found = pair_code_outside_kernels()
    assert not found, ("pair sums or block rules outside _kernels (sum through "
                       f"_kernels._pair_sums or iterate pairwise_sq_dists): {found}")


_PAIR_SAMPLE = """
from ._kernels import _block_rows
import numpy as np


def f(x, y, w):
    "np.einsum in a docstring is no call"
    rows = _kernels.BLOCK_TERMS // len(y)
    d = np.subtract.outer(x[:rows], y)
    return np.einsum("ij,j->i", d * d, w), np.add.outer(x, y)
"""


def test_the_pair_rule_sees_names_and_dense_sums():
    assert _pair_code(ast.parse(_PAIR_SAMPLE)) == [
        "BLOCK_TERMS", "_block_rows", "einsum", "subtract.outer"]


def test_no_module_runs_a_blas_product():
    found = [f"{mod}: {name}" for mod, tree in _package_modules().items()
             for name in _blas_code(tree)]
    assert not found, ("BLAS products or norms in the package (sum with numpy's "
                       f"own loops: np.sum, or _kernels._pair_sums): {found}")


_BLAS_SAMPLE = """
import numpy as np
from numpy import dot


def f(a, b, v, n):
    "a @ b and np.linalg.norm(v) in a docstring are no uses"
    a @= b
    product = np.matmul
    return a @ b, product(a, b), dot(a, b), a.dot(b), np.linalg.norm(v), n.dots
"""


def test_the_blas_rule_sees_every_form():
    # @ and @=, numpy's matmul named without a call, dot as a bare name and
    # as a method, and the norm; the import itself and other names are not
    assert _blas_code(ast.parse(_BLAS_SAMPLE)) == [
        "@", "@", "dot", "dot", "linalg.norm", "matmul"]
