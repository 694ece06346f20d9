"""The library defines only what its callers use: every public function or
method in src/ is referenced by src/ or perfbench/ outside its own body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public names that stay for the tests alone, on purpose.
TEST_FACING = {
    # the oracles the tests compare the engine and the simulator against
    "r6_coefficient": "closed-form R6 coefficient, the oracle for compute_R6",
    "hamiltonian_physical": "physical-space H, the oracle for SpectralModel's channels",
    "ExactCoeff.to_complex": "float view of an exact value, the reference for the compiled prefactors",
    # the paper's statements, each checked one tuple at a time
    "mu": "the mu kernel of the nine-term sum I",
    "omega_s": "Omega_s of one tuple",
    "omega_bound_check": "the weighted frequency-sum bound on one tuple",
    "tau_bound_check": "criterion 10's tau bound on one tuple",
    # ROADMAP items 1(d) and 13 extend it
    "norm_derivative_audit": "the norm-derivative audit",
}


def _definitions(tree):
    """(qualified name, node) of each public module-level function and of
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node


def unreferenced_public_api(root: Path) -> list[str]:
    """The public functions and methods defined under root/src that no name
    or attribute load in root/src or root/perfbench reaches from outside the
    definition itself; an import alone is no reference."""
    trees = {path: ast.parse(path.read_text()) for d in ("src", "perfbench") for path in sorted((root / d).rglob("*.py"))}
    refs = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, []).append(node)
    unused = []
    for path, tree in trees.items():
        if path.is_relative_to(root / "src"):
            for qualname, node in _definitions(tree):
                own = {id(n) for n in ast.walk(node)}
                if all(id(ref) in own for ref in refs.get(node.name, [])):
                    unused.append(qualname)
    return sorted(unused)


def test_every_public_function_has_a_library_or_benchmark_caller():
    assert unreferenced_public_api(ROOT) == sorted(TEST_FACING)

