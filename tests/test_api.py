import ast
import contextlib
import importlib
import types
from pathlib import Path

import ndspec
import ndspec.cli

# The public API may shrink but must not grow past this size again.
MAX_PUBLIC_NAMES = 34

ROOT = Path(__file__).resolve().parents[1]


def test_public_api_is_sorted_unique_importable_and_bounded():
    names = ndspec.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(ndspec, name)]
    assert not missing
    assert len(names) <= MAX_PUBLIC_NAMES


def test_every_public_attribute_is_listed():
    # a name dropped from __all__ but still imported stays reachable
    unlisted = [
        name for name, value in vars(ndspec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
        and name not in ndspec.__all__
    ]
    assert not unlisted


def _attribute_chain(node):
    """["nd", "cli", "main"] for ``nd.cli.main``; None unless rooted at ``nd``."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    return ["nd", *chain] if isinstance(node, ast.Name) and node.id == "nd" else None


def test_names_used_by_bench_and_scripts_resolve():
    # an API cut that breaks the benchmark or a script fails here, not only
    # when they are run; SPAN_TARGETS' string names are tolerant by design
    unresolved, used = [], 0
    for path in sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ndspec":
                module = importlib.import_module(node.module)
                lookups = [(module, [alias.name]) for alias in node.names]
            elif isinstance(node, ast.Attribute) and _attribute_chain(node):
                lookups = [(ndspec, _attribute_chain(node)[1:])]
            else:
                continue
            for obj, chain in lookups:
                used += 1
                if obj is ndspec and not hasattr(ndspec, chain[0]):
                    # a submodule that ndspec/__init__ does not import, such as
                    # ndspec.oracle, resolves whatever the tests before this imported
                    with contextlib.suppress(ModuleNotFoundError):
                        importlib.import_module(f"ndspec.{chain[0]}")
                for name in chain:
                    if not hasattr(obj, name):
                        unresolved.append(f"{path.name}:{node.lineno} {'.'.join(chain)}")
                        break
                    obj = getattr(obj, name)
    assert used >= 30
    assert not unresolved


def _record_pairs():
    """Two distinct but equal instances of each record that holds arrays."""
    def signal():
        return ndspec.CorrelationSignal.from_forward_lags([1.0, 0.5])

    def spectrum():
        return ndspec.sequential_spectrum(signal(), ndspec.SpectralGridSpec((4,)))

    makers = {
        "CorrelationSignal": signal,
        "BlockToeplitzMatrix": lambda: ndspec.assemble(signal()),
        "SpectrumEstimate": spectrum,
        "MatchReport": lambda: ndspec.correlation_match(spectrum(), signal()),
        "LevinsonResult": lambda: ndspec.levinson_1d(signal()),
    }
    return {name: (make(), make()) for name, make in makers.items()}


def test_records_holding_arrays_compare_and_hash():
    # a generated __eq__ over array fields raises on two equal records
    for name, (a, b) in _record_pairs().items():
        assert type(a).__name__ == name
        assert (a == b) is False and (a != b) is True, name
        assert (a == a) is True, name
        assert isinstance(hash(a), int) and hash(a) == hash(a), name
        assert len({a, b}) == 2, name
