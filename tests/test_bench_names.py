import importlib.util
from pathlib import Path

import casim
import casim.cli  # noqa: F401  (the cli module is not imported by the package)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_on_the_package():
    # the benchmark tracer wraps these attributes; a rename or deletion
    # in casim must fail here rather than only in the benchmark run
    missing = []
    for owner_path, attr, _ in _load_tracing().WRAPPED:
        owner = casim
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        found = (attr in vars(owner)) if isinstance(owner, type) else hasattr(owner, attr)
        if owner is None or not found or not callable(getattr(owner, attr)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
