"""The benchmark's tracer hooks sudler by name from outside the package:
every private layer boundary it lists must still exist and record spans."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_private_names_resolve_and_record_spans(tracer_mod):
    names = ["sudler"] + [f"sudler.{layer}" for layer in tracer_mod.LAYERS]
    modules = {m: importlib.import_module(m) for m in names}
    for modname, private in tracer_mod._PRIVATE.items():
        for name in private:
            assert callable(getattr(modules[modname], name, None)), f"{modname}.{name}"
    tracer = tracer_mod.Tracer()
    try:
        tracer.instrument(modules)
        tracer.enabled = True
        ctx = modules["sudler.goldenangle"].make_ctx(192)
        modules["sudler.products"].Q_n(20, ctx)
        modules["sudler.products"].C_n(20, ctx)  # the factor walk, which calls map_blocks
        results = modules["sudler.verify"].run_checks(level="quick", only={"omega-constants"})
    finally:
        tracer.enabled = False
        tracer.restore()
    assert [r.passed for r in results] == [True]
    snap = tracer.snapshot()
    assert snap["spans"] > 0
    for span in ("products.Q_n", "engine.log2sin_block", "engine.map_blocks",
                 "engine.merge_partials", "verify.omega-constants"):
        assert snap["calls"].get(span, 0) > 0, span
    # restore() puts every original back
    assert not hasattr(modules["sudler.products"].Q_n, "__wrapped__")
