import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import cavens
from cavens import dicke, lindblad
from cavens.core import CavityParams, DecoherenceParams, EmitterEnsemble, SystemModel
from cavens.units import hz_to_angular

MODULES = ["cavens"] + [f"cavens.{m.name}" for m in pkgutil.iter_modules(cavens.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    """Every name a module exports exists, so a star import of it works."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})


def _spanned() -> tuple:
    """``SPANNED`` of the benchmark's tracer, read from perfbench/spans.py
    (which imports nothing from the package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


SPANNED = _spanned()


class TestBenchmarkHarnessApi:
    """What perfbench/ takes from the package by name, so that a change
    which breaks the benchmark harness fails here, not in a benchmark run."""

    @pytest.mark.parametrize("layer, attr, lookups", SPANNED,
                             ids=[f"{layer}.{attr}" for layer, attr, _ in SPANNED])
    def test_spanned_name_resolves(self, layer, attr, lookups):
        for mod in {layer, *lookups}:
            assert callable(getattr(importlib.import_module(f"cavens.{mod}"), attr)), (mod, attr)

    def test_counters_resolve(self):
        assert callable(lindblad.Liouvillian.matvec)
        assert dicke.build_block_generator.cache_info().misses >= 0

    def test_check_calls(self):
        """The 2^N superoperator of the emission-trace check and the
        ``use_expm=True`` pulse of the scurve-binned check."""
        cavity = CavityParams.from_hz(44e9, 8.8e9)
        dec = DecoherenceParams.from_hz(6000.0, 600.0)
        g = hz_to_angular(35e6)
        ens = EmitterEnsemble.explicit([(0.0, g), (hz_to_angular(5e6), g)])
        assert lindblad.build_generator(ens, 1e-6, cavity, dec).superoperator().shape == (16, 16)
        model = SystemModel(cavity, dec, EmitterEnsemble.identical(4, g, detuning=g))
        res = lindblad.pulsed_emission(model, 1e-6, 1e-6, [1e-6], use_expm=True)
        assert res.peak_counts > 0 and res.peak_instant > 0
