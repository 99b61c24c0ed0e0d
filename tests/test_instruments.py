"""The instruments outside the package find every library name they patch.

The benchmark's tracer (``perfbench/layers.py``) wraps the functions that
its ``SPANNED`` table names, and the correctness sweep (``sweep.py``)
replaces the attributes of its ``TARGETS`` table to count calls.  A name
that the library deletes or renames would crash the traced benchmark, or
leave a sweep counter reading 0; these tests fail first.  The tracer is
imported read-only, as ``test_golden.py`` imports the benchmark's corpus.
"""

import sys
from pathlib import Path

import pytest

import exactquad
import sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402

sys.path.pop(0)


def test_tracer_wraps_and_restores_every_spanned_name():
    modules = {layer: sys.modules[f"exactquad.{layer}"] for layer in layers.SPANNED}
    names = [(layer, name) for layer, group in layers.SPANNED.items()
             for name in group]
    before = {key: getattr(modules[key[0]], key[1]) for key in names}
    tracer = layers.Tracer()
    try:
        tracer.install()
        for layer, name in names:
            wrapper = getattr(modules[layer], name)
            assert wrapper is not before[layer, name], f"{layer}.{name}"
            assert wrapper.__wrapped__ is before[layer, name], f"{layer}.{name}"
    finally:
        tracer.uninstall()
    for layer, name in names:
        assert getattr(modules[layer], name) is before[layer, name], f"{layer}.{name}"
    assert exactquad.synthesize_rule is before["synth", "synthesize_rule"]


@pytest.mark.parametrize("owner,name", sweep.TARGETS,
                         ids=[f"{o.__name__}.{n}" for o, n in sweep.TARGETS])
def test_sweep_targets_are_library_functions(owner, name):
    assert callable(getattr(owner, name))


def test_sweep_patches_only_declared_names_that_exist(monkeypatch):
    synth = sys.modules["exactquad.synth"]
    polish = synth.polish_combination
    with pytest.raises(KeyError):
        with sweep.patched((synth, "synthesize_rule", lambda f: f)):
            pass
    # a declared name that the library lost is refused, and what was
    # replaced before it is restored
    monkeypatch.delattr(synth, "_walk")
    with pytest.raises(AttributeError):
        with sweep.patched((synth, "polish_combination", lambda f: None),
                           (synth, "_walk", lambda f: f)):
            pass
    assert synth.polish_combination is polish and not hasattr(synth, "_walk")
