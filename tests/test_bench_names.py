"""Every name the benchmark tracer measures still exists in the package.

The tracer skips names it cannot find, so a renamed or deleted function
would silently zero its per-layer metrics instead of failing the run.
"""

import importlib
import types
from pathlib import Path

import pytest

from cefpn import NeckConfig, init_neck_params

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    """The tracer module, executed from source without writing bytecode."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_a_public_function_of_its_module(tracer):
    names = set(tracer.GRAPH_OPS + tracer.COST_REPORTS + tracer.SELF_TIMED
                + tuple(f"neck.{n}" for n in tracer.NECK_STAGES)
                + tuple(f"ops.{n}" for n in tracer.OP_TIMES)
                + ("ops.conv2d", "tensor.backward"))
    missing = []
    for qualified in sorted(names):
        module_name, name = qualified.split(".")
        module = importlib.import_module(f"cefpn.{module_name}")
        if name not in {f.__name__ for f in tracer.public_functions(module)}:
            missing.append(qualified)
    assert missing == []


def test_named_layers_cover_every_traced_conv_layer(tracer):
    config = NeckConfig(base_channel=16, attention_reduction=4, ssf_scheme="a",
                        include_f5_p5=True)
    names = {name for name, _module, _spec in init_neck_params(config, seed=0).named_layers()}
    assert set(tracer.CONV_LAYERS) <= names
