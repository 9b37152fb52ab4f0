"""Property test of config resolution: any config file of known field
names and JSON scalars yields well-typed configs or a ValueError."""
import dataclasses
import json
import math

import pytest

from gedlab.cli import resolve_configs
from gedlab.encoder import ModelConfig
from gedlab.training import TrainConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_FIELDS = {f.name: f.type for cls in (ModelConfig, TrainConfig)
           for f in dataclasses.fields(cls)}
_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-10**12, max_value=10**12)
            | st.just(10**400)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=6))


@pytest.fixture(scope="module")
def conf_path(tmp_path_factory):
    return tmp_path_factory.mktemp("conf") / "conf.json"


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(fields=st.dictionaries(st.sampled_from(sorted(_FIELDS)),
                                         _SCALARS, max_size=6))
def test_resolve_configs_types_or_value_error(conf_path, fields):
    """Configs only: a generated hidden of 1e9 must never reach a model."""
    conf_path.write_text(json.dumps(fields))

    class Args:
        config = str(conf_path)
    try:
        configs = resolve_configs(Args(), vocab_size=50)
    except ValueError:
        return
    for config in configs:
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if f.type.startswith("int"):
                assert type(value) is int
            elif f.type == "float":
                assert type(value) in (int, float) and math.isfinite(value)
