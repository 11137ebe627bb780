"""The declared ranges and choices of the settings, and the library configs that check them."""
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialgcn import cli
from socialgcn import data as D
from socialgcn import evaluation as E
from socialgcn import model as M
from socialgcn import training as T
from socialgcn.bounds import RANGES

# Each library config, valid arguments for its required fields, and the error it raises.
LIBRARY = [
    (M.HyperParams, {"D": 4, "L": 4}, M.ModelError),
    (T.TrainConfig, {}, T.TrainingError),
    (E.EvalConfig, {}, E.EvaluationError),
    (D.SplitConfig, {}, D.DataError),
    (D.SyntheticSpec, {"users": 10, "items": 10}, D.DataError),
]


def kind(f):
    return getattr(f.type, "__name__", f.type)


@pytest.mark.parametrize("cls", [cli.RunConfig] + [cls for cls, _, _ in LIBRARY], ids=lambda cls: cls.__name__)
def test_every_numeric_field_declares_a_range(cls):
    # a new int or float setting cannot skip range checking
    undeclared = [f.name for f in fields(cls) if kind(f) in ("int", "float") and f.metadata.get("within") not in RANGES]
    assert undeclared == []


@pytest.mark.parametrize(
    "cls,args,message",
    [
        (M.HyperParams, {"D": 0, "L": 4}, "D must be >= 1, got 0"),
        (M.HyperParams, {"D": 4, "L": 0}, "L must be >= 1, got 0"),
        (M.HyperParams, {"D": 4.5, "L": 4}, "D must be an integer >= 1, got 4.5"),
        (D.SyntheticSpec, {"users": 10, "items": 10, "dim_user": 0}, "dim_user must be >= 1, got 0"),
        (E.EvalConfig, {"seed": -1}, "seed must be >= 0, got -1"),
        (D.SyntheticSpec, {"users": 10, "items": 10, "seed": -1}, "seed must be >= 0, got -1"),
        (D.SyntheticSpec, {"users": 10, "items": 10, "clusters": 0}, "clusters must be >= 1, got 0"),
        (D.SyntheticSpec, {"users": 10, "items": 10, "dim_item": -1}, "dim_item must be >= 1, got -1"),
        (D.SplitConfig, {"seed": -1}, "seed must be >= 0, got -1"),
    ],
)
def test_library_config_rejects_what_the_cli_rejects(cls, args, message):
    error = next(error for c, _, error in LIBRARY if c is cls)
    with pytest.raises(error, match=f"^{message}$"):
        cls(**args)


def bad_values(f):
    """Values that field `f` does not accept: another type, or outside its range or choices."""
    other = st.none() | st.text(max_size=4) | st.lists(st.integers(), max_size=2)
    if f.metadata.get("choices"):
        return (other | st.integers()).filter(lambda v: v not in f.metadata["choices"])
    if kind(f) == "bool":
        return other | st.integers() | st.floats()
    numbers = st.floats() if kind(f) == "float" else st.integers()
    outside = numbers.filter(lambda v: not RANGES[f.metadata["within"]](v))
    return other | st.booleans() | outside | (st.floats() if kind(f) == "int" else st.nothing())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bad_field_raises_its_module_error(data):
    cls, args, error = data.draw(st.sampled_from(LIBRARY))
    f = data.draw(st.sampled_from([f for f in fields(cls) if f.metadata or kind(f) == "bool"]))
    value = data.draw(bad_values(f))
    with pytest.raises(error, match=f"^{f.name} must be "):
        cls(**{**args, f.name: value})
