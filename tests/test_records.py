"""The one JSON writer and reader of persisted records."""

import dataclasses
import re
import types
import typing

import numpy as np
import pytest

from headlearn.dataset import CollectionProtocol, DatasetMeta
from headlearn.errors import ConfigError, UnsupportedVersionError
from headlearn.features import MinMaxStats
from headlearn.learn import LinearModel, MlpModel, PcaModel
from headlearn.records import READERS, from_json, to_json
from headlearn.retarget import PipelineModel
from headlearn.simulator import HeadConfig


def leaf_types(tp, seen: set):
    """The leaf annotations reachable from ``tp`` through records, lists,
    tuples and unions; a union of several records must be tagged."""
    if dataclasses.is_dataclass(tp):
        if tp not in seen:
            seen.add(tp)
            hints = typing.get_type_hints(tp)
            for f in dataclasses.fields(tp):
                yield from leaf_types(hints[f.name], seen)
        return
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in args if a is not type(None)]
        if len(members) > 1:
            assert len({m.TAG[0] for m in members}) == 1, f"{tp} is not a tagged union"
        args = members
    elif origin not in (list, tuple):
        yield tp
        return
    for arg in args:
        if arg is not Ellipsis:
            yield from leaf_types(arg, seen)


@pytest.mark.parametrize("record", [PipelineModel, HeadConfig, CollectionProtocol, DatasetMeta])
def test_every_persisted_field_has_a_reader(record):
    assert set(leaf_types(record, set())) <= set(READERS)


@dataclasses.dataclass
class Unreadable:
    tags: set[str]


def test_walk_finds_an_unreadable_field():
    assert set(leaf_types(Unreadable, set())) - set(READERS) == {set[str]}
    with pytest.raises(TypeError, match=re.escape("u.tags: no JSON reader for set[str]")):
        from_json(Unreadable, {"tags": []}, "u")


@pytest.fixture
def pca_doc():
    return to_json(PcaModel(np.zeros(3), np.eye(3)[:2], np.array([0.6, 0.3])))


def test_error_names_the_file_and_the_key_path(pca_doc):
    pca_doc["mean"][1] = "abc"
    msg = "m.json.pca.mean: could not convert string to float: 'abc'"
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
        from_json(PcaModel, pca_doc, "m.json.pca")


@pytest.mark.parametrize("key, at, value, cell", [
    ("mean", (1,), float("nan"), "nan at [1]"),
    ("components", (1, 2), float("inf"), "inf at [1][2]"),
    ("explained_variance_ratio", (0,), float("-inf"), "-inf at [0]"),
])
def test_non_finite_array_leaf_names_the_key_path(pca_doc, key, at, value, cell):
    node = pca_doc[key]
    for i in at[:-1]:
        node = node[i]
    node[at[-1]] = value
    msg = f"m.json.pca.{key}: expected finite numbers, got {cell}"
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
        from_json(PcaModel, pca_doc, "m.json.pca")


def test_non_finite_float_scalar_is_read():
    # a float field may hold NaN by design, e.g. an MLP's final loss
    doc = to_json(MlpModel([np.ones((9, 2))], [np.zeros(9)], "tanh", np.zeros(2), np.ones(2)))
    assert np.isnan(doc["final_train_loss"])
    assert np.isnan(from_json(MlpModel, doc, "m").final_train_loss)


def test_constructor_error_is_raised_again_with_the_path(pca_doc):
    pca_doc["mean"].pop()
    with pytest.raises(ConfigError, match=r"^m\.json\.pca: PCA components are 2 x 3"):
        from_json(PcaModel, pca_doc, "m.json.pca")


def test_retired_keys_are_read_and_dropped():
    stats = from_json(MinMaxStats, {"mins": [0.0], "maxs": [1.0], "kind": "au"}, "s")
    assert to_json(stats) == {"mins": [0.0], "maxs": [1.0]}


@dataclasses.dataclass
class Holder:
    regressor: LinearModel | MlpModel


@pytest.mark.parametrize("tag", ["forest", "missing"])
def test_union_member_follows_the_tag(tag):
    doc = to_json(LinearModel(np.ones((9, 2)), np.zeros(9)))
    assert isinstance(from_json(Holder, {"regressor": doc}, "h").regressor, LinearModel)
    if tag == "missing":
        del doc["kind"]
    else:
        doc["kind"] = tag
    with pytest.raises(UnsupportedVersionError, match=r"^h\.regressor\.kind: got"):
        from_json(Holder, {"regressor": doc}, "h")
