"""Instance loader: malformed documents are rejected with a ValueError that
names the field, never with an AttributeError, KeyError or TypeError."""

from __future__ import annotations

import copy
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nols.instances import FAMILIES, InstanceFile, generate_instance
from suite import json_values, mutate


def _load(doc) -> InstanceFile:
    inst = InstanceFile.from_document(doc)
    inst.build_objective()
    inst.build_matroid()
    inst.build_regularizer()
    return inst


def _valid_documents() -> list[dict]:
    docs = [generate_instance(fam, 6, 2, 0).to_document() for fam in
            ("coverage", "partition", "graphic", "modular")]
    docs.append({
        "format_version": 1, "name": "extra", "n": 3, "r": 1,
        "objective": {"kind": "concave_modular", "weights": [1, 2, 3],
                      "shape": "cap", "cap": 4},
        "matroid": {"kind": "explicit", "independent": [[], [0], [1], 4]},
        "regularizer": {"weights": [1, -1, 0.5]},
    })
    docs.append({
        "format_version": 1, "name": "weighted", "n": 2, "r": 1,
        "objective": {"kind": "coverage", "universe": 3, "covers": [[0], [1, 2]],
                      "point_weights": [1, 2.5, 0]},
        "matroid": {"kind": "uniform", "k": 1},
    })
    return docs


VALID = _valid_documents()


def test_valid_documents_load():
    for doc in VALID:
        _load(json.loads(json.dumps(doc)))


def _doc(**changes) -> dict:
    doc = copy.deepcopy(VALID[0])  # coverage objective, uniform matroid
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "doc, field",
    [
        ([1, 2], "instance document"),
        ("text", "instance document"),
        (_doc(n=2.5), "n"),
        (_doc(n=-1), "n"),
        (_doc(n=True), "n"),
        (_doc(r="2"), "r"),
        (_doc(r=-3), "r"),
        (_doc(objective=[1]), "objective"),
        (_doc(objective={"universe": 3}), "objective"),
        (_doc(matroid="uniform"), "matroid"),
        (_doc(matroid={"k": 2}), "matroid"),
        (_doc(objective={"kind": "coverage", "covers": []}), "universe"),
        (_doc(objective={"kind": "modular"}), "weights"),
        (_doc(matroid={"kind": "uniform"}), "'k'"),
        (_doc(matroid={"kind": "partition", "blocks": []}), "capacities"),
        (_doc(matroid={"kind": "graphic", "edges": []}), "vertices"),
        (_doc(matroid={"kind": "explicit"}), "independent"),
        (_doc(regularizer={}), "weights"),
        (_doc(regularizer=[1, 2]), "regularizer"),
        (_doc(objective={"kind": "modular", "weights": [1, "x"]}),
         "objective.weights[1]"),
        (_doc(matroid={"kind": "graphic", "vertices": 3, "edges": [[0, 1], 7]}),
         "matroid.edges[1]"),
        (_doc(matroid={"kind": "graphic", "vertices": 3, "edges": [[0, 1, 2]]}),
         "matroid.edges[0] must be a pair of vertices"),
        (_doc(n=5), "objective ground size disagrees with n"),
        (_doc(matroid={"kind": "graphic", "vertices": 2, "edges": [[0, 1]]}),
         "matroid ground size disagrees with n"),
        (_doc(regularizer={"weights": [1, 2]}), "regularizer length disagrees with n"),
        # json reads NaN and Infinity; a non-finite number is refused by name
        (_doc(n=3, objective={"kind": "modular", "weights": [math.inf, 1, 2]}),
         "objective.weights[0] must be finite"),
        (_doc(n=3, objective={"kind": "modular", "weights": [1, math.nan, 2]}),
         "objective.weights[1] must be finite"),
        (_doc(objective={"kind": "coverage", "universe": 2, "covers": [[0]] * 6,
                         "point_weights": [1, math.inf]}),
         "objective.point_weights[1] must be finite"),
        (_doc(objective={"kind": "coverage", "universe": 2, "covers": [[0]] * 6,
                         "point_weights": [math.nan, 1]}),
         "objective.point_weights[0] must be finite"),
        (_doc(n=3, objective={"kind": "concave_modular", "weights": [1, 2, 3],
                              "shape": "cap", "cap": math.inf}),
         "objective.cap must be finite"),
        (_doc(n=3, objective={"kind": "concave_modular", "weights": [1, 2, 3],
                              "shape": "cap", "cap": math.nan}),
         "objective.cap must be finite"),
        (_doc(regularizer={"weights": [0, 0, -math.inf, 0, 0, 0]}),
         "regularizer.weights[2] must be finite"),
        (_doc(regularizer={"weights": [0, 0, 0, 0, 0, math.nan]}),
         "regularizer.weights[5] must be finite"),
    ],
)
def test_malformed_documents_name_the_field(doc, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        _load(doc)


@given(
    st.sampled_from(range(len(VALID))),
    st.lists(st.integers(0, 50), max_size=4),
    json_values,
)
@settings(max_examples=400, deadline=None)
def test_mutated_documents_load_or_raise_value_error(which, path, value):
    doc = mutate(copy.deepcopy(VALID[which]), path, value)
    try:
        _load(doc)
    except ValueError:
        pass


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_arbitrary_json_loads_or_raises_value_error(doc):
    try:
        _load(doc)
    except ValueError:
        pass


@pytest.mark.parametrize(
    "family, n, r, message",
    [
        ("nosuch", 4, 2, f"unknown family 'nosuch'; choose from {FAMILIES}"),
        ("coverage", 0, 1, "n and r must be positive"),
        ("coverage", 4, 0, "n and r must be positive"),
    ],
    ids=["family", "zero-n", "zero-r"],
)
def test_generator_rejects_a_bad_shape_by_name(family, n, r, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_instance(family, n, r, 0)
