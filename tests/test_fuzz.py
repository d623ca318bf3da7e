"""The CLI under hostile documents: a family or path document after one
mutation is either accepted by its reader or refused by every command that
reads it, with exit 2 and one ``error:`` line, never a traceback."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccert import ControlHamiltonian, load_path
from speccert.cli import main
from conftest import SIGMA_X, SIGMA_Z, make_family

FAMILY = make_family(np.diag([0.0, 1.0]), [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]]).to_json_dict()
PATH = {"waypoints": [[-0.5, 0.0], [0.5, 0.0]], "durations": [1.0], "epsilon": 0.1}

# each command's flags past --input and --out; a refused document ends the
# command before it searches or propagates
COMMANDS = {
    "spectrum": ["--grid", "2"],
    "find-intersections": ["--seed", "0", "--budget", "1"],
    "certify": ["--seed", "0", "--budget", "1", "--resonance-budget", "1"],
    "synthesize": ["--seed", "0", "--level", "1", "--rho", "0.1", "--epsilon", "0.1"],
    "simulate": [],
}

REPLACEMENTS = {
    "bool": True,
    "null": None,
    "string": "1.0",
    "dict": {},
    "list": [],
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
}


def locations(doc, where=()) -> list:
    """The key or index path to every value below the document's root."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    found = []
    for key, value in items:
        found += [where + (key,), *locations(value, where + (key,))]
    return found


def mutated(draw, doc):
    """``doc`` after one mutation: a value replaced, nested one list deeper or
    one shallower, or deleted."""
    doc = copy.deepcopy(doc)
    *parents, key = draw(st.sampled_from(locations(doc)))
    container = doc
    for step in parents:
        container = container[step]
    value = container[key]
    kinds = [*REPLACEMENTS, "nest", "delete"] + (["unnest"] if isinstance(value, list) and value else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "delete":
        del container[key]
    elif kind == "nest":
        container[key] = [value]
    elif kind == "unnest":
        container[key] = value[0]
    else:
        container[key] = REPLACEMENTS[kind]
    return doc


def refused(read) -> bool:
    try:
        read()
    except Exception:
        return True
    return False


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_refused_document_exits_2_with_one_error_line(workdir, data):
    family, path = workdir / "family.json", workdir / "path.json"
    if data.draw(st.booleans(), label="mutate the path"):
        command = "simulate"
        family.write_text(json.dumps(FAMILY))
        path.write_text(json.dumps(mutated(data.draw, PATH)))
        if not refused(lambda: load_path(path)):
            return
    else:
        command = data.draw(st.sampled_from(sorted(COMMANDS)))
        text = json.dumps(mutated(data.draw, FAMILY))
        family.write_text(text)
        path.write_text(json.dumps(PATH))
        if not refused(lambda: ControlHamiltonian.from_json_dict(json.loads(text))):
            return
    argv = [command, "--input", str(family), "--out", str(workdir / "out"), *COMMANDS[command]]
    if command == "simulate":
        argv += ["--path", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert out.getvalue() == ""
