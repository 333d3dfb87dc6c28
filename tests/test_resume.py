"""Resumed interpretation: an extension of the active trace continues from
a fork of the path state that trace's interpretation returned, must reach
the state an interpretation from the entry reaches, and leaves the state it
resumed from as it was."""

import copy
import glob
import os

import pytest

from conftest import DATA_DIR, same_records
from test_constraints import walk_solver_calls

import cunitgen.pipeline as pipeline
import cunitgen.solver as solver_mod
from cunitgen import constraints as con
from cunitgen.config import Config
from cunitgen.frontend.parser import parse_unit
from cunitgen.memory import ApproxFlags, MemoryItem
from cunitgen.symex import PathState, interpret
from cunitgen.typesys import INT

# a1 + 0 > a2 and, later, a2 + 0 > a1 cannot both hold: the second branch's
# true side is unsat after the first one's, and its sibling resumes from the
# same saved state.
CHAIN = """\
int chain(int a1, int a2, int a3, int a4)
{
    int r = 0;
    if (a1 + 0 > a2) r = r + 1;
    if (a2 - 3 > a3) r = r + 2;
    if (a3 + 5 > a4) r = r + 4;
    if (a2 + 0 > a1) r = r + 8;
    if (a4 - 1 > a2) r = r + 16;
    return r;
}
"""

# Reading n->data makes a new pointer input, whose region becomes a base
# candidate of q; a state saved before that read was built with fewer
# candidates for *q than an interpretation from the entry now sees.
POINTER_READS = """\
struct node { int *data; int v; };

int f(int *q, struct node *n, int x)
{
    int r = 0;
    int *p;
    if (*q > 3) {
        if (x > 10) {
            p = n->data;
            if (x < 5)
                r = *p;
            if (*p == x)
                r = 2;
        }
        if (x == 2)
            r = 5;
    }
    return r;
}
"""


def _cases():
    cases = [("chain", CHAIN, "chain"), ("pointer_reads", POINTER_READS, "f")]
    for path in sorted(glob.glob(os.path.join(DATA_DIR, "*.c"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for fn in parse_unit(text, path).functions:
            if fn.body is not None and not fn.annotation_only:
                cases.append((f"{os.path.basename(path)}:{fn.name}", text, fn.name))
    return cases


CASES = _cases()


def _observable(state: PathState):
    """Everything later steps read from a path state. The constraint is
    built from a shallow copy, so the head conjoin records lands there."""
    c = con.conjoin(copy.copy(state))
    items = [(i.base, i.offset, i.length, i.value, i.bit) for i in state.items]
    # the free table's order breaks ties in the solver's branching and fixes
    # the model's order, and dict equality ignores it
    return (c.conjuncts, list(c.free.items()), c.segments, state.infeasible_branch,
            items, state.return_value, state.flags.notes)


def _generate(text: str, name: str, resume: bool, monkeypatch):
    """Per interpretation: the state and whether the checkpoint applied,
    was refused because regions were added, or was absent."""
    log = []

    def recording(trace, *args, **kwargs):
        checkpoint = kwargs.get("resume")
        if not resume:
            kwargs.pop("resume", None)
        state = interpret(trace, *args, **kwargs)
        extends = checkpoint is not None \
            and len(trace.nodes) >= len(checkpoint.nodes) \
            and all(a is b for a, b in zip(checkpoint.nodes, trace.nodes))
        if state.resumed_at:
            how = "resumed"
        elif resume and extends:
            how = "regions grew"
        else:
            how = "entry"
        log.append((state, how))
        return state

    monkeypatch.setattr(pipeline, "interpret", recording)
    unit = parse_unit(text, "<resume>")
    outcome = pipeline.generate_function(
        unit, unit.function(name), Config(out_dir="/tmp/ctg-resume", ptr_array_size=3))
    assert outcome.status == "ok", outcome.message
    return log


@pytest.mark.parametrize("label,text,name", CASES, ids=[c[0] for c in CASES])
def test_resumed_state_equals_interpretation_from_entry(label, text, name, monkeypatch):
    fresh = _generate(text, name, False, monkeypatch)
    resumed = _generate(text, name, True, monkeypatch)
    assert len(resumed) == len(fresh)
    for i, ((a, _), (b, how)) in enumerate(zip(fresh, resumed)):
        assert same_records(_observable(a), _observable(b)), f"interpretation {i} ({how})"
    hows = {how for _, how in resumed}
    if label == "chain":
        assert "resumed" in hows
    if label == "pointer_reads":
        assert {"resumed", "regions grew"} <= hows


@pytest.mark.parametrize("label,text,name", CASES, ids=[c[0] for c in CASES])
def test_resumed_constraint_equals_one_built_whole(label, text, name, monkeypatch):
    """The constraint of a resumed state, which starts from its checkpoint's
    head, is the one built from all of the state at the same moment."""
    real_conjoin = con.conjoin
    heads = []  # per resumed state: whether its checkpoint's head was used

    def checking_conjoin(state):
        c = real_conjoin(state)
        if state.resumed_at:
            heads.append(state.resumed_head() is not None)
            without_head = copy.copy(state)
            without_head.resumed_from_head = None
            whole = real_conjoin(without_head)
            assert same_records((c.conjuncts, list(c.free.items()), c.segments),
                                (whole.conjuncts, list(whole.free.items()), whole.segments))
        return c

    monkeypatch.setattr(con, "conjoin", checking_conjoin)
    unit = parse_unit(text, "<resume>")
    outcome = pipeline.generate_function(
        unit, unit.function(name), Config(out_dir="/tmp/ctg-resume", ptr_array_size=3))
    assert outcome.status == "ok", outcome.message
    if label == "chain":
        assert heads and all(heads)
    if label == "pointer_reads":
        # a read during the resumed interpretation added a pointer input
        assert set(heads) == {True, False}


def _answer(result):
    model = list(result.model.values.items()) if result.model is not None else None
    return result.status, result.reason, result.nodes, model


def _full_check_solve(real_solve, partial):
    """solve, asserting that each answer is the one solving the whole
    constraint with the same hint gives, although the hint is checked only
    past what it is known to solve; appends to partial, per call given a
    constraint the hint solves, whether the check skipped shared conjuncts."""
    def checking_solve(constraint, max_nodes, hint=None, hint_holds=None, fixpoint=None):
        result = real_solve(constraint, max_nodes, hint=hint, hint_holds=hint_holds,
                            fixpoint=fixpoint)
        assert _answer(result) == _answer(real_solve(constraint, max_nodes, hint=hint))
        if hint_holds is not None:
            partial.append(solver_mod._shared(constraint.conjuncts, hint_holds.conjuncts) > 0)
        return result

    return checking_solve


@pytest.mark.parametrize("label,text,name", CASES, ids=[c[0] for c in CASES])
def test_resumed_answers_equal_the_full_hint_check(label, text, name, monkeypatch):
    """Every solver answer, in the main loop, the prefix scan and the tag
    pass, after a resumed interpretation or not, is the one the full hint
    check gives."""
    partial = []
    monkeypatch.setattr(pipeline, "solve", _full_check_solve(pipeline.solve, partial))
    unit = parse_unit(text, "<resume>")
    outcome = pipeline.generate_function(
        unit, unit.function(name), Config(out_dir="/tmp/ctg-resume", ptr_array_size=3))
    assert outcome.status == "ok", outcome.message
    if label in ("chain", "pointer_reads"):
        assert any(partial)


def test_pipeline_answers_equal_the_full_hint_check(monkeypatch, tmp_path):
    """The same over every unit the solver-call walk generates."""
    partial = []
    monkeypatch.setattr(pipeline, "solve", _full_check_solve(pipeline.solve, partial))
    assert walk_solver_calls(monkeypatch, tmp_path, lambda where, constraint: None)
    assert any(partial)


def test_fork_copies_every_mutable_part(monkeypatch):
    log = _generate(CHAIN, "chain", True, monkeypatch)
    state = next(s for s, _ in log if s.items and s.branches)
    state.flags.mark("note")
    state.flags.fresh(INT)
    fork = state.fork()
    for name, a in vars(state).items():
        b = getattr(fork, name)
        if isinstance(a, (list, dict, ApproxFlags)):
            assert a is not b, name
    # the items are shared, and none of them can change
    assert all(x is y for x, y in zip(state.items, fork.items))
    with pytest.raises(AttributeError):
        fork.items[-1].value = fork.items[0].value
    # steps on the fork leave the original as it was
    before = _observable(state)
    fork.add_item(MemoryItem(**vars(fork.items[-1])))
    fork.flags.mark("fork only")
    assert fork.flags.fresh(INT).name == "__approx@2"
    assert state.flags.fresh(INT).name == "__approx@2"
    assert same_records(_observable(state), before)


def test_resumed_from_state_stays_as_it_was(monkeypatch):
    """Every interpretation that resumes from a state, the sibling that
    resumes after an unsat extension included, leaves it as it was."""
    real_interpret, real_solve = pipeline.interpret, pipeline.solve
    before = {}  # id of a resumed-from state: (the state, its observable)
    log = []  # per interpretation: [id of the state it resumed from, first answer]

    def checking_interpret(trace, *args, **kwargs):
        origin = kwargs.get("resume")
        if origin is not None:
            before.setdefault(id(origin), (origin, _observable(origin)))
        state = real_interpret(trace, *args, **kwargs)
        log.append([id(origin) if state.resumed_at else None, None])
        for kept, seen in before.values():
            assert same_records(_observable(kept), seen)
        return state

    def recording_solve(*args, **kwargs):
        result = real_solve(*args, **kwargs)
        if log and log[-1][1] is None:
            log[-1][1] = result.status
        return result

    monkeypatch.setattr(pipeline, "interpret", checking_interpret)
    monkeypatch.setattr(pipeline, "solve", recording_solve)
    unit = parse_unit(CHAIN, "<resume>")
    outcome = pipeline.generate_function(
        unit, unit.function("chain"), Config(out_dir="/tmp/ctg-resume", ptr_array_size=3))
    assert outcome.status == "ok", outcome.message
    # an extension that was unsat, then its sibling from the same state
    assert any(a[0] is not None and a[1] == "unsat" and b[0] == a[0]
               for a, b in zip(log, log[1:]))
