"""Randomized solver properties at development scale.

The acceptance suite runs the same drivers at the full stated volumes
(10,000 constraints); here a smaller sample keeps the feedback loop quick
while exercising identical code paths.
"""

import random

from property_checks import (
    make_constraint,
    run_float_stream,
    run_model_soundness,
    run_pointer_compare_bruteforce,
    run_unsat_agreement,
)

from cunitgen.solver import solve
from cunitgen.typesys import SHORT, UCHAR


class TestModelSoundness:
    def test_random_sample(self):
        stats = run_model_soundness(1500, seed=411)
        assert stats.bad_models == 0
        assert stats.sats > stats.total // 2
        assert stats.unknowns < stats.total // 3


class TestFloatStream:
    def test_random_float_constraints(self):
        # float symbols search their seed sets in the one search: models
        # verify, covering the seeds proves nothing, answers repeat
        stats = run_float_stream(400, seed=2718)
        assert stats.bad_models == 0
        assert stats.unsats_with_float == 0
        assert stats.unrepeatable == 0
        assert stats.sats > 400 // 2


class TestUnsatAgreement:
    def test_signed_char_domain(self):
        stats = run_unsat_agreement(400, seed=99)
        assert stats.disagreements == 0
        assert stats.checked > 300

    def test_unsigned_char_domain(self):
        stats = run_unsat_agreement(300, seed=5150, t=UCHAR)
        assert stats.disagreements == 0
        assert stats.checked > 200


class TestPointerCompareBruteForce:
    def test_all_omegas_all_dims(self):
        assert run_pointer_compare_bruteforce(max_dim=4) == 96


class TestDeterminism:
    def test_random_constraints_solve_identically(self):
        rng = random.Random(4242)
        for _ in range(150):
            c = make_constraint(rng, SHORT, n_syms=2)
            a = solve(c, max_nodes=500)
            b = solve(c, max_nodes=500)
            assert a.status == b.status
            if a.status == "sat":
                assert a.model.values == b.model.values
