"""Unit tests for trace monitors, including the repair-property shape."""

import numpy as np
import pytest

from repro.properties import Atom, Eventually, Globally, Next, Not, Until
from repro.properties.monitor import MaskSpec
from repro.properties.monitor import Verdict as V


def run(formula, chain, states):
    monitor = formula.compile(chain)()
    verdict = V.UNDECIDED
    for state in states:
        verdict = monitor.update(state)
        if verdict.decided:
            break
    return verdict


class TestVerdict:
    def test_negation(self):
        assert V.TRUE.negate() is V.FALSE
        assert V.FALSE.negate() is V.TRUE
        assert V.UNDECIDED.negate() is V.UNDECIDED

    def test_decided(self):
        assert V.TRUE.decided and V.FALSE.decided and not V.UNDECIDED.decided


class TestUntilMonitor:
    def test_immediate_success(self, small_chain):
        assert run(Eventually(Atom("init")), small_chain, [0]) is V.TRUE

    def test_success_later(self, small_chain):
        assert run(Eventually(Atom("goal")), small_chain, [0, 1, 2]) is V.TRUE

    def test_lhs_violation_fails(self, small_chain):
        formula = Until(Not(Atom("fail")), Atom("goal"))
        assert run(formula, small_chain, [0, 3]) is V.FALSE

    def test_bound_exhaustion(self, small_chain):
        formula = Eventually(Atom("goal"), bound=1)
        assert run(formula, small_chain, [0, 1, 2]) is V.FALSE

    def test_bound_exactly_reached(self, small_chain):
        formula = Eventually(Atom("goal"), bound=2)
        assert run(formula, small_chain, [0, 1, 2]) is V.TRUE

    def test_undecided_without_goal(self, small_chain):
        assert run(Eventually(Atom("goal")), small_chain, [0, 1, 0, 1]) is V.UNDECIDED


class TestNextUntilMonitor:
    """The (X !init) U goal shape of the repair property."""

    def formula(self):
        return Until(Next(Not(Atom("init"))), Atom("goal"))

    def test_position_zero_exempt(self, small_chain):
        # Path starts at init; exemption means no immediate failure.
        assert run(self.formula(), small_chain, [0, 1, 2]) is V.TRUE

    def test_return_to_init_fails(self, small_chain):
        assert run(self.formula(), small_chain, [0, 1, 0]) is V.FALSE

    def test_goal_at_position_zero(self, small_chain):
        assert run(self.formula(), small_chain, [2]) is V.TRUE

    def test_rhs_needs_lhs_at_k(self, small_chain):
        # goal at position >= 1 must also satisfy the (shifted) lhs; "goal"
        # here never overlaps "init" so success is allowed.
        assert run(self.formula(), small_chain, [3, 1, 2]) is V.TRUE

    def test_bound_zero(self, small_chain):
        formula = Until(Next(Not(Atom("init"))), Atom("goal"), bound=0)
        assert run(formula, small_chain, [0, 1, 2]) is V.FALSE
        assert run(formula, small_chain, [2]) is V.TRUE


class TestOtherMonitors:
    def test_next_shifts(self, small_chain):
        formula = Next(Atom("goal"))
        assert run(formula, small_chain, [0, 2]) is V.TRUE
        assert run(formula, small_chain, [2, 0]) is V.FALSE

    def test_globally_bounded(self, small_chain):
        formula = Globally(Not(Atom("fail")), 2)
        assert run(formula, small_chain, [0, 1, 0]) is V.TRUE
        assert run(formula, small_chain, [0, 3, 0]) is V.FALSE

    def test_not_wraps(self, small_chain):
        formula = Not(Eventually(Atom("goal"), 1))
        assert run(formula, small_chain, [0, 1]) is V.TRUE
        assert run(formula, small_chain, [0, 2]) is V.FALSE

    def test_and_combines(self, small_chain):
        formula = Eventually(Atom("goal"), 3) & Globally(Not(Atom("fail")), 3)
        # G<=3 only decides TRUE after 3 transitions have elapsed.
        assert run(formula, small_chain, [0, 1, 2, 2]) is V.TRUE
        assert run(formula, small_chain, [0, 3]) is V.FALSE

    def test_or_short_circuits(self, small_chain):
        formula = Eventually(Atom("goal"), 2) | Eventually(Atom("fail"), 2)
        assert run(formula, small_chain, [0, 3]) is V.TRUE

    def test_monitor_verdict_is_stable(self, small_chain):
        monitor = Eventually(Atom("goal"), 2).compile(small_chain)()
        assert monitor.update(2) is V.TRUE
        assert monitor.update(3) is V.TRUE  # stays decided

    def test_state_check_monitor(self, small_chain):
        monitor = Atom("init").compile(small_chain)()
        assert monitor.update(0) is V.TRUE
        monitor2 = Atom("init").compile(small_chain)()
        assert monitor2.update(1) is V.FALSE

    def test_horizon_exposed(self, small_chain):
        factory = Eventually(Atom("goal"), 7).compile(small_chain)
        assert factory().horizon == 7
        assert Eventually(Atom("goal")).compile(small_chain)().horizon is None


class TestMaskSpec:
    def test_fragment_formulas_compile_to_specs(self, small_chain):
        assert Atom("init").mask_spec(small_chain).kind == "state"
        spec = Next(Eventually(Atom("goal"), 4)).mask_spec(small_chain)
        assert (spec.kind, spec.bound, spec.n_next) == ("until", 4, 1)
        spec = Globally(Not(Atom("fail")), 3).mask_spec(small_chain)
        assert (spec.kind, spec.bound) == ("globally", 3)
        either = Eventually(Atom("goal"), 2) | Eventually(Atom("fail"), 2)
        assert either.mask_spec(small_chain) is None

    def test_at_most_one_leading_next(self):
        with pytest.raises(ValueError, match="n_next"):
            MaskSpec(kind="until", rhs=np.zeros(3, dtype=bool), n_next=2)
