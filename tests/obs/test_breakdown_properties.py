"""FCT attribution conservation as a property under composed chaos.

The breakdown's core contract: whatever the network does to a flow, the
per-component times *partition* its lifetime — they sum to the FCT
within float tolerance.  Hypothesis composes a random impairment mix
(loss, reordering, duplication, delay jitter — any subset, on either
direction, with drawn parameters) into an ad-hoc profile, runs an
audited + attributed sweep cell under it for TCP and Halfback, and
checks conservation at both enforcement points: the
``fct-conservation`` audit checker stays silent, and the merged
:class:`~repro.obs.critical.BreakdownAggregator` agrees.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos.impairments import (
    DelayJitter,
    Duplication,
    GilbertElliottLoss,
    Reordering,
)
from repro.chaos.profiles import ChaosProfile
from repro.chaos.sweep import run_cell
from repro.obs.critical import BreakdownAggregator
from repro.obs.spans import CONSERVATION_TOLERANCE

# One entry per impairment family the breakdown must stay conserved
# under: loss, reordering, duplication, and delay jitter.
IMPAIRMENT_STRATEGIES = [
    st.tuples(st.just(GilbertElliottLoss),
              st.fixed_dictionaries({
                  "p_enter_bad": st.floats(0.0, 0.05),
                  "p_exit_bad": st.floats(0.1, 0.9),
                  "loss_bad": st.floats(0.2, 0.8),
              })),
    st.tuples(st.just(Reordering),
              st.fixed_dictionaries({
                  "swap_prob": st.floats(0.0, 0.5),
              })),
    st.tuples(st.just(Duplication),
              st.fixed_dictionaries({
                  "prob": st.floats(0.0, 0.1),
              })),
    st.tuples(st.just(DelayJitter),
              st.fixed_dictionaries({
                  "amplitude": st.floats(0.0, 0.01),
              })),
]

placements = st.lists(
    st.tuples(st.sampled_from(["forward", "reverse"]),
              st.one_of(IMPAIRMENT_STRATEGIES)),
    min_size=1, max_size=3,
)


def composed_profile(recipe, seed: int) -> ChaosProfile:
    """An ad-hoc (unregistered) profile from a drawn recipe."""

    def build(profile_seed):
        return [(direction, factory(seed=profile_seed, **kwargs))
                for direction, (factory, kwargs) in recipe]

    return ChaosProfile("composed", "hypothesis-drawn impairment mix",
                        build, seed=seed)


class TestConservationUnderChaos:
    @settings(max_examples=12, deadline=None)
    @given(
        recipe=placements,
        protocol=st.sampled_from(["tcp", "halfback"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_components_sum_to_fct(self, recipe, protocol, seed):
        cell = run_cell(protocol, composed_profile(recipe, seed),
                        seed=seed, n_flows=2, size=30_000,
                        audit=True, breakdown=True)
        # Enforcement point 1: the audit checker judges every flow's
        # breakdown from the recorder's shared span builder and flags
        # any whose components fail to sum to the flow.complete FCT.
        conservation = [v for v in cell.violations
                        if "fct-conservation" in v]
        assert conservation == [], "\n".join(conservation)
        if not cell.completed:
            return  # chaos killed every flow; nothing to attribute
        # Enforcement point 2: the cell-local session saw every
        # completed flow and its own max error stays inside tolerance
        # (fct_sum bounds any single flow's FCT from above).
        assert cell.breakdown is not None
        agg = BreakdownAggregator.from_dict(cell.breakdown)
        assert agg.flows == cell.completed
        for name in agg.protocols():
            stats = agg.by_protocol[name]
            tol = CONSERVATION_TOLERANCE * max(1.0, stats.fct_sum)
            assert stats.max_conservation_error <= tol, (
                name, stats.max_conservation_error)
            # The sums conserve in aggregate too: per-flow partitions
            # add up across flows.
            total = sum(stats.component_sums.values())
            assert abs(total - stats.fct_sum) <= stats.flows * tol
