"""Property-based tests: bandwidth-model physics invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import bandwidth
from repro.sim.bandwidth import TransferSpec, _waterfill_rates, simulate_transfers


@st.composite
def spec_batch(draw):
    n = draw(st.integers(1, 8))
    specs = []
    for _ in range(n):
        specs.append(
            TransferSpec(
                start_delay=draw(st.floats(0, 5, allow_nan=False)),
                size_bytes=draw(st.floats(0, 1e6, allow_nan=False)),
                remote_cap=draw(
                    st.one_of(st.floats(1.0, 1e7), st.just(math.inf))
                ),
            )
        )
    link = draw(st.floats(1.0, 1e7, allow_nan=False))
    return specs, link


class TestWaterfillProperties:
    @given(
        caps=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=10),
        link=st.floats(0.1, 1e6),
    )
    def test_rates_feasible(self, caps, link):
        rates = _waterfill_rates(caps, link)
        assert sum(rates) <= link * (1 + 1e-9)
        for rate, cap in zip(rates, caps):
            assert 0 <= rate <= cap * (1 + 1e-9)

    @given(
        caps=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=10),
        link=st.floats(0.1, 1e6),
    )
    def test_work_conserving(self, caps, link):
        """Either the link is saturated or every transfer is at its cap."""
        rates = _waterfill_rates(caps, link)
        saturated = sum(rates) >= link * (1 - 1e-9)
        all_capped = all(r >= c * (1 - 1e-9) for r, c in zip(rates, caps))
        assert saturated or all_capped

    @given(
        caps=st.lists(st.floats(0.1, 1e6), min_size=2, max_size=10),
        link=st.floats(0.1, 1e6),
    )
    def test_max_min_fairness(self, caps, link):
        """Uncapped transfers all receive the same (maximal) rate."""
        rates = _waterfill_rates(caps, link)
        uncapped = [r for r, c in zip(rates, caps) if r < c * (1 - 1e-9)]
        if len(uncapped) >= 2:
            assert max(uncapped) - min(uncapped) < 1e-6 * max(uncapped)


class TestSimulationProperties:
    @given(batch=spec_batch())
    @settings(max_examples=80, deadline=None)
    def test_finish_after_start(self, batch):
        specs, link = batch
        for spec, finish in zip(specs, simulate_transfers(specs, link)):
            assert finish >= spec.start_delay - 1e-9

    @given(batch=spec_batch())
    @settings(max_examples=80, deadline=None)
    def test_finish_no_faster_than_dedicated_link(self, batch):
        """No transfer can beat having the whole link plus its cap to itself."""
        specs, link = batch
        for spec, finish in zip(specs, simulate_transfers(specs, link)):
            best = spec.start_delay + spec.size_bytes / min(spec.remote_cap, link)
            assert finish >= best - max(1e-6 * best, 1e-6)

    @given(batch=spec_batch())
    @settings(max_examples=80, deadline=None)
    def test_finish_no_slower_than_serialized(self, batch):
        """All transfers must drain by (last start) + (total bytes / link) +
        (slowest individual cap time)."""
        specs, link = batch
        finishes = simulate_transfers(specs, link)
        latest_start = max(s.start_delay for s in specs)
        total = sum(s.size_bytes for s in specs)
        cap_tail = max(s.size_bytes / s.remote_cap for s in specs)
        bound = latest_start + total / link + cap_tail + 1e-6
        assert max(finishes) <= bound * (1 + 1e-6)

    @given(batch=spec_batch())
    @settings(max_examples=50, deadline=None)
    def test_adding_a_transfer_never_speeds_others_up(self, batch):
        specs, link = batch
        base = simulate_transfers(specs, link)
        extra = specs + [TransferSpec(0.0, 1e5, math.inf)]
        with_extra = simulate_transfers(extra, link)
        for b, w in zip(base, with_extra):
            assert w >= b - max(1e-6 * b, 1e-6)


class TestSingleTransferClosedForm:
    """A lone transfer is answered in closed form, equal to the loop bit for bit.

    The oracle is the general loop itself: a zero-byte companion never enters
    its pending set, so ``simulate_transfers([s, companion])[0]`` is the old
    single-iteration loop's answer for ``s``.
    """

    @given(
        start=st.one_of(st.just(0.0), st.floats(0.0, 50.0, exclude_min=True)),
        size=st.one_of(
            st.just(0.0),
            st.floats(0.0, bandwidth._EPS_BYTES),
            st.floats(1.0, 1e11),
        ),
        cap=st.one_of(st.floats(1.0, 1e9), st.just(math.inf)),
        link=st.floats(1.0, 1e9),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_loops_single_iteration(self, start, size, cap, link):
        spec = TransferSpec(start, size, cap)
        alone = simulate_transfers([spec], link)[0]
        looped = simulate_transfers([spec, TransferSpec(spec.start_delay, 0.0)], link)[0]
        assert alone == looped

    def test_waterfilling_runs_for_two_transfers_only(self, monkeypatch):
        calls = []
        waterfill = bandwidth._waterfill_rates

        def counting(caps, link_capacity):
            calls.append(len(caps))
            return waterfill(caps, link_capacity)

        monkeypatch.setattr(bandwidth, "_waterfill_rates", counting)
        spec = TransferSpec(0.05, 16384.0, 11e6)
        simulate_transfers([spec], 25e6)
        assert calls == []
        simulate_transfers([spec, spec], 25e6)
        assert calls and max(calls) == 2
