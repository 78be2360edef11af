"""Property: a crash at ANY cloud-op step of a write recovers clean.

The crash-consistency contract is not "most crash points are fine" — it is
universal: for every scheme and every 1-based ordinal at which the client
can die during an overwrite, the replacement client (inheriting only the
durable state: intent journal + write logs) must recover to a state where

- the journal is drained (the intent rolled forward or back, never stuck);
- every write log is empty (nothing pending against a healthy fleet);
- the object reads back as exactly the old or the new payload, matching
  the direction recovery reported;
- a deep audit of the object passes and no orphaned fragments remain.

The exhaustive test *enumerates* every crash ordinal per scheme (the walk
stops at the first ordinal past the op's last cloud request, detected by
the schedule never firing); hypothesis then varies the seed — and with it
payload bytes, placement draws and fragment sizes — across random
(scheme, ordinal) pairs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import model as inv
from repro.chaos.engine import CHAOS_SCHEMES, chaos_resilience, replace_client
from repro.chaos.model import ReferenceModel
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.schemes import build_scheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

# No scheme's overwrite issues anywhere near this many cloud requests; the
# enumeration asserts it terminates rather than looping forever.
_MAX_STEPS = 200


def _crash_trial(scheme_name: str, seed: int, ordinal: int) -> str:
    """Overwrite with a scripted crash at ``ordinal``; recover; verify.

    Returns ``"committed"`` when the ordinal lies past the op's last cloud
    request (the schedule never fired), else asserts the recovered world is
    invariant-clean and returns ``"crashed"``.
    """
    rng = make_rng(seed, "crash-prop", scheme_name, ordinal)
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    build = lambda: build_scheme(scheme_name, fleet, clock, resilience=chaos_resilience())  # noqa: E731
    scheme, model, path = build(), ReferenceModel(), "/prop/f0"
    journal = scheme.attach_journal()
    model.put(scheme, path, rng.bytes(32 * 1024))
    scheme.install_crash_schedule(CrashSchedule([ordinal]))
    try:
        model.put(scheme, path, rng.bytes(32 * 1024))
    except ClientCrash:
        pass
    else:
        return "committed"

    # The replacement client inherits only durable state: journal + logs.
    dead, scheme = scheme, build()
    summary = replace_client(dead, scheme)
    model.recovered(summary)
    assert inv.check_journal_drained(journal) == []
    assert inv.check_writelog_convergence(scheme) == []
    resolved = summary["rolled_forward"] + summary["rolled_back"]
    assert len(resolved) == 1 and resolved[0]["path"] == path
    model.get(scheme, path)  # exactly the side recovery reported
    assert not any(model.findings.values()), f"{scheme_name} @ {ordinal}: {model.findings}"
    audit = scheme.verify_object(path, deep=True)
    assert inv.check_namespace_provider_audit(scheme, [audit]) == []
    return "crashed"


@pytest.mark.parametrize("scheme_name", CHAOS_SCHEMES)
def test_every_crash_point_of_a_write_recovers(scheme_name):
    """Exhaustive: kill the client at step 1, 2, 3, ... until the op's
    cloud-request stream runs out; every single point must recover."""
    ordinal = 1
    while _crash_trial(scheme_name, seed=0, ordinal=ordinal) == "crashed":
        ordinal += 1
        assert ordinal <= _MAX_STEPS, "enumeration failed to terminate"
    assert ordinal > 1, "overwrite issued no cloud requests?"


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_seeds_and_crash_points_recover(data):
    scheme_name = data.draw(st.sampled_from(CHAOS_SCHEMES))
    seed = data.draw(st.integers(min_value=1, max_value=2**20))
    ordinal = data.draw(st.integers(min_value=1, max_value=40))
    _crash_trial(scheme_name, seed, ordinal)
