"""Extension — storage availability, the paper's titular metric, quantified.

The paper motivates Cloud-of-Clouds with availability (§I, §II) but reports
only latency and cost; this benchmark supplies the availability numbers:
analytic k-of-n availability per scheme plus a Monte-Carlo outage simulation
whose nines must bracket it, row by row.
"""

import math

from repro.analysis.availability import analytic_report, monte_carlo_nines, nines
from repro.analysis.tables import render_table


def _band_text(band) -> str:
    if band.nines == math.inf:
        return f"> {band.low:.2f} (none seen)"
    return f"{band.nines:.3f} ({band.low:.2f}-{band.high:.2f})"


def test_availability_analytic_vs_monte_carlo(benchmark, emit):
    def experiment():
        analytic = analytic_report()  # MTBF 60 d, MTTR 12 h per provider
        # 20 seeds x 300 000 days of exact outage-window intersection
        return analytic, monte_carlo_nines()

    analytic, bands = benchmark.pedantic(experiment, rounds=1, iterations=1)

    order = [
        "single-amazon_s3",
        "single-azure",
        "single-aliyun",
        "single-rackspace",
        "duracloud",
        "racs",
        "nccloud",
        "depsky",
        "depsky-ca",
        "hyrd-small",
        "hyrd-large",
        "hyrd",
    ]
    rows = [
        [
            name,
            analytic[name],
            nines(analytic[name]),
            1.0 - 10.0 ** -bands[name].nines,
            _band_text(bands[name]),
        ]
        for name in order
    ]
    emit(
        render_table(
            ["Scheme", "Analytic avail.", "Nines", "Monte-Carlo avail.", "Monte-Carlo nines (band)"],
            rows,
            title=(
                "Storage availability — provider MTBF 60 days, MTTR 12 hours\n"
                "(the paper's §I scenario: infrequent outages lasting up to days)"
            ),
            floatfmt=".6f",
        )
    )

    singles_best = max(v for k, v in analytic.items() if k.startswith("single-"))
    # The paper's core claim: every Cloud-of-Clouds scheme beats any single
    # cloud on availability — by more than an order of magnitude of downtime.
    for scheme in ("duracloud", "racs", "nccloud", "depsky", "hyrd"):
        assert analytic[scheme] > singles_best
        assert nines(analytic[scheme]) > nines(singles_best) + 1.0
    # Fault-tolerance ordering under equal provider availability.
    assert analytic["depsky"] > analytic["nccloud"] > analytic["racs"]
    # The closed form lies inside every row's Monte-Carlo band, in nines.
    for name in order:
        assert bands[name].admits(nines(analytic[name])), (name, bands[name])


def test_lockin_switching_costs(benchmark, emit):
    """§II-A quantified: leaving any provider under a CoC scheme costs less
    than the single-cloud worst case — the vendor-mobility argument."""
    from repro.analysis.lockin import single_cloud_exit_cost, switching_cost_report

    report = benchmark.pedantic(switching_cost_report, rounds=1, iterations=1)

    rows = [
        [sc.scheme, sc.departed, sc.bytes_read / 1024**3, sc.egress_cost, ", ".join(sc.read_from)]
        for sc in report
    ]
    emit(
        render_table(
            ["Scheme", "Departing", "GB read", "Exit $/GB", "Re-seed from"],
            rows,
            title="Vendor lock-in — egress cost of abandoning one provider",
            floatfmt=".4f",
        )
    )

    s3_lockin = single_cloud_exit_cost("amazon_s3")
    for scheme in ("duracloud", "racs", "hyrd"):
        costs = [sc.egress_cost for sc in report if sc.scheme == scheme]
        # No departure is worse than single-S3 lock-in, and on average the
        # Cloud-of-Clouds keeps the user strictly more mobile.
        assert max(costs) <= s3_lockin + 1e-12, scheme
        assert sum(costs) / len(costs) < s3_lockin, scheme
