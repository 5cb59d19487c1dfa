"""The figure rows' claims (repro.bench.figures) on hand-made results."""

from types import SimpleNamespace

from repro.bench.figures import fig4_check


def sweep(points: dict) -> dict:
    """Results keyed like a Fig. 1-4 sweep: ``(x, protocol, seed)``."""
    return {(x, proto, 1): SimpleNamespace(throughput=thr, commit_rate=1.0,
                                           messages_per_commit=10.0)
            for (x, proto), thr in points.items()}


def fig4_results(mvtil_hi: float, twopl_hi: float) -> dict:
    low = {(15, "mvto"): 900.0, (15, "2pl"): 1000.0,
           (15, "mvtil-early"): 1000.0, (15, "mvtil-late"): 1000.0}
    high = {(600, "mvto"): 3000.0, (600, "2pl"): twopl_hi,
            (600, "mvtil-early"): mvtil_hi, (600, "mvtil-late"): mvtil_hi}
    return sweep(low | high)


class TestClaims:
    def test_every_claim_holds(self):
        assert list(fig4_check(fig4_results(6000.0, 5900.0))) == []

    def test_a_missed_claim_names_itself_and_its_numbers(self):
        assert list(fig4_check(fig4_results(5852.7, 5944.7))) == [
            "at 600 clients, mvtil-early throughput above 2pl's: "
            "5852.7 > 5944.7 does not hold"]

    def test_the_low_end_bound_is_strict(self):
        results = fig4_results(6000.0, 5900.0)
        results[15, "2pl", 1].throughput = 900.0  # exactly 0.9x mvtil-early
        assert list(fig4_check(results)) == [
            "at 15 clients, 2pl throughput above 0.9x mvtil-early's: "
            "900 > 900 does not hold"]
