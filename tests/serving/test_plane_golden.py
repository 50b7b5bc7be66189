"""Golden digests of three seeded serving days.

The digests were generated on the scalar per-request loop (the parent
of the array-native event core) and pin the summary, the traced JSONL
and the metrics JSONL byte for byte: any change to batch formation,
shedding, the autoscaler or the order latencies reach the histogram
shows up here as a digest mismatch, not as a tolerance drift.
"""

import hashlib
import json

from repro.serving import (ArrivalProcess, FlashCrowd, Region,
                           ServiceModel, ServingPlane)
from repro.telemetry import Telemetry
from repro.telemetry.export import to_jsonl

from .conftest import cosched_day

SOCS = 16


def service():
    return ServiceModel("m", per_request_s=0.1, batch_overhead_s=0.1,
                        max_batch=4)


def digests(plane) -> dict:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()
    telemetry = plane.telemetry
    return {
        "summary": sha(json.dumps(plane.summary(), sort_keys=True)),
        "trace": sha(to_jsonl(telemetry.tracer)),
        "metrics": sha(telemetry.metrics.to_jsonl()),
    }


def steady_day():
    """Autoscaled day on idle SoCs only, reservoir histogram (the CLI's
    ``--serve --metrics`` mode: one RNG draw per latency, in order)."""
    telemetry = Telemetry.active()
    telemetry.metrics.histogram_reservoir = 512
    proc = ArrivalProcess([Region("east", 12.0, phase_shift_hours=-2.0),
                           Region("west", 9.0, phase_shift_hours=3.0)],
                          horizon_hours=24.0, seed=11)
    plane = ServingPlane(proc, service(), slo_ms=900.0, min_replicas=1,
                         scale_down_patience=2, telemetry=telemetry)
    free = list(range(SOCS))
    plane.bootstrap(free, 0.0)
    hour = 0.0
    while hour < 24.0:
        hour += 0.5                      # two check windows per round
        free = [s for s in range(SOCS) if s not in plane.held_socs]
        plane.advance(min(hour, 24.0), claimable=free)
    plane.advance(24.0, flush=True)
    return plane


def frozen_flash_day():
    """Statically provisioned pool: empty for the first hour (the
    no-replica shedding rule), then three replicas under a 4x flash
    crowd (the shed-by-batch-start rule)."""
    telemetry = Telemetry.active()
    proc = ArrivalProcess([Region("g", 14.0)], horizon_hours=24.0, seed=7,
                          flash_crowds=[FlashCrowd(13.0, 1.5, 4.0)])
    plane = ServingPlane(proc, service(), slo_ms=800.0, shed_after_s=2.0,
                         autoscale=False, telemetry=telemetry)
    plane.advance(1.0)
    plane.provision([0, 1, 2], 1.0)
    plane.advance(24.0, flush=True)
    return plane


def test_steady_autoscaled_day():
    plane = steady_day()
    assert plane.scale_ups > 0 and plane.scale_downs > 0
    assert digests(plane) == {
        "summary":
            "4f254a3c98db7c98c2c67e59707daf842f2601e6e6468fd3a7154e65933beb69",
        "trace":
            "422f0db0093eeee2821d969b06f7cbbf38cd951a3769464411e610e6359a3753",
        "metrics":
            "a492c73bcd674c8db33ceef80a9d4825f6c1be673f287c239c75da01a7caa18f",
    }


def test_frozen_pool_flash_crowd_sheds_by_both_rules():
    plane = frozen_flash_day()
    assert any(w.dropped for w in plane.windows if w.replicas == 0)
    assert any(w.dropped for w in plane.windows if w.replicas == 3)
    assert plane.scale_ups == plane.scale_downs == 0
    assert digests(plane) == {
        "summary":
            "52aebc354537ae7625dfdfdc6dc143ec650d0159f9fc1607f9df7905e64a6f78",
        "trace":
            "9462eaf0d7f49c717b2c41556cc821e06cc05d4a4117a0478701da94906072c3",
        "metrics":
            "ba4c5c9702439f03ed238efe3ae53d9e883c04140401b1c733a31138c1856aa3",
    }


def test_coscheduled_day_grant_release_reclaim():
    plane, log = cosched_day(Telemetry.active())
    assert plane.preempted_socs > 0 and plane.scale_downs > 0
    assert log["reclaimed_by_autoscale"] and log["reclaimed_by_grant"]
    assert digests(plane) == {
        "summary":
            "e78dd771f454737e93f268857c6bcf15caddcc32d5335e957ef657c6e48f40de",
        "trace":
            "bee6d6d329a359ffed3b01f683e2030158866f894270ab45139cf8d8d0556bbd",
        "metrics":
            "a54b8d01c2ebb14695c64f6c618341f5f1af48da6d3ac4eddc4b9a2e6dc36a35",
    }
