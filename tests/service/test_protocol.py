"""Protocol-level unit tests: parsing, normalisation, keys, envelopes."""

import pytest

from repro.service.protocol import (COMPUTE_KINDS, CRASH_DESIGN,
                                    ERROR_BAD_REQUEST, ProtocolError,
                                    ServiceRequest, error_response, normalize,
                                    ok_response, parse_request,
                                    service_result_record, work_item)

_DEFAULTS = dict(resolution_ps=25.0, speculate=4, max_probes=96,
                 latency_weight=1e-3)


def _normalized(raw):
    return normalize(parse_request(raw), **_DEFAULTS)


class TestParse:
    def test_schedule_roundtrip(self):
        request = parse_request({"kind": "schedule", "design": "rrot",
                                 "clock_period_ps": 1500, "id": 7})
        assert request.kind == "schedule"
        assert request.design == "rrot"
        assert request.clock_period_ps == 1500.0
        assert request.client_id == "7"

    def test_control_kinds_take_no_fields(self):
        assert parse_request({"kind": "ping"}).kind == "ping"
        with pytest.raises(ProtocolError, match="does not accept"):
            parse_request({"kind": "ping", "design": "rrot"})

    @pytest.mark.parametrize("raw", [
        "not a dict",
        {"kind": "nope"},
        {"kind": "schedule", "design": "rrot"},            # missing clock
        {"kind": "schedule", "design": "", "clock_period_ps": 1},
        {"kind": "schedule", "design": "r", "clock_period_ps": -5},
        {"kind": "schedule", "design": "r", "clock_period_ps": True},
        {"kind": "schedule", "design": "r", "clock_period_ps": 1,
         "speculate": 4},                                  # knob of min-clock
        {"kind": "min-clock", "design": "r", "clock_period_ps": 1000},
        {"kind": "min-clock", "design": "r", "speculate": 0},
        # Non-finite numbers (JSON NaN, Infinity, 1e400, a 400-digit int).
        {"kind": "schedule", "design": "r", "clock_period_ps": float("nan")},
        {"kind": "schedule", "design": "r", "clock_period_ps": float("inf")},
        {"kind": "schedule", "design": "r", "clock_period_ps": 10 ** 400},
        {"kind": "min-clock", "design": "r", "resolution_ps": float("nan")},
        {"kind": "min-clock", "design": "r", "deadline_s": float("-inf")},
    ])
    def test_rejects_malformed(self, raw):
        with pytest.raises(ProtocolError):
            parse_request(raw)

    def test_min_ii_clock_is_optional(self):
        assert parse_request({"kind": "min-ii",
                              "design": "r"}).clock_period_ps is None


class TestKeys:
    def test_explicit_default_and_omitted_share_a_key(self):
        spelled = _normalized({"kind": "min-clock", "design": "rrot",
                               "resolution_ps": 25.0, "speculate": 4,
                               "max_probes": 96})
        omitted = _normalized({"kind": "min-clock", "design": "rrot"})
        assert spelled.key() == omitted.key()

    def test_id_and_deadline_do_not_perturb_the_key(self):
        plain = _normalized({"kind": "schedule", "design": "rrot",
                             "clock_period_ps": 1500})
        decorated = _normalized({"kind": "schedule", "design": "rrot",
                                 "clock_period_ps": 1500, "id": "x",
                                 "deadline_s": 2.0})
        assert plain.key() == decorated.key()

    def test_different_questions_differ(self):
        keys = {_normalized(raw).key() for raw in (
            {"kind": "schedule", "design": "rrot", "clock_period_ps": 1500},
            {"kind": "schedule", "design": "rrot", "clock_period_ps": 1501},
            {"kind": "schedule", "design": "crc32", "clock_period_ps": 1500},
            {"kind": "min-ii", "design": "rrot", "clock_period_ps": 1500},
            {"kind": "min-clock", "design": "rrot"},
        )}
        assert len(keys) == 5

    def test_crash_design_needs_opt_in(self):
        raw = {"kind": "schedule", "design": CRASH_DESIGN,
               "clock_period_ps": 1000}
        with pytest.raises(ProtocolError, match="fault"):
            _normalized(raw)
        request = normalize(parse_request(raw), allow_crash=True, **_DEFAULTS)
        assert work_item(request)["crash"] is True


class TestEnvelopes:
    def test_ok_response_shape(self):
        request = _normalized({"kind": "schedule", "design": "rrot",
                               "clock_period_ps": 1500, "id": "a"})
        response = ok_response(request, {"feasible": True}, served="warm",
                               latency_s=0.001)
        assert response["ok"] is True
        assert response["served"] == "warm"
        assert response["key"] == request.key()
        assert response["id"] == "a"

    def test_error_response_shape(self):
        response = error_response(ERROR_BAD_REQUEST, "nope", client_id="z")
        assert response == {"ok": False, "error": ERROR_BAD_REQUEST,
                            "message": "nope", "id": "z"}

    def test_store_record_key_is_the_request_key(self):
        request = _normalized({"kind": "schedule", "design": "rrot",
                               "clock_period_ps": 1500})
        record = service_result_record(request, {"feasible": False})
        assert record.kind == "service-result"
        assert record.key == request.key()
        assert record.body["request"] == request.identity()

    def test_compute_kinds_cover_the_worker_surface(self):
        assert set(COMPUTE_KINDS) == {"schedule", "min-clock", "min-ii"}
        for kind in COMPUTE_KINDS:
            assert ServiceRequest(kind=kind, design="d").identity()["kind"] == kind
