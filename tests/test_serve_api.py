"""HTTP semantics of ``repro serve``: routing, validation, the ladder's
observable contract, and the prediction firewall.

One loopback server (module-scoped, corpus seeded from the golden
fingerprints) backs every test; all engine-execution assertions are
deltas against :func:`repro.harness.runner.engine_run_count`.
"""

import http.client
import json
import os

import pytest

from repro.harness.runner import engine_run_count
from repro.serve import ServeApp, ServeClient, loopback_server
from repro.serve.client import ServeError

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-api")
    app = ServeApp(
        workers=2,
        store_path=str(tmp / "store.jsonl"),
        golden_dir=GOLDEN_DIR,
        sweep_executor="serial",
    )
    with loopback_server(app) as (host, port):
        yield app, ServeClient(host, port)


def _raw(served, method, path, body=b"", headers=None):
    app, client = served
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# routing and validation
# ----------------------------------------------------------------------


def test_healthz(served):
    _, client = served
    assert client.healthz()


def test_unknown_route_is_404(served):
    status, raw = _raw(served, "GET", "/nope")
    assert status == 404
    assert "no route" in json.loads(raw)["error"]


def test_run_requires_post(served):
    status, raw = _raw(served, "GET", "/run")
    assert status == 405


def test_run_requires_a_body(served):
    status, raw = _raw(served, "POST", "/run")
    assert status == 400
    assert "JSON body" in json.loads(raw)["error"]


def test_invalid_json_body_is_400(served):
    body = b'{"spec": {'
    status, raw = _raw(
        served, "POST", "/run", body=body,
        headers={"Content-Length": str(len(body))},
    )
    assert status == 400
    assert "not valid JSON" in json.loads(raw)["error"]


def test_oversized_body_is_413(served):
    status, _ = _raw(
        served, "POST", "/run",
        headers={"Content-Length": str(64 * 1024 * 1024)},
    )
    assert status == 413


def test_malformed_request_line_is_400(served):
    app, client = served
    import socket

    with socket.create_connection((client.host, client.port), timeout=30) as s:
        s.sendall(b"NONSENSE\r\n\r\n")
        reply = s.recv(4096)
    assert b"400" in reply.split(b"\r\n", 1)[0]


@pytest.mark.parametrize("body,fragment", [
    ({}, "spec"),
    ({"spec": {"benchmark": "lbm", "cluster": "A"}, "bogus": 1},
     "unknown request field"),
    ({"spec": {"benchmark": "lbm", "cluster": "A", "node": 4}},
     "unknown spec field"),
    ({"spec": {"benchmark": "nope", "cluster": "A"}}, "unknown benchmark"),
    ({"spec": {"benchmark": "lbm", "cluster": "A"}, "max_band": -0.1},
     "max_band"),
])
def test_bad_run_envelopes_are_400(served, body, fragment):
    _, client = served
    with pytest.raises(ServeError) as err:
        client._json("POST", "/run", body)
    assert err.value.status == 400
    assert fragment in err.value.message


def test_unknown_job_status_is_404(served):
    _, client = served
    with pytest.raises(ServeError) as err:
        client.status("sweep-999999")
    assert err.value.status == 404


# ----------------------------------------------------------------------
# the ladder's observable contract
# ----------------------------------------------------------------------

SPEC = {"benchmark": "minisweep", "cluster": "A", "nnodes": 1}


def test_force_bypasses_the_store(served):
    _, client = served
    cold = client.run(SPEC)
    assert cold.source == "des"
    before = engine_run_count()
    warm = client.run(SPEC)
    assert warm.source == "store" and engine_run_count() == before
    forced = client.run(SPEC, force=True)
    assert forced.source == "des"
    assert engine_run_count() == before + 1
    assert forced.fingerprint == cold.fingerprint  # same spec, same bits


def test_unsatisfiable_band_escalates_to_des(served):
    # a max_band no cheap tier can state -> the ladder falls through to
    # the engine and the answer is exact (band 0, fingerprinted)
    _, client = served
    spec = {**SPEC, "seed": 41}
    before = engine_run_count()
    answer = client.run(spec, max_band=1e-12)
    assert answer.source == "des"
    assert answer.band == 0.0 and answer.fingerprint is not None
    assert engine_run_count() == before + 1


def test_predictions_are_never_cached_as_truth(served):
    # a prediction answers the request but must not poison the store:
    # the next exact request still runs the engine
    _, client = served
    spec = {**SPEC, "seed": 42}
    predicted = client.run(spec, max_band=0.5)
    assert predicted.source == "predict"
    assert predicted.fingerprint is None
    assert 0.0 <= predicted.band <= 0.5
    exact = client.run(spec)
    assert exact.source == "des"
    assert exact.fingerprint is not None


def test_des_only_axes_skip_the_predict_level(served):
    # noise_sigma makes the point unpriceable by cheap tiers: even with
    # a permissive band the ladder goes to the engine
    _, client = served
    spec = {**SPEC, "noise_sigma": 0.01, "seed": 43}
    answer = client.run(spec, max_band=10.0)
    assert answer.source == "des"


def test_predict_endpoint_prices_without_executing(served):
    _, client = served
    before = engine_run_count()
    answer = client.predict({"benchmark": "lbm", "cluster": "B", "nnodes": 2})
    assert engine_run_count() == before  # no engine execution
    doc = answer.doc
    assert doc["source"] == "predict"
    assert doc["tier"] in ("analytic", "surrogate")
    low, high = doc["runtime_interval_s"]
    assert low <= doc["runtime_s"] <= high
    assert doc["energy_j"] > 0.0


def test_predict_endpoint_rejects_unpriceable_specs(served):
    _, client = served
    with pytest.raises(ServeError) as err:
        client.predict({**SPEC, "noise_sigma": 0.5})
    assert err.value.status == 400
    assert "DES-only" in err.value.message


def test_predict_endpoint_rejects_unknown_tier(served):
    _, client = served
    with pytest.raises(ServeError) as err:
        client._json("POST", "/predict", {"spec": SPEC, "tier": "psychic"})
    assert err.value.status == 400


# ----------------------------------------------------------------------
# sweeps, jobs, metrics
# ----------------------------------------------------------------------


def test_sweep_events_and_job_status(served):
    _, client = served
    specs = [
        SPEC,                                       # cached by earlier tests
        {"benchmark": "soma", "cluster": "B", "nnodes": 1, "seed": 44},
        {"benchmark": "tealeaf", "cluster": "B", "nnodes": 1, "seed": 44},
    ]
    events = client.sweep(specs, max_band=0.5)
    assert events[0]["event"] == "accepted"
    assert events[-1]["event"] == "done"
    job_id = events[0]["job"]
    points = {e["index"]: e for e in events if e["event"] == "point"}
    assert sorted(points) == [0, 1, 2]
    assert points[0]["source"] == "store"
    # fresh keys with a satisfied band answer from the predict level
    assert {points[i]["source"] for i in (1, 2)} == {"predict"}
    status = client.status(job_id)
    assert status["state"] == "done"
    assert status["done"] == status["total"] == 3
    assert status["sources"]["store"] == 1
    assert status["sources"]["predict"] == 2


def test_sweep_streams_ndjson_incrementally(served):
    _, client = served
    specs = [SPEC, {"benchmark": "soma", "cluster": "A",
                    "nnodes": 1, "seed": 45}]
    events = list(client.sweep_events(specs))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "accepted" and kinds[-1] == "done"
    assert kinds.count("point") == 2


def test_sweep_rejects_bad_envelopes(served):
    _, client = served
    for body in ({"specs": []}, {"specs": "x"},
                 {"specs": [SPEC], "bogus": 1}):
        with pytest.raises(ServeError) as err:
            client._json("POST", "/sweep", body)
        assert err.value.status == 400


def test_metrics_shape(served):
    app, client = served
    doc = client.metrics()
    assert doc["answered"] == sum(doc["answers"].values())
    assert 0.0 <= doc["hit_rate"] <= 1.0
    assert doc["store"]["entries"] == len(app.store)
    assert doc["store"]["rejected_lines"] == 0
    assert doc["corpus"]["samples"] >= 36  # golden seed + absorbed runs
    assert doc["corpus"]["rejected_lines"] == 0
    for level, window in doc["latency"].items():
        assert window["count"] >= 1
        assert 0.0 <= window["p50_ms"] <= window["p99_ms"]


def test_server_survives_and_reports_internal_errors(served):
    # a handler bug must produce a 500 on that connection, not kill the
    # server for everyone else
    app, client = served
    original = app.metrics_doc
    app.metrics_doc = lambda: 1 / 0
    try:
        with pytest.raises(ServeError) as err:
            client.metrics()
        assert err.value.status == 500
    finally:
        app.metrics_doc = original
    assert client.healthz()
    assert client.metrics()["answers"]["error"] >= 1


def test_store_survives_restart(served, tmp_path_factory):
    # the same backing file answers a fresh app instance from the store
    app, client = served
    spec = {**SPEC, "seed": 46}
    cold = client.run(spec)
    assert cold.source == "des"
    app2 = ServeApp(store_path=app.store.path)
    with loopback_server(app2) as (host, port):
        warm = ServeClient(host, port).run(spec)
    assert warm.source == "store"
    assert warm.fingerprint == cold.fingerprint
    assert warm.doc["result"] == cold.doc["result"]
