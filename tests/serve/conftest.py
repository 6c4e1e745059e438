"""Shared fixtures for the serving tests."""

import numpy as np
import pytest

from repro.serve import ServeRequest


def _predict_rows(engine, rows, *, features=False, timeout=60.0):
    """Predictions for any number of rows, in order, through ``submit``.

    Splits ``rows`` into requests of at most ``max_queries_per_request``
    rows, frame-batches the submits, and requires every request served.
    """
    step = engine.max_queries_per_request
    futures = [
        engine.submit(
            ServeRequest(rows[start:start + step], features=features),
            flush=False,
        )
        for start in range(0, rows.shape[0], step)
    ]
    engine.flush()
    results = [future.result(timeout=timeout) for future in futures]
    assert all(result.ok for result in results), "a request expired"
    return np.concatenate([result.predictions for result in results])


@pytest.fixture
def predict_rows():
    """The bulk-predict helper for calls wider than one request."""
    return _predict_rows
