"""The paired bootstrap's p-values are fixed by (scores, b_samples, seed).

The pinned values below were produced by the single-direction, single-thread
implementation that drew each 8192-resample chunk in one ``integers`` call.
Drawing once for both directions, in row blocks, on any number of threads
must return them bit for bit.
"""

import concurrent.futures
import os
import sys

import numpy as np
import pytest

from lookahead import evaluation
from lookahead.evaluation import paired_bootstrap


def scores(n: int) -> tuple[list[float], list[float]]:
    a = [((i * 37) % 101) / 101 for i in range(n)]
    b = [((i * 53 + 17) % 89) / 89 for i in range(n)]
    return a, b


# (tasks, b_samples) -> (p(a > b), p(b > a)) at seed 3.  8191 and 20001
# end in a partial chunk, whose last block of rows is partial too.
PINNED = {
    (1, 1): (1.0, 0.0),
    (1, 8191): (1.0, 0.0),
    (1, 8192): (1.0, 0.0),
    (1, 20001): (1.0, 0.0),
    (7, 1): (0.0, 0.0),
    (7, 8191): (0.8138200463923819, 0.1878891466243438),
    (7, 8192): (0.813720703125, 0.1878662109375),
    (7, 20001): (0.8108094595270237, 0.18824058797060148),
    (60, 1): (1.0, 1.0),
    (60, 8191): (0.6217800024417043, 0.3745574410938835),
    (60, 8192): (0.6217041015625, 0.37451171875),
    (60, 20001): (0.6280185990700465, 0.3776311184440778),
}


@pytest.mark.parametrize("n, b_samples", sorted(PINNED), ids=lambda v: str(v))
def test_pinned_p_values(n, b_samples):
    a, b = scores(n)
    expected = PINNED[(n, b_samples)]
    assert paired_bootstrap(a, b, b_samples, 3) == expected
    assert paired_bootstrap(b, a, b_samples, 3) == expected[::-1]


def reference_bootstrap(scores_a, scores_b, b_samples, seed):
    """One direction, one thread, each chunk drawn whole."""
    diffs = np.sort(np.asarray(scores_a, dtype=np.float64) - np.asarray(scores_b, dtype=np.float64))
    delta = float(diffs.mean())
    n = diffs.shape[0]
    exceed = 0
    for chunk_index, start in enumerate(range(0, b_samples, 8192)):
        size = min(8192, b_samples - start)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, chunk_index])))
        indices = rng.integers(0, n, size=(size, n))
        exceed += int((diffs[indices].mean(axis=1) > 2 * delta).sum())
    return exceed / b_samples


@pytest.mark.parametrize(
    "scores_a, scores_b",
    [
        ([1.0, 0.0] * 10, [0.0, 1.0] * 10),  # success-style ties at exactly 2 * delta
        ([1.0, 1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0]),
        scores(500),
    ],
    ids=["balanced-units", "binary-lead", "wide"],
)
@pytest.mark.parametrize("seed", [0, 11])
def test_both_directions_equal_the_reference(scores_a, scores_b, seed):
    expected = (
        reference_bootstrap(scores_a, scores_b, 17000, seed),
        reference_bootstrap(scores_b, scores_a, 17000, seed),
    )
    assert paired_bootstrap(scores_a, scores_b, 17000, seed) == expected


def fake_cpus(monkeypatch, affinity, cpu_count):
    """Pretend the process may run on ``affinity`` CPUs of ``cpu_count``;
    an ``affinity`` of None stands for an OS without affinity masks."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)


CPU_CASES = [(1, 64), (3, 64), (64, 64), (None, 1), (None, 3), (None, None)]


@pytest.mark.parametrize("affinity, cpu_count", CPU_CASES)
def test_p_values_do_not_depend_on_the_thread_count(monkeypatch, affinity, cpu_count):
    fake_cpus(monkeypatch, affinity, cpu_count)
    a, b = scores(60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        both = paired_bootstrap(a, b, 20001, 3)
    finally:
        sys.setswitchinterval(interval)
    assert both == PINNED[(60, 20001)]


@pytest.mark.parametrize(
    "affinity, cpu_count, b_samples, workers",
    [
        (1, 64, 20001, 1),  # the affinity mask, not the host, bounds the pool
        (3, 64, 20001, 3),
        (3, 64, 8192, 1),  # never more threads than chunks
        (64, 64, 1_000_000, 8),  # at most one chunk's worth of rows in flight
        (None, 3, 20001, 3),
        (None, None, 20001, 1),
    ],
)
def test_pool_size(monkeypatch, affinity, cpu_count, b_samples, workers):
    fake_cpus(monkeypatch, affinity, cpu_count)
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    # _bootstrap imports the pool class when it runs, so patch it at its source.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    # One task: the pool is sized before any work, and each chunk is cheap.
    paired_bootstrap([1.0], [0.0], b_samples, 3)
    assert sizes == [workers]


def test_inputs_are_checked():
    with pytest.raises(ValueError, match="differ in length"):
        paired_bootstrap([1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="at least one task"):
        paired_bootstrap([], [])
    with pytest.raises(ValueError, match="b_samples must be positive"):
        paired_bootstrap([1.0], [0.0], b_samples=0)


def test_negative_seed_is_refused_by_name():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        paired_bootstrap([1.0, 0.0], [0.0, 0.0], b_samples=10, seed=-1)


@pytest.mark.parametrize("n", [1, 2, 7, 60, 1000])
@pytest.mark.parametrize("blocks", [[1024] * 8, [1000, 3000, 4192], [8191, 1]])
def test_row_blocks_draw_the_rows_of_one_whole_chunk(n, blocks):
    # The kernel draws a chunk's indices a block of rows at a time.  That
    # keeps the p-values only while numpy's generator hands out the same
    # rows either way; a release that changes this must fail here.
    def generator():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence([5, 2])))

    whole = generator().integers(0, n, size=(evaluation._BOOTSTRAP_CHUNK, n))
    rng = generator()
    parts = np.concatenate([rng.integers(0, n, size=(rows, n)) for rows in blocks])
    assert np.array_equal(parts, whole)

